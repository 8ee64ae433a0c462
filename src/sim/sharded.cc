#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

namespace ustore::sim {

namespace {
constexpr Time kNoEvent = std::numeric_limits<Time>::max();

// Round a delivery time up to an odd nanosecond (see the tie-avoidance
// note in sharded.h): even times gain 1ns, odd times are unchanged.
constexpr Time OddTime(Time t) { return t | 1; }

std::uint64_t WallNow() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

// ---------------------------------------------------------------------------
// SingleQueueEngine — the bit-exactness oracle.

SingleQueueEngine::SingleQueueEngine(Simulator* sim, int shards,
                                     Duration lookahead)
    : sim_(sim), shards_(shards), lookahead_(lookahead) {
  assert(sim_ != nullptr);
  assert(shards_ >= 1);
  assert(lookahead_ >= 1);
}

Time SingleQueueEngine::now(int shard) const {
  (void)shard;
  return sim_->now();
}

void SingleQueueEngine::Schedule(int shard, Duration delay, EventFn fn) {
  assert(shard >= 0 && shard < shards_);
  (void)shard;
  sim_->Schedule(delay, std::move(fn));
}

void SingleQueueEngine::Post(int from_shard, int to_shard, Duration delay,
                             EventFn fn) {
  assert(from_shard >= 0 && from_shard < shards_);
  assert(to_shard >= 0 && to_shard < shards_);
  (void)from_shard;
  (void)to_shard;
  const Time at =
      OddTime(sim_->now() + std::max<Duration>(delay, lookahead_));
  sim_->ScheduleAt(at, std::move(fn));
}

void SingleQueueEngine::Run(std::uint64_t max_events) {
  sim_->Run(max_events);
}

// ---------------------------------------------------------------------------
// ShardQueue — one shard's arena-backed indexed heap.

EventId ShardQueue::ScheduleAt(Time t, EventFn fn) {
  assert(fn);
  std::uint32_t idx;
  if (!free_slots_.empty()) {
    idx = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if ((slot_count_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    idx = slot_count_++;
  }
  Slot& s = slot(idx);
  s.fn = std::move(fn);
  s.heap_pos = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(HeapEntry{std::max(t, now_), next_seq_++, idx});
  SiftUp(heap_.size() - 1);
  return MakeId(idx, s.gen);
}

void ShardQueue::Cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slot_count_) return;
  Slot& s = slot(static_cast<std::uint32_t>(hi - 1));
  if (s.gen != static_cast<std::uint32_t>(id) || s.heap_pos < 0) return;
  const std::uint32_t idx = heap_[s.heap_pos].slot;
  RemoveFromHeap(static_cast<std::size_t>(s.heap_pos));
  s.fn.reset();
  FreeSlot(idx);
}

std::uint64_t ShardQueue::RunUntilBound(Time bound,
                                        std::uint64_t max_events) {
  std::uint64_t fired = 0;
  while (fired < max_events && !heap_.empty() &&
         heap_.front().time < bound) {
    const HeapEntry top = heap_.front();
    RemoveFromHeap(0);
    Slot& s = slot(top.slot);
    assert(top.time >= now_);
    now_ = top.time;
    ++events_processed_;
    ++fired;
    // Arena chunks never move, so the callback runs in place: events it
    // schedules may add chunks but can never relocate this slot. The slot
    // itself stays live (off the free list) until the callback returns.
    s.fn();
    s.fn.reset();
    FreeSlot(top.slot);
  }
  return fired;
}

void ShardQueue::SiftUp(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!Earlier(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slot(heap_[pos].slot).heap_pos = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slot(entry.slot).heap_pos = static_cast<std::int32_t>(pos);
}

void ShardQueue::SiftDown(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) ++child;
    if (!Earlier(heap_[child], entry)) break;
    heap_[pos] = heap_[child];
    slot(heap_[pos].slot).heap_pos = static_cast<std::int32_t>(pos);
    pos = child;
  }
  heap_[pos] = entry;
  slot(entry.slot).heap_pos = static_cast<std::int32_t>(pos);
}

void ShardQueue::RemoveFromHeap(std::size_t pos) {
  slot(heap_[pos].slot).heap_pos = -1;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  slot(last.slot).heap_pos = static_cast<std::int32_t>(pos);
  SiftDown(pos);
  SiftUp(static_cast<std::size_t>(slot(last.slot).heap_pos));
}

void ShardQueue::FreeSlot(std::uint32_t s) {
  Slot& sl = slot(s);
  sl.heap_pos = -1;
  if (++sl.gen == 0) ++sl.gen;
  free_slots_.push_back(s);
}

// ---------------------------------------------------------------------------
// ShardedEngine worker pool.
//
// The pool serves only epochs with two or more ready shards. The calling
// thread publishes the epoch, wakes one parked worker per ready shard
// beyond its own (at most `threads - 1`), and claims ready shards
// alongside them until none are left; the epoch ends when every ready
// shard has run, so the caller never waits for a worker that found
// nothing to claim. Claims, completions and the epoch's parameters share
// one mutex. Claiming order cannot affect results (shards share nothing),
// so any thread count executes identically — the pool only decides *who*
// runs a shard, never *what* it runs.

struct ShardedEngine::Pool {
  Pool(ShardedEngine* engine, int workers) : engine(engine) {
    threads.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      threads.emplace_back([this] { WorkerMain(); });
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    cv_start.notify_all();
    for (std::thread& t : threads) t.join();
  }

  // Runs engine->ready_ up to `epoch_bound` on the caller and the workers.
  void RunEpoch(Time epoch_bound, std::uint64_t epoch_max_events) {
    std::unique_lock<std::mutex> lock(mu);
    bound = epoch_bound;
    max_events = epoch_max_events;
    count = engine->ready_.size();
    next = 0;
    finished = 0;
    const std::size_t helpers = std::min(count - 1, threads.size());
    for (std::size_t i = 0; i < helpers; ++i) cv_start.notify_one();
    ClaimAndRun(lock);
    cv_done.wait(lock, [this] { return finished == count; });
  }

  // Claims and runs ready shards until none are left to claim. Called and
  // returns with `lock` held; the epoch cannot end (and its parameters
  // cannot change) while this thread holds a claim.
  void ClaimAndRun(std::unique_lock<std::mutex>& lock) {
    while (next < count) {
      const int shard = engine->ready_[next++];
      const Time epoch_bound = bound;
      const std::uint64_t epoch_max = max_events;
      lock.unlock();
      engine->RunShardTimed(shard, epoch_bound, epoch_max);
      lock.lock();
      if (++finished == count) cv_done.notify_one();
    }
  }

  void WorkerMain() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv_start.wait(lock, [this] { return stop || next < count; });
      if (stop) return;
      ClaimAndRun(lock);
    }
  }

  ShardedEngine* engine;
  std::mutex mu;  // guards everything below it but `threads`
  std::condition_variable cv_start, cv_done;
  Time bound = 0;
  std::uint64_t max_events = 0;
  std::size_t count = 0;     // ready shards this epoch
  std::size_t next = 0;      // ready_[next] is the next shard to claim
  std::size_t finished = 0;  // ready shards that have run
  bool stop = false;
  std::vector<std::thread> threads;
};

// ---------------------------------------------------------------------------
// ShardedEngine.

ShardedEngine::ShardedEngine(Options options)
    : lookahead_(options.lookahead),
      threads_(std::clamp(options.threads, 1, std::max(options.shards, 1))) {
  assert(options.shards >= 1);
  assert(lookahead_ >= 1 && "conservative lookahead must be positive");
  queues_.reserve(options.shards);
  for (int i = 0; i < options.shards; ++i) {
    queues_.push_back(std::make_unique<ShardQueue>());
  }
  outbox_.resize(static_cast<std::size_t>(options.shards) * options.shards);
  busy_ns_.assign(static_cast<std::size_t>(options.shards), 0);
  ready_.reserve(static_cast<std::size_t>(options.shards));
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::Schedule(int shard, Duration delay, EventFn fn) {
  assert(shard >= 0 && shard < shards());
  queues_[shard]->Schedule(delay, std::move(fn));
}

void ShardedEngine::Post(int from_shard, int to_shard, Duration delay,
                         EventFn fn) {
  assert(from_shard >= 0 && from_shard < shards());
  assert(to_shard >= 0 && to_shard < shards());
  const Time at = OddTime(queues_[from_shard]->now() +
                          std::max<Duration>(delay, lookahead_));
  outbox_[static_cast<std::size_t>(from_shard) * shards() + to_shard]
      .push_back(Mail{at, std::move(fn)});
}

void ShardedEngine::FlushMailboxes() {
  const int shard_count = shards();
  for (int dst = 0; dst < shard_count; ++dst) {
    ShardQueue& queue = *queues_[dst];
    for (int src = 0; src < shard_count; ++src) {
      std::vector<Mail>& box =
          outbox_[static_cast<std::size_t>(src) * shard_count + dst];
      for (Mail& mail : box) {
        // Conservative lookahead guarantees the destination has not run
        // past the delivery time: at >= sending-epoch bound > dst.now().
        assert(mail.at >= queue.now());
        queue.ScheduleAt(mail.at, std::move(mail.fn));
        ++cross_posts_;
      }
      box.clear();
    }
  }
}

void ShardedEngine::RunShardTimed(int shard, Time bound,
                                  std::uint64_t max_events) {
  // busy_ns_[shard] is only touched by the thread that claimed `shard`
  // this epoch; the pool barrier orders epochs, so no two writers race.
  const std::uint64_t t0 = WallNow();
  queues_[shard]->RunUntilBound(bound, max_events);
  busy_ns_[shard] += WallNow() - t0;
}

void ShardedEngine::RunEpochShards(Time bound, std::uint64_t max_events) {
  if (ready_.size() >= 2) ++multi_shard_epochs_;
  if (ready_.size() < 2 || threads_ == 1) {
    for (const int k : ready_) RunShardTimed(k, bound, max_events);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<Pool>(this, threads_ - 1);
  pool_->RunEpoch(bound, max_events);
}

void ShardedEngine::Run(std::uint64_t max_events) {
  const std::uint64_t wall0 = WallNow();
  for (;;) {
    FlushMailboxes();
    Time earliest = kNoEvent;
    for (const auto& queue : queues_) {
      earliest = std::min(earliest, queue->EarliestOr(kNoEvent));
    }
    if (earliest == kNoEvent) break;  // drained (mailboxes just flushed)
    const std::uint64_t fired = events_processed();
    if (fired >= max_events) break;  // runaway guard, like Simulator::Run
    // Every event in [earliest, earliest + L) is safe: a cross-shard send
    // from inside the window lands at >= earliest + L, which the next
    // barrier flush delivers before anyone runs past it.
    const Time bound = earliest + lookahead_;
    // Only shards with an event below the bound have work this epoch;
    // running the others would fire nothing and leave their clocks as is.
    ready_.clear();
    for (int k = 0; k < shards(); ++k) {
      if (queues_[k]->EarliestOr(kNoEvent) < bound) ready_.push_back(k);
    }
    RunEpochShards(bound, max_events - fired);
    ++epochs_;
  }
  run_wall_ns_ += WallNow() - wall0;
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& queue : queues_) total += queue->events_processed();
  return total;
}

}  // namespace ustore::sim
