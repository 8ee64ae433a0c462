// Intra-unit parallel discrete-event engine (DESIGN.md §12).
//
// A deploy unit at 100k disks is too much simulation for one event loop, so
// the unit is partitioned into *shards* — fabric subtrees that share no
// mutable state — and each shard runs its own indexed event heap over an
// arena-allocated slot slab. Shards synchronize with conservative
// lookahead: every cross-shard interaction in the modelled hardware pays at
// least the minimum cross-shard latency L (a USB hop plus the RPC floor),
// so a shard may safely execute events up to
//
//     bound = min over shards of (earliest pending event) + L
//
// without ever receiving a message that should have preempted it.
// Cross-shard events travel through per-(source, destination) mailboxes,
// appended lock-free by the owning source shard during an epoch and flushed
// into destination heaps at the barrier between epochs.
//
// Determinism contract (the same oracle pattern as the bandwidth solver and
// the fleet merge):
//
//   * The existing single-queue sim::Simulator is the bit-exactness oracle:
//     SingleQueueEngine runs the same model on one Simulator, and sharded
//     runs at ANY shard/thread count must produce bit-identical reports,
//     metric JSON and trace digests (tests/sharded_*_test.cc enforce this).
//   * At a fixed shard count, execution is identical for every thread
//     count by construction: shard state is only ever touched by that
//     shard's events, and mailboxes are flushed in (destination, source,
//     FIFO) order by the barrier, never concurrently.
//   * Across *different* shard counts (and vs the oracle), two deliveries
//     from different sources that land on one shard at the same nanosecond
//     may execute in either order, so cross-shard handlers must be
//     commutative for same-timestamp deliveries (the unit model aggregates
//     into per-source slots). To keep that the ONLY requirement, Post()
//     rounds every delivery up to an odd nanosecond; models keep their
//     shard-local event times even, so a delivery never ties with a local
//     event.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ustore::sim {

// What an intra-unit model runs against: shard-local scheduling plus
// cross-shard posts. Implemented by SingleQueueEngine (the oracle) and
// ShardedEngine (the parallel engine); the model must behave identically on
// both — that is the bit-exactness contract.
class UnitEngine {
 public:
  virtual ~UnitEngine() = default;

  virtual int shards() const = 0;
  virtual Duration lookahead() const = 0;

  // The current simulated time as seen by `shard` (its last fired event).
  virtual Time now(int shard) const = 0;

  // Schedules `fn` on `shard`'s queue, `delay` from the shard's now. Must
  // be called either before Run() or from inside an event already running
  // on `shard` — never from another shard.
  virtual void Schedule(int shard, Duration delay, EventFn fn) = 0;

  // Cross-shard post from an event running on `from_shard`: `fn` runs on
  // `to_shard` at now(from_shard) + max(delay, lookahead()), rounded up to
  // an odd nanosecond (see the tie-avoidance note above). Posting to the
  // own shard is allowed and follows the same timing rule.
  virtual void Post(int from_shard, int to_shard, Duration delay,
                    EventFn fn) = 0;

  // Runs until every queue and mailbox drains (or `max_events` fire).
  virtual void Run(std::uint64_t max_events = UINT64_MAX) = 0;

  // Total events fired across all shards. Identical between the oracle and
  // the sharded engine for the same model: a delivery is one event either
  // way, and mailbox flushes are not events.
  virtual std::uint64_t events_processed() const = 0;
};

// The oracle: every shard's events interleave on one sim::Simulator, whose
// global (time, seq) order restricted to a single shard is exactly that
// shard's program order. Cross-shard posts become plain Schedule calls at
// the delivery time, so timing matches ShardedEngine to the nanosecond.
class SingleQueueEngine final : public UnitEngine {
 public:
  // `sim` is borrowed; the caller keeps it alive for the engine lifetime.
  SingleQueueEngine(Simulator* sim, int shards, Duration lookahead);

  int shards() const override { return shards_; }
  Duration lookahead() const override { return lookahead_; }
  Time now(int shard) const override;
  void Schedule(int shard, Duration delay, EventFn fn) override;
  void Post(int from_shard, int to_shard, Duration delay,
            EventFn fn) override;
  void Run(std::uint64_t max_events) override;
  std::uint64_t events_processed() const override {
    return sim_->events_processed();
  }

 private:
  Simulator* sim_;
  int shards_;
  Duration lookahead_;
};

// One shard's event queue: the Simulator's indexed-heap algorithm over an
// *arena* slot slab — fixed-size chunks that never move, so a firing
// callback is invoked in place (no per-event EventFn relocation, and slots
// allocated by the callback cannot invalidate it).
class ShardQueue {
 public:
  ShardQueue() = default;
  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  Time now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  EventId Schedule(Duration delay, EventFn fn) {
    return ScheduleAt(now_ + std::max<Duration>(delay, 0), std::move(fn));
  }
  EventId ScheduleAt(Time t, EventFn fn);
  void Cancel(EventId id);

  // Earliest pending event time; `empty_value` when the heap is empty.
  Time EarliestOr(Time empty_value) const {
    return heap_.empty() ? empty_value : heap_.front().time;
  }

  // Fires every event with time < bound, in (time, seq) order. Returns the
  // number fired. Never advances now() past the last fired event.
  std::uint64_t RunUntilBound(Time bound, std::uint64_t max_events);

 private:
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 1;
    std::int32_t heap_pos = -1;
    EventFn fn;
  };
  static constexpr std::uint32_t kChunkShift = 10;  // 1024 slots per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static EventId MakeId(std::uint32_t s, std::uint32_t gen) {
    return (static_cast<EventId>(s) + 1) << 32 | gen;
  }
  void SiftUp(std::size_t pos);
  void SiftDown(std::size_t pos);
  void RemoveFromHeap(std::size_t pos);
  void FreeSlot(std::uint32_t s);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t events_processed_ = 0;
  std::uint32_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;  // arena: chunks never move
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
};

// The parallel engine: K ShardQueues advanced in conservative-lookahead
// epochs by up to `threads` workers (shards are claimed dynamically, so any
// thread count yields the same execution).
class ShardedEngine final : public UnitEngine {
 public:
  struct Options {
    int shards = 1;
    // Worker threads; clamped to [1, shards]. 1 runs the identical epoch
    // loop inline (no pool), which is also the tsan-friendly baseline.
    int threads = 1;
    // Conservative lookahead L: the minimum cross-shard latency. Must be
    // >= 1ns; fabric::ShardPlan derives it from a USB hop + the RPC floor.
    Duration lookahead = Millis(5);
  };

  explicit ShardedEngine(Options options);
  ~ShardedEngine() override;

  int shards() const override {
    return static_cast<int>(queues_.size());
  }
  Duration lookahead() const override { return lookahead_; }
  Time now(int shard) const override { return queues_[shard]->now(); }
  void Schedule(int shard, Duration delay, EventFn fn) override;
  void Post(int from_shard, int to_shard, Duration delay,
            EventFn fn) override;
  void Run(std::uint64_t max_events) override;
  std::uint64_t events_processed() const override;

  // Engine-side statistics (not part of model reports — wall-clock-ish).
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t cross_posts() const { return cross_posts_; }
  int threads() const { return threads_; }

  // Invoked single-threaded at every epoch barrier, after the mailbox
  // flush and before any shard starts the epoch — the instant cross-shard
  // transfers (meta-lease grants and revokes included) become visible to
  // their destination heaps. Observation only: the oracle has no barriers,
  // so a hook that scheduled events or touched model state would break the
  // bit-exactness contract. `flushed` counts mails delivered by the flush.
  using BarrierHook =
      std::function<void(std::uint64_t epoch, Time bound, std::uint64_t flushed)>;
  void SetBarrierHook(BarrierHook hook) { barrier_hook_ = std::move(hook); }

  // Wall-clock measurements, never part of model reports: time shard k
  // spent firing events, and the residue it spent stalled at epoch
  // barriers waiting for slower shards (Run() wall minus its busy time).
  std::uint64_t busy_ns(int shard) const { return busy_ns_[shard]; }
  std::uint64_t barrier_wait_ns(int shard) const {
    return run_wall_ns_ > busy_ns_[shard] ? run_wall_ns_ - busy_ns_[shard]
                                          : 0;
  }
  std::uint64_t run_wall_ns() const { return run_wall_ns_; }

 private:
  struct Mail {
    Time at;
    EventFn fn;
  };
  struct Pool;  // worker pool; lives in sharded.cc

  // Moves every queued mail into its destination heap, in (destination,
  // source, FIFO) order — single-threaded, between epochs. Returns the
  // number of mails delivered.
  std::uint64_t FlushMailboxes();
  void RunEpochShards(Time bound, std::uint64_t max_events);
  void RunShardTimed(int shard, Time bound, std::uint64_t max_events);

  Duration lookahead_;
  int threads_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  // outbox_[source * shards + destination]: only `source` appends (during
  // its epoch), only the barrier drains.
  std::vector<std::vector<Mail>> outbox_;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_posts_ = 0;
  // busy_ns_[k] is written only by the worker that claimed shard k for the
  // current epoch; epochs are separated by the pool barrier, so writes to
  // one slot never race.
  std::vector<std::uint64_t> busy_ns_;
  std::uint64_t run_wall_ns_ = 0;
  BarrierHook barrier_hook_;
  std::unique_ptr<Pool> pool_;
};

}  // namespace ustore::sim
