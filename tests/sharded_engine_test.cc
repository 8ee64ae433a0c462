// sim::ShardQueue / sim::ShardedEngine unit tests: arena queue mechanics,
// epoch/lookahead semantics, mailbox flush ordering, and raw-engine
// determinism across shard and thread counts. The model-level bit-identity
// contract (reports, metric JSON, trace digests vs the single-queue
// oracle) lives in sharded_cluster_test.cc.
#include "sim/sharded.h"

#include <atomic>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ustore::sim {
namespace {

TEST(ShardQueueTest, FiresInTimeThenSeqOrder) {
  ShardQueue q;
  std::vector<int> order;
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(3); });  // ties break by schedule order
  q.ScheduleAt(30, [&] { order.push_back(4); });
  q.RunUntilBound(25, UINT64_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 20);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntilBound(31, UINT64_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.events_processed(), 4u);
}

TEST(ShardQueueTest, BoundIsExclusive) {
  ShardQueue q;
  int fired = 0;
  q.ScheduleAt(100, [&] { ++fired; });
  q.RunUntilBound(100, UINT64_MAX);  // events strictly before the bound
  EXPECT_EQ(fired, 0);
  q.RunUntilBound(101, UINT64_MAX);
  EXPECT_EQ(fired, 1);
}

TEST(ShardQueueTest, CancelRemovesPendingEvent) {
  ShardQueue q;
  int fired = 0;
  const EventId id = q.ScheduleAt(10, [&] { ++fired; });
  q.ScheduleAt(20, [&] { fired += 10; });
  q.Cancel(id);
  q.Cancel(id);  // double-cancel is a no-op
  q.RunUntilBound(100, UINT64_MAX);
  EXPECT_EQ(fired, 10);
  // A stale id must not cancel the slot's new tenant.
  const EventId id2 = q.ScheduleAt(30, [&] { fired += 100; });
  (void)id2;
  q.Cancel(id);
  q.RunUntilBound(100, UINT64_MAX);
  EXPECT_EQ(fired, 110);
}

TEST(ShardQueueTest, CallbackMayScheduleIntoSameEpoch) {
  ShardQueue q;
  std::vector<int> order;
  q.ScheduleAt(10, [&] {
    order.push_back(1);
    q.ScheduleAt(15, [&] { order.push_back(2); });
  });
  q.RunUntilBound(20, UINT64_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardQueueTest, ArenaSurvivesHeavyChurn) {
  // Enough live events to span many chunks, with interleaved cancels, so
  // slot reuse and chunk growth both happen under load.
  ShardQueue q;
  std::uint64_t fired = 0;
  std::vector<EventId> ids;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3000; ++i) {
      ids.push_back(q.ScheduleAt(round * 100 + i % 7, [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.Cancel(ids[i]);
    ids.clear();
    q.RunUntilBound(round * 100 + 50, UINT64_MAX);
  }
  q.RunUntilBound(INT64_MAX, UINT64_MAX);
  EXPECT_EQ(fired, 10u * 2000u);
}

TEST(ShardedEngineTest, LocalEventsRunAndClockAdvances) {
  ShardedEngine engine({.shards = 2, .threads = 1, .lookahead = Millis(1)});
  std::vector<std::string> log;
  engine.Schedule(0, Micros(10), [&] { log.push_back("a@0"); });
  engine.Schedule(1, Micros(5), [&] { log.push_back("b@1"); });
  engine.Run(UINT64_MAX);
  EXPECT_EQ(engine.events_processed(), 2u);
  EXPECT_EQ(engine.now(0), Micros(10));
  EXPECT_EQ(engine.now(1), Micros(5));
}

TEST(ShardedEngineTest, PostDeliversAtOddNanosecondAfterLookahead) {
  ShardedEngine engine({.shards = 2, .threads = 1, .lookahead = Micros(100)});
  Time delivered_at = -1;
  engine.Schedule(0, Micros(10), [&] {
    engine.Post(0, 1, 0, [&] { delivered_at = engine.now(1); });
  });
  engine.Run(UINT64_MAX);
  // now(0)=10us + lookahead 100us = 110000ns (even) -> rounded to 110001.
  EXPECT_EQ(delivered_at, Micros(110) + 1);
  EXPECT_EQ(engine.cross_posts(), 1u);
  EXPECT_GE(engine.epochs(), 2u);
}

TEST(ShardedEngineTest, DelaysBelowLookaheadAreClampedUp) {
  ShardedEngine engine({.shards = 2, .threads = 1, .lookahead = Micros(50)});
  Time delivered_at = -1;
  engine.Schedule(0, 0, [&] {
    engine.Post(0, 1, Micros(10), [&] { delivered_at = engine.now(1); });
  });
  engine.Run(UINT64_MAX);
  EXPECT_EQ(delivered_at, Micros(50) | 1);
}

TEST(ShardedEngineTest, PingPongAcrossShards) {
  ShardedEngine engine({.shards = 2, .threads = 1, .lookahead = Micros(10)});
  int hops = 0;
  std::function<void(int)> hop = [&](int at_shard) {
    if (++hops >= 20) return;
    engine.Post(at_shard, 1 - at_shard, 0,
                [&hop, at_shard] { hop(1 - at_shard); });
  };
  engine.Schedule(0, 0, [&] { hop(0); });
  engine.Run(UINT64_MAX);
  EXPECT_EQ(hops, 20);
  EXPECT_EQ(engine.cross_posts(), 19u);
  // 1 seed + 19 deliveries.
  EXPECT_EQ(engine.events_processed(), 20u);
}

TEST(ShardedEngineTest, SameSourceDeliveriesPreserveFifoOrder) {
  ShardedEngine engine({.shards = 2, .threads = 1, .lookahead = Micros(10)});
  std::vector<int> order;
  engine.Schedule(0, 0, [&] {
    // Same source, same delivery time: FIFO by post order.
    engine.Post(0, 1, 0, [&] { order.push_back(1); });
    engine.Post(0, 1, 0, [&] { order.push_back(2); });
    engine.Post(0, 1, 0, [&] { order.push_back(3); });
  });
  engine.Run(UINT64_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardedEngineTest, MaxEventsGuardStopsRunawayLoop) {
  ShardedEngine engine({.shards = 1, .threads = 1, .lookahead = Micros(1)});
  std::function<void()> forever = [&] { engine.Schedule(0, 1, forever); };
  engine.Schedule(0, 0, forever);
  engine.Run(1000);
  EXPECT_GE(engine.events_processed(), 1000u);
  EXPECT_LT(engine.events_processed(), 1100u);  // overshoot bounded by epoch
}

// The raw-engine determinism harness: a seeded random mesh of local
// events and cross-shard posts, where every handler appends to a
// per-shard log (per-shard state only — the commutativity contract).
// The concatenated per-shard logs must be identical at every thread
// count for a fixed shard count.
std::vector<std::string> RunMesh(int shards, int threads,
                                 std::uint64_t seed) {
  ShardedEngine engine(
      {.shards = shards, .threads = threads, .lookahead = Micros(20)});
  std::vector<std::string> logs(shards);
  std::vector<std::uint64_t> rngs(shards);
  for (int s = 0; s < shards; ++s) rngs[s] = seed + 0x9e3779b97f4a7c15ULL * s;
  auto next = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(int, int)> work = [&](int shard, int depth) {
    logs[shard] += std::to_string(engine.now(shard)) + ";";
    if (depth >= 6) return;
    const std::uint64_t r = next(rngs[shard]);
    if (r % 3 == 0) {
      const int to = static_cast<int>(r / 3 % shards);
      engine.Post(shard, to, static_cast<Duration>(r % 1000),
                  [&work, to, depth] { work(to, depth + 1); });
    } else {
      // Keep local times even so they cannot tie with odd deliveries.
      engine.Schedule(shard, static_cast<Duration>((r % 1000) * 2),
                      [&work, shard, depth] { work(shard, depth + 1); });
    }
  };
  for (int s = 0; s < shards; ++s) {
    engine.Schedule(s, Micros(s + 1), [&work, s] { work(s, 0); });
  }
  engine.Run(UINT64_MAX);
  return logs;
}

TEST(ShardedEngineTest, MeshIdenticalAcrossThreadCounts) {
  for (const int shards : {1, 2, 4, 8}) {
    const std::vector<std::string> baseline = RunMesh(shards, 1, 1234);
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(RunMesh(shards, threads, 1234), baseline)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

TEST(ShardedEngineTest, ThreadPoolActuallyRunsShardsOnWorkers) {
  ShardedEngine engine({.shards = 4, .threads = 4, .lookahead = Micros(10)});
  std::atomic<int> fired{0};
  for (int s = 0; s < 4; ++s) {
    engine.Schedule(s, Micros(1), [&] {
      fired.fetch_add(1, std::memory_order_relaxed);
    });
  }
  engine.Run(UINT64_MAX);
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(engine.threads(), 4);
}

}  // namespace
}  // namespace ustore::sim
