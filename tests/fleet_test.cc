// core::RunShardedFleet determinism and per-thread observability scoping.
//
// The fleet contract (DESIGN.md §14): every deploy unit is a
// ShardedCluster, and the merged report is a pure function of (fleet seed,
// options) — neither the outer thread count nor the units' inner shard and
// thread counts may leak into any reported value. These tests run the same
// fleet on the single-queue oracle and across that matrix and require
// bit-identical merged JSON, check that each unit reports the same alone
// as in a fleet without touching the process-wide registry, and
// separately pin the ScopedObsBinding mechanics the fleet relies on for
// isolation.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "core/fleet.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::core {
namespace {

TEST(FleetUnitSeedTest, DistinctAndStable) {
  std::set<std::uint64_t> seeds;
  for (int unit = 0; unit < 128; ++unit) {
    seeds.insert(FleetUnitSeed(42, unit));
  }
  EXPECT_EQ(seeds.size(), 128u) << "unit seeds collided";
  EXPECT_EQ(FleetUnitSeed(42, 0), FleetUnitSeed(42, 0));
  EXPECT_NE(FleetUnitSeed(42, 0), FleetUnitSeed(43, 0));
}

// A 3-unit fleet of small prototype units, with chaos on.
ShardedFleetOptions SmallShardedFleet(bool sharded_master) {
  ShardedFleetOptions options;
  options.units = 3;
  options.seed = 2027;
  options.unit.cluster.fabric.leaf_hubs_per_group = 2;
  options.unit.duration = sim::Millis(800);
  options.unit.burst_period = sim::Millis(50);
  options.unit.burst_ops = 8;
  options.unit.sweep_width = 4;
  options.unit.idle_timeout = sim::Millis(50);
  options.unit.directive_every_ops = 512;
  options.unit.fault_probability = 0.05;
  options.unit.sharded_master = sharded_master;
  if (sharded_master) {
    options.unit.meta_lookups_per_burst = 1;
    options.unit.host_crash_probability = 0.02;
  }
  return options;
}

TEST(ShardedFleetTest, BitIdenticalAcrossEnginesThreadsAndShards) {
  for (const bool sharded_master : {false, true}) {
    // The oracle fleet: serial outer pool, single-queue inner engines.
    ShardedFleetOptions oracle_options = SmallShardedFleet(sharded_master);
    oracle_options.threads = 1;
    oracle_options.use_sharded_engine = false;
    const ShardedFleetReport oracle = RunShardedFleet(oracle_options);
    const std::string oracle_json = oracle.ToJson();
    ASSERT_EQ(oracle.units.size(), 3u);
    EXPECT_GT(oracle.total_events, 0u);

    for (const int outer_threads : {1, 4}) {
      for (const int inner_shards : {1, 4}) {
        ShardedFleetOptions run = SmallShardedFleet(sharded_master);
        run.threads = outer_threads;
        run.use_sharded_engine = true;
        run.unit.shards = inner_shards;
        run.unit.threads = inner_shards > 1 ? 2 : 1;
        const ShardedFleetReport fleet = RunShardedFleet(run);
        EXPECT_EQ(fleet.ToJson(), oracle_json)
            << "sharded_master=" << sharded_master
            << " outer_threads=" << outer_threads
            << " inner_shards=" << inner_shards;
        EXPECT_EQ(fleet.Digest(), oracle.Digest());
      }
    }
  }
}

// A pinned digest: a 4-unit fleet with the sharded Master and chaos. The
// test above compares runners with each other; this one fixes the merged
// report itself.
TEST(ShardedFleetTest, FourUnitDigestIsPinned) {
  ShardedFleetOptions options = SmallShardedFleet(/*sharded_master=*/true);
  options.units = 4;
  const ShardedFleetReport fleet = RunShardedFleet(options);
  ASSERT_EQ(fleet.units.size(), 4u);
  EXPECT_EQ(fleet.total_events, 1028u);
  EXPECT_EQ(fleet.Digest(), 0x968345912466396eULL);
}

TEST(ShardedFleetTest, UnitsAreIndependentAndMergedInOrder) {
  ShardedFleetOptions options = SmallShardedFleet(true);
  options.threads = 2;
  options.unit.shards = 2;
  options.unit.threads = 2;

  // Nothing the units record lands in the process-wide registry or tracer.
  obs::Metrics().Clear();
  const std::size_t trace_before = obs::Tracer().completed_count();
  const ShardedFleetReport report = RunShardedFleet(options);
  ASSERT_EQ(report.units.size(), 3u);
  const obs::MetricsSnapshot global = obs::Metrics().Snapshot();
  EXPECT_TRUE(global.counters.empty());
  EXPECT_TRUE(global.gauges.empty());
  EXPECT_TRUE(global.histograms.empty());
  EXPECT_EQ(obs::Tracer().completed_count(), trace_before);
  ASSERT_EQ(report.unit_seeds.size(), 3u);

  // Derived seeds are the fleet contract ones, and distinct.
  std::set<std::uint64_t> seeds;
  for (int unit = 0; unit < 3; ++unit) {
    EXPECT_EQ(report.unit_seeds[static_cast<std::size_t>(unit)],
              FleetUnitSeed(options.seed, unit));
    seeds.insert(report.unit_seeds[static_cast<std::size_t>(unit)]);
    const ShardedClusterReport& cluster =
        report.units[static_cast<std::size_t>(unit)];
    EXPECT_EQ(cluster.seed, FleetUnitSeed(options.seed, unit));
    EXPECT_GT(cluster.events_processed, 0u);
    EXPECT_GT(cluster.lease_grants, 0u);  // sharded master engaged per unit
    EXPECT_TRUE(cluster.master_index_ok);
  }
  EXPECT_EQ(seeds.size(), 3u);

  // The fleet merge is the unit-order MergeSnapshots of the units' own
  // merged snapshots: totals add up.
  std::uint64_t calls = 0;
  for (const ShardedClusterReport& cluster : report.units) {
    const std::uint64_t unit_calls = cluster.merged.counters.at("rpc.calls");
    EXPECT_GT(unit_calls, 0u);
    calls += unit_calls;
  }
  EXPECT_EQ(report.merged.counters.at("rpc.calls"), calls);

  // Units share nothing: each reports exactly what it reports run alone.
  for (int unit = 0; unit < 3; ++unit) {
    ShardedClusterOptions alone = options.unit;
    alone.cluster.unit_id = unit;
    alone.cluster.seed = FleetUnitSeed(options.seed, unit);
    EXPECT_EQ(RunShardedCluster(alone, true).ToJson(),
              report.units[static_cast<std::size_t>(unit)].ToJson())
        << "unit " << unit;
  }
}

TEST(ScopedObsBindingTest, RedirectsAndRestoresPerThread) {
  obs::Metrics().Clear();
  obs::CounterHandle handle("binding.test");
  handle.Increment();  // lands in the global registry
  {
    obs::MetricsRegistry local;
    obs::TraceBuffer local_trace;
    obs::ScopedObsBinding binding(&local, &local_trace);
    // Cached handles re-resolve against the thread-current registry.
    handle.Increment();
    handle.Increment();
    EXPECT_EQ(local.GetCounter("binding.test").value(), 2u);
    EXPECT_EQ(&obs::Tracer(), &local_trace);
    obs::Tracer().Emit("test", "span", 0, 1, {});
    EXPECT_EQ(local_trace.completed_count(), 1u);
  }
  // Restored: the global registry is untouched by the bound increments.
  handle.Increment();
  EXPECT_EQ(obs::Metrics().GetCounter("binding.test").value(), 2u);
}

TEST(ScopedObsBindingTest, ThreadsDoNotShareBindings) {
  obs::MetricsRegistry main_local;
  obs::TraceBuffer main_trace;
  obs::ScopedObsBinding binding(&main_local, &main_trace);
  obs::Metrics().Increment("shared.name");

  obs::MetricsRegistry* seen_on_thread = nullptr;
  std::thread worker([&] {
    // A fresh thread has no binding: it sees the process-wide default,
    // not this test's thread-local registry.
    seen_on_thread = &obs::Metrics();
  });
  worker.join();
  EXPECT_NE(seen_on_thread, &main_local);
  EXPECT_EQ(main_local.GetCounter("shared.name").value(), 1u);
}

}  // namespace
}  // namespace ustore::core
