// big_unit: one ~100k-disk deploy unit as a ShardedCluster with the sharded
// Master, on the ShardedEngine (8 shards, min(4, nproc) threads). The
// population-dependent control work — the pump, Controller belief
// reconciliation, USB rescans, Master monitor ticks, the epoch barrier —
// dominates here, and bring-up takes seconds.
#include <memory>

#include "harness.h"
#include "profile.h"

namespace perfbench {

namespace {

using namespace ustore;

core::ShardedClusterOptions BigUnitOptions(const Config& config) {
  core::ShardedClusterOptions options = DrainProfile(
      config.seed, config.tiny ? 1024 : 100000, config.tiny ? 1.0 : 5.0);
  options.threads = WorkerThreads();
  return options;
}

sim::ShardedEngine::Options EngineOptions(const core::ShardedCluster& unit,
                                          int threads) {
  sim::ShardedEngine::Options options;
  options.shards = unit.plan().shards;
  options.threads = threads;
  options.lookahead = unit.plan().lookahead;
  return options;
}

}  // namespace

RepOutcome RunBigUnit(const Config& config, SpanLog& spans) {
  const core::ShardedClusterOptions options = BigUnitOptions(config);
  RepOutcome out;
  if (spans.enabled()) ProbeBringUp(options.cluster, spans, out.layers);

  const auto setup_start = Clock::now();
  std::unique_ptr<core::ShardedCluster> unit;
  {
    ScopedSpan span(spans, "sharded_cluster.build");
    unit = std::make_unique<core::ShardedCluster>(options);
  }
  out.setup_s = SecondsSince(setup_start);

  sim::ShardedEngine engine(EngineOptions(*unit, options.threads));
  const auto run_start = Clock::now();
  core::ShardedClusterReport report;
  {
    ScopedSpan span(spans, "sharded_cluster.run");
    report = unit->Run(engine);
  }
  out.run_wall_s = SecondsSince(run_start);
  out.sim_s = static_cast<double>(options.duration) / 1e9;

  ShardedTotals totals;
  totals.Add(report);
  out.ops = totals.ops;
  out.attempted = totals.ops + totals.rejected + totals.fallback_ops;
  out.failed = totals.rejected + totals.fallback_failed;
  out.digest = report.Digest();
  if (!report.master_index_ok) out.Fail("big_unit: master_index_ok false");
  if (totals.stale_rejects != 0) {
    out.Fail("big_unit: " + std::to_string(totals.stale_rejects) +
             " lease_stale_rejects");
  }

  if (spans.enabled()) {
    const double disks = DiskCount(options);
    totals.ToLayers(disks, out.run_wall_s * 1e9, out.layers);
    AddObsLayers(report.merged, out.layers);
    out.layers["master.failovers_completed"] =
        static_cast<double>(report.failovers);
    std::uint64_t busy = 0;
    std::uint64_t wait = 0;
    for (int k = 0; k < engine.shards(); ++k) {
      busy += engine.busy_ns(k);
      wait += engine.barrier_wait_ns(k);
    }
    out.layers["sim.epochs"] = static_cast<double>(engine.epochs());
    out.layers["sim.events_per_epoch"] =
        Ratio(static_cast<double>(report.events_processed),
              static_cast<double>(engine.epochs()));
    out.layers["sim.shard_busy_ns"] = static_cast<double>(busy);
    out.layers["sim.barrier_wait_ns"] = static_cast<double>(wait);
    out.layers["sim.barrier_per_busy"] =
        Ratio(static_cast<double>(wait), static_cast<double>(busy));
    out.layers["sim.cross_posts"] = static_cast<double>(engine.cross_posts());
  }
  return out;
}

std::string BigUnitOracleCheck(const Config& config) {
  Config tiny = config;
  tiny.tiny = true;
  const core::ShardedClusterOptions options = BigUnitOptions(tiny);
  const std::uint64_t sharded =
      core::RunShardedCluster(options, /*use_sharded=*/true).Digest();
  const std::uint64_t oracle =
      core::RunShardedCluster(options, /*use_sharded=*/false).Digest();
  return sharded == oracle ? "" : "big_unit: ShardedEngine digest differs "
                                  "from the SingleQueueEngine oracle";
}

}  // namespace perfbench
