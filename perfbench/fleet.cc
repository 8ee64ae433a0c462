// fleet: RunShardedFleet over 16 units of ~1.5k disks, min(2, nproc) outer
// threads and one inner thread each, sharded Master on, light chaos (disk
// fault toggles and host crashes). The only workload where the outer worker
// pool pays today, and the one that drives the lease revoke/re-grant and
// SoA -> hw::Disk fallback paths.
#include <algorithm>
#include <memory>

#include "core/fleet.h"
#include "harness.h"
#include "profile.h"

namespace perfbench {

namespace {

using namespace ustore;

core::ShardedFleetOptions FleetOptions(const Config& config) {
  core::ShardedFleetOptions options;
  options.units = config.tiny ? 4 : 16;
  options.threads = FleetThreads();
  options.seed = config.seed;
  options.use_sharded_engine = true;
  options.unit = DrainProfile(config.seed, config.tiny ? 256 : 1536,
                              config.tiny ? 1.0 : 5.0);
  options.unit.threads = 1;
  options.unit.fault_probability = 0.01;
  options.unit.host_crash_probability = 0.002;
  options.unit.host_crash_downtime = sim::Millis(300);
  return options;
}

}  // namespace

RepOutcome RunFleet(const Config& config, SpanLog& spans) {
  const core::ShardedFleetOptions options = FleetOptions(config);
  RepOutcome out;

  // RunShardedFleet builds every unit inside its workers, so set-up is
  // timed here on the first few units' ShardedClusters (Cluster build +
  // Start() + handoff), the bring-up each unit pays: their mean.
  const int setup_units = std::min(options.units, 4);
  double setup_total = 0;
  for (int u = 0; u < setup_units; ++u) {
    core::ShardedClusterOptions unit_options = options.unit;
    unit_options.cluster.unit_id = u;
    unit_options.cluster.seed = core::FleetUnitSeed(options.seed, u);
    obs::MetricsRegistry metrics;
    obs::TraceBuffer trace;
    obs::ScopedObsBinding bind(&metrics, &trace);
    std::unique_ptr<core::ShardedCluster> unit;
    const auto setup_start = Clock::now();
    {
      ScopedSpan span(spans, "sharded_cluster.build");
      unit = std::make_unique<core::ShardedCluster>(unit_options);
    }
    setup_total += SecondsSince(setup_start);
  }
  out.setup_s = setup_total / setup_units;

  const auto run_start = Clock::now();
  core::ShardedFleetReport report;
  {
    ScopedSpan span(spans, "fleet.run");
    report = core::RunShardedFleet(options);
  }
  out.run_wall_s = SecondsSince(run_start);
  out.sim_s = options.units * static_cast<double>(options.unit.duration) / 1e9;

  ShardedTotals totals;
  for (std::size_t u = 0; u < report.units.size(); ++u) {
    const core::ShardedClusterReport& unit = report.units[u];
    totals.Add(unit);
    if (!unit.master_index_ok) {
      out.Fail("fleet: unit " + std::to_string(u) + " master_index_ok false");
    }
  }
  out.ops = totals.ops;
  out.attempted = totals.ops + totals.rejected + totals.fallback_ops;
  // Every rejected op landed on a disk an injected fault had failed (the
  // fleet's only source of rejections); fallback ops that failed did too.
  out.known_failures = totals.rejected + totals.fallback_failed;
  out.digest = report.Digest();
  if (totals.stale_rejects != 0) {
    out.Fail("fleet: " + std::to_string(totals.stale_rejects) +
             " lease_stale_rejects");
  }

  if (spans.enabled()) {
    core::ClusterOptions unit0 = options.unit.cluster;
    unit0.seed = core::FleetUnitSeed(options.seed, 0);
    ProbeBringUp(unit0, spans, out.layers);
    const double disks =
        static_cast<double>(options.units) * DiskCount(options.unit);
    // The pumps of all units share the outer workers' time.
    totals.ToLayers(disks, out.run_wall_s * 1e9 * options.threads,
                    out.layers);
    AddObsLayers(report.merged, out.layers);
    std::uint64_t failovers = 0;
    for (const core::ShardedClusterReport& unit : report.units) {
      failovers += unit.failovers;
    }
    out.layers["master.failovers_completed"] =
        static_cast<double>(failovers);

    // The same fleet on one outer thread: the pool's speed-up, and a
    // determinism check across thread counts.
    core::ShardedFleetOptions serial = options;
    serial.threads = 1;
    const auto serial_start = Clock::now();
    core::ShardedFleetReport serial_report;
    {
      ScopedSpan span(spans, "fleet.run_serial");
      serial_report = core::RunShardedFleet(serial);
    }
    out.layers["fleet.speedup_vs_1"] =
        Ratio(SecondsSince(serial_start), out.run_wall_s);
    if (serial_report.Digest() != out.digest) {
      out.Fail("fleet: report digest differs between 1 and " +
               std::to_string(options.threads) + " outer threads");
    }
  }
  return out;
}

std::string FleetOracleCheck(const Config& config) {
  Config tiny = config;
  tiny.tiny = true;
  core::ShardedFleetOptions options = FleetOptions(tiny);
  const std::uint64_t sharded = core::RunShardedFleet(options).Digest();
  options.threads = 1;
  options.use_sharded_engine = false;
  const std::uint64_t oracle = core::RunShardedFleet(options).Digest();
  return sharded == oracle ? "" : "fleet: ShardedEngine digest differs from "
                                  "the SingleQueueEngine oracle";
}

}  // namespace perfbench
