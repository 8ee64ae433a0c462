// Deployment shapes shared by the ShardedCluster workloads (big_unit, fleet)
// and the helpers that turn their reports into per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>

#include "core/cluster_sharded.h"
#include "harness.h"
#include "obs/metrics.h"

namespace perfbench {

// min(4, nproc): the engine/outer thread count every parallel workload uses.
inline int WorkerThreads() {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hardware, 1, 4);
}

// min(2, nproc): fleet's outer thread count. Two workers still exercise the
// outer pool's work stealing, but leave the rest of a shared 4-core host
// free, so the run measures the fleet rather than the host's scheduler.
inline int FleetThreads() { return std::min(WorkerThreads(), 2); }

// One prototype deploy unit scaled by repeating the leaf-hub tier: 8 hosts
// with 4 disks per leaf hub, run with the steady-state drain profile — 5 ms
// bursts of 32 x 512 KiB, sweep width 256, idle spin-down at 100 ms, one
// meta lookup per burst and a directive every 64 x disks ops. The
// workload's bursts are generated inside the program from
// options.cluster.seed.
inline ustore::core::ShardedClusterOptions DrainProfile(std::uint64_t seed,
                                                        int disks,
                                                        double sim_seconds) {
  ustore::core::ShardedClusterOptions options;
  options.cluster.seed = seed;
  options.cluster.fabric.groups = 8;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group = std::max(1, disks / (8 * 4));
  options.shards = 8;
  options.duration = static_cast<ustore::sim::Duration>(sim_seconds * 1e9);
  options.burst_period = ustore::sim::Millis(5);
  options.burst_ops = 32;
  options.request_size = ustore::KiB(512);
  options.sweep_width = 256;
  options.idle_timeout = ustore::sim::Millis(100);
  options.directive_every_ops = static_cast<std::uint64_t>(disks) * 64;
  options.sharded_master = true;
  options.meta_lookups_per_burst = 1;
  return options;
}

inline int DiskCount(const ustore::core::ShardedClusterOptions& options) {
  const auto& fabric = options.cluster.fabric;
  return fabric.groups * fabric.disks_per_leaf * fabric.leaf_hubs_per_group;
}

// Counters and histogram medians the program's obs registries already keep,
// copied under the per-layer names (LayerMetrics()).
void AddObsLayers(const ustore::obs::MetricsSnapshot& snapshot,
                  std::map<std::string, double>& layers);

// Splits bring-up into Cluster construction and Start() on a plain
// core::Cluster of the given shape (ShardedCluster does both in its
// constructor), filling cluster.build_s, cluster.start_s and fabric.nodes.
// Traced runs only: it is a second bring-up.
void ProbeBringUp(const ustore::core::ClusterOptions& options, SpanLog& spans,
                  std::map<std::string, double>& layers);

// Totals over one ShardedCluster report: data-plane ops, failures and the
// lease/SoA counters. Summed across units for the fleet.
struct ShardedTotals {
  std::uint64_t ops = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fallback_ops = 0;
  std::uint64_t fallback_failed = 0;
  std::uint64_t range_bursts = 0;
  std::uint64_t mixed_bursts = 0;
  std::uint64_t local_decisions = 0;
  std::uint64_t stale_rejects = 0;
  std::uint64_t central_decisions = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_revokes = 0;
  std::uint64_t pump_busy_ns = 0;
  std::uint64_t pump_drain_ns = 0;
  std::uint64_t pump_cluster_ns = 0;
  std::uint64_t events = 0;

  void Add(const ustore::core::ShardedClusterReport& report);
  // Writes the pump/master/soa per-layer metrics; `disks` and `run_wall_ns`
  // (the wall time of every thread that can run a pump) normalise
  // pump.busy_ns_per_disk and pump.serial_frac.
  void ToLayers(double disks, double run_wall_ns,
                std::map<std::string, double>& layers) const;
};

}  // namespace perfbench
