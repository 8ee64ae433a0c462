#include "core/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/hash.h"
#include "obs/trace.h"

namespace ustore::core {

std::uint64_t FleetUnitSeed(std::uint64_t fleet_seed, int unit_id) {
  return SplitMix64(SplitMix64(fleet_seed) ^
                    SplitMix64(static_cast<std::uint64_t>(unit_id) + 1));
}

ShardedFleetReport RunShardedFleet(const ShardedFleetOptions& options) {
  const auto wall_start = std::chrono::steady_clock::now();
  const int units = options.units;
  ShardedFleetReport report;
  report.units.resize(static_cast<std::size_t>(units));
  report.unit_seeds.resize(static_cast<std::size_t>(units));

  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min(threads, std::max(units, 1));

  // Work-stealing by atomic index: each outer worker owns one unit at a
  // time and writes only its own slot, so the merged result is independent
  // of which worker ran which unit. The ShardedCluster binds its own
  // registries internally; the scratch binding here only catches stray
  // instrumentation from construction/teardown so it never lands in
  // another unit's (or the caller's) registry.
  std::atomic<int> next{0};
  auto run_unit = [&](int unit_id) {
    obs::MetricsRegistry scratch_metrics;
    obs::TraceBuffer scratch_trace;
    obs::ScopedObsBinding binding(&scratch_metrics, &scratch_trace);
    ShardedClusterOptions unit_options = options.unit;
    unit_options.cluster.unit_id = unit_id;
    unit_options.cluster.seed = FleetUnitSeed(options.seed, unit_id);
    report.unit_seeds[static_cast<std::size_t>(unit_id)] =
        unit_options.cluster.seed;
    report.units[static_cast<std::size_t>(unit_id)] =
        RunShardedCluster(unit_options, options.use_sharded_engine);
  };
  auto worker = [&] {
    for (int unit = next.fetch_add(1); unit < units;
         unit = next.fetch_add(1)) {
      run_unit(unit);
    }
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // The units' snapshots move through the merge and back, uncopied.
  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(report.units.size());
  for (ShardedClusterReport& unit : report.units) {
    report.total_events += unit.events_processed;
    parts.push_back(std::move(unit.merged));
  }
  report.merged = obs::MergeSnapshots(parts);
  for (std::size_t u = 0; u < parts.size(); ++u) {
    report.units[u].merged = std::move(parts[u]);
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

std::string ShardedFleetReport::ToJson() const {
  std::string out;
  out.reserve(16384);
  out.append("{\"units\":[");
  for (std::size_t u = 0; u < units.size(); ++u) {
    if (u > 0) out.push_back(',');
    out.append("{\"unit\":" + std::to_string(u));
    out.append(",\"seed\":" +
               std::to_string(u < unit_seeds.size() ? unit_seeds[u] : 0));
    // ShardedClusterReport::ToJson is already canonical deterministic JSON
    // — embedded raw in unit order.
    out.append(",\"report\":");
    out.append(units[u].ToJson());
    out.push_back('}');
  }
  out.append("],\"total_events\":" + std::to_string(total_events));
  out.append(",\"merged\":");
  AppendSnapshotJson(&out, merged);
  out.append("}");
  return out;
}

std::uint64_t ShardedFleetReport::Digest() const { return Fnv1a(ToJson()); }

}  // namespace ustore::core
