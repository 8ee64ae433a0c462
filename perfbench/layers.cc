#include <memory>
#include <string>

#include "harness.h"
#include "profile.h"

namespace perfbench {

void AddObsLayers(const ustore::obs::MetricsSnapshot& snapshot,
                  std::map<std::string, double>& layers) {
  auto counter = [&](const char* name) -> double {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0
                                         : static_cast<double>(it->second);
  };
  auto histogram = [&](const char* name)
      -> const ustore::obs::MetricsSnapshot::HistogramState* {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? nullptr : &it->second;
  };
  auto p50 = [&](const char* name) {
    const auto* h = histogram(name);
    return h == nullptr ? 0.0 : h->p50;
  };
  auto mean = [&](const char* name) {
    const auto* h = histogram(name);
    return h == nullptr || h->count == 0
               ? 0.0
               : h->sum / static_cast<double>(h->count);
  };

  for (const char* name :
       {"client.master_retries", "rpc.calls", "rpc.timeouts",
        "iscsi.target.batches", "disk.op.count", "disk.spin_up.count",
        "disk.op.rejected", "fabric.maxmin.rounds", "paxos.slots_chosen",
        "paxos.accept_rounds", "paxos.elections", "meta_client.retries",
        "master.failovers_completed"}) {
    layers[name] = counter(name);
  }
  for (const char* phase : {"queue_wait", "spin_up", "fabric_transfer",
                            "disk_service", "rpc", "retry_backoff"}) {
    const std::string name =
        std::string("client.batch.phase.") + phase + "_us";
    layers[name] = p50(name.c_str());
  }
  layers["client.io.batch_size"] = mean("client.io.batch_size");
  layers["rpc.latency_p50_us"] = p50("rpc.latency_us");
  layers["disk.batch.size"] = mean("disk.batch.size");
  layers["disk.op.service_time_p50_us"] = p50("disk.op.service_time_us");
}

void ProbeBringUp(const ustore::core::ClusterOptions& options, SpanLog& spans,
                  std::map<std::string, double>& layers) {
  using namespace ustore;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ScopedObsBinding bind(&metrics, &trace);
  const auto build_start = Clock::now();
  std::unique_ptr<core::Cluster> cluster;
  {
    ScopedSpan span(spans, "cluster.build");
    cluster = std::make_unique<core::Cluster>(options);
  }
  const auto start_begin = Clock::now();
  {
    ScopedSpan span(spans, "cluster.start");
    cluster->Start();
  }
  layers["cluster.build_s"] =
      std::chrono::duration<double>(start_begin - build_start).count();
  layers["cluster.start_s"] = SecondsSince(start_begin);
  layers["fabric.nodes"] = cluster->fabric().topology().size();
}

void ShardedTotals::Add(const ustore::core::ShardedClusterReport& report) {
  for (const ustore::core::ShardedClusterGroupReport& group :
       report.per_group) {
    ops += group.ops;
    fallback_ops += group.fallback_ops;
    range_bursts += group.range_bursts;
    mixed_bursts += group.mixed_bursts;
    local_decisions += group.local_decisions;
    stale_rejects += group.lease_stale_rejects;
  }
  auto counter = [&](const char* name) -> std::uint64_t {
    auto it = report.merged.counters.find(name);
    return it == report.merged.counters.end() ? 0 : it->second;
  };
  rejected += counter("cluster.unit.io.rejected");
  fallback_failed += counter("cluster.unit.fallback.completions") -
                     counter("cluster.unit.fallback.ok");
  central_decisions += report.central_meta_lookups + report.lease_grants;
  lease_grants += report.lease_grants;
  lease_revokes += report.lease_revokes;
  pump_busy_ns += report.pump_busy_wall_ns;
  pump_drain_ns += report.pump_drain_wall_ns;
  pump_cluster_ns += report.pump_cluster_wall_ns;
  events += report.events_processed;
}

void ShardedTotals::ToLayers(double disks, double run_wall_ns,
                             std::map<std::string, double>& layers) const {
  layers["pump.busy_ns"] = static_cast<double>(pump_busy_ns);
  layers["pump.drain_ns"] = static_cast<double>(pump_drain_ns);
  layers["pump.cluster_ns"] = static_cast<double>(pump_cluster_ns);
  layers["pump.busy_ns_per_disk"] =
      Ratio(static_cast<double>(pump_busy_ns), disks);
  layers["pump.serial_frac"] =
      Ratio(static_cast<double>(pump_busy_ns), run_wall_ns);
  layers["master.central_decisions"] = static_cast<double>(central_decisions);
  layers["master_shard.local_decisions"] =
      static_cast<double>(local_decisions);
  layers["master.lease_grants"] = static_cast<double>(lease_grants);
  layers["master.lease_revokes"] = static_cast<double>(lease_revokes);
  layers["soa.range_bursts"] = static_cast<double>(range_bursts);
  layers["soa.mixed_bursts"] = static_cast<double>(mixed_bursts);
  layers["soa.fallback_frac"] = Ratio(static_cast<double>(fallback_ops),
                                      static_cast<double>(ops));
  layers["sim.events"] = static_cast<double>(events);
  layers["sim.wall_ns_per_event"] =
      Ratio(run_wall_ns, static_cast<double>(events));
}

}  // namespace perfbench
