// metrics_inspect: run a small end-to-end UStore scenario (cluster bring-up,
// allocate, mount, write, read, one batched submission) and pretty-print
// what the observability layer saw — the full metrics registry, p50/p95/p99
// of every I/O latency histogram, and a request-lifecycle trace timeline
// from the ClientLib down to the disk.
//
//   $ ./tools/metrics_inspect           # table + timeline
//   $ ./tools/metrics_inspect --json    # raw obs::DumpJson() / DumpTraceJson()
//
// --sharded instead runs a small real Cluster on the sharded event engine
// (DESIGN.md §13/§15), twice — central Master, then per-group meta leases —
// and prints the wall-clock occupancy registry each run exported via
// core::ExportShardedPerf: pump.busy_ns / pump.drain_ns / pump.cluster_ns,
// the per-shard shard.<k>.busy_ns / shard.<k>.barrier_wait_ns, and
// engine.epochs / engine.multi_shard_epochs (how many epochs had two or
// more shards ready), so the control-plane offload and the parallel work
// on offer are visible from the terminal.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/cluster_sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace ustore;

namespace {

void PrintRegistry(const obs::MetricsSnapshot& snapshot) {
  std::printf("\n== Counters (sim time %.6fs) ==\n",
              sim::ToSeconds(snapshot.at));
  for (const auto& [name, value] : snapshot.counters) {
    std::printf("  %-40s %12llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }

  std::printf("\n== Gauges ==\n");
  for (const auto& [name, gauge] : snapshot.gauges) {
    std::printf("  %-40s %12g  (set at %.6fs)\n", name.c_str(), gauge.value,
                sim::ToSeconds(gauge.at));
  }

  std::printf("\n== Histograms ==\n");
  std::printf("  %-40s %10s %12s %12s %12s %12s\n", "name", "count", "mean",
              "p50", "p95", "p99");
  // An empty histogram has no mean or quantiles (NaN, see
  // obs::Histogram::Quantile): render "-" rather than a bogus number.
  const auto cell = [](double v) -> std::string {
    if (std::isnan(v)) return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  };
  for (const auto& [name, histogram] : snapshot.histograms) {
    const double mean =
        histogram.count == 0 ? std::nan("") : histogram.sum / histogram.count;
    std::printf("  %-40s %10llu %12s %12s %12s %12s\n", name.c_str(),
                static_cast<unsigned long long>(histogram.count),
                cell(mean).c_str(), cell(histogram.p50).c_str(),
                cell(histogram.p95).c_str(), cell(histogram.p99).c_str());
  }
}

// --sharded: the wall-clock occupancy story. The numbers here are
// measurements (they vary run to run); the deterministic report scalars
// printed alongside them are the ones the determinism fuzz pins down.
int RunShardedInspect(bool json) {
  core::ShardedClusterOptions options;
  options.cluster.fabric.groups = 4;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group = 4;
  options.shards = 4;
  options.threads = 1;
  options.duration = sim::Seconds(2);
  options.burst_period = sim::Millis(5);
  options.sweep_width = 16;
  options.idle_timeout = sim::Millis(100);
  options.directive_every_ops = 2048;
  options.meta_lookups_per_burst = 1;

  for (int pass = 0; pass < 2; ++pass) {
    options.sharded_master = pass == 1;
    obs::MetricsRegistry perf;
    const core::ShardedClusterReport report =
        core::RunShardedCluster(options, /*use_sharded=*/true, &perf);
    std::uint64_t local_decisions = 0;
    for (const core::ShardedClusterGroupReport& group : report.per_group) {
      local_decisions += group.local_decisions;
    }
    if (json) {
      std::string out = options.sharded_master
                            ? "{\"mode\": \"sharded_master\", \"perf\": "
                            : "{\"mode\": \"central_master\", \"perf\": ";
      core::AppendSnapshotJson(&out, perf.Snapshot());
      out += "}";
      std::printf("%s\n", out.c_str());
      continue;
    }
    std::printf("\n==== real Cluster on the sharded engine: %s ====\n",
                options.sharded_master
                    ? "sharded Master (per-group meta leases)"
                    : "central Master");
    std::printf("  pumps %llu, master directives %llu, local decisions "
                "%llu, central meta lookups %llu, lease grants %llu\n",
                static_cast<unsigned long long>(report.pumps),
                static_cast<unsigned long long>(report.master_directives),
                static_cast<unsigned long long>(local_decisions),
                static_cast<unsigned long long>(report.central_meta_lookups),
                static_cast<unsigned long long>(report.lease_grants));
    PrintRegistry(perf.Snapshot());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool sharded = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else {
      std::fprintf(stderr, "usage: metrics_inspect [--json] [--sharded]\n");
      return 2;
    }
  }
  if (sharded) return RunShardedInspect(json);

  core::Cluster cluster;
  cluster.Start();

  auto client = cluster.MakeClient("inspect-client");
  core::ClientLib::Volume* volume = nullptr;
  client->AllocateAndMount("inspect-svc", GiB(100),
                           [&](Result<core::ClientLib::Volume*> result) {
                             if (result.ok()) volume = *result;
                           });
  cluster.RunFor(sim::Seconds(10));
  if (volume == nullptr) {
    std::fprintf(stderr, "allocation failed\n");
    return 1;
  }

  // Focus the timeline on one request lifecycle: drop the bring-up spans,
  // then drive a write + verified read through the full stack
  // (ClientLib -> RPC -> iSCSI target on the EndPoint -> Disk).
  obs::Tracer().Clear();
  bool ok = false;
  volume->Write(0, MiB(4), /*random=*/false, /*tag=*/0xC0FFEE,
                [&](Status status) {
                  if (!status.ok()) return;
                  volume->Read(0, MiB(4), false,
                               [&](Result<std::uint64_t> tag) {
                                 ok = tag.ok() && *tag == 0xC0FFEE;
                               });
                });
  cluster.RunFor(sim::Seconds(5));
  if (!ok) {
    std::fprintf(stderr, "write+read round trip failed\n");
    return 1;
  }

  // One batched submission down the data-plane fast path (DESIGN.md §9):
  // four tagged sequential writes plus four reads of the same extents in
  // one command PDU, verified via the fingerprint round trip.
  using IoOp = core::ClientLib::Volume::IoOp;
  using IoOpResult = core::ClientLib::Volume::IoOpResult;
  std::vector<IoOp> ops(8);
  for (int i = 0; i < 4; ++i) {
    ops[i] = IoOp{.offset = MiB(4) * (i + 1), .length = MiB(4),
                  .is_read = false, .random = false,
                  .tag = 0xBA7C0 + static_cast<std::uint64_t>(i)};
    ops[i + 4] = IoOp{.offset = MiB(4) * (i + 1), .length = MiB(4),
                      .is_read = true, .random = false, .tag = 0};
  }
  bool batch_ok = false;
  volume->SubmitBatch(ops, [&](Status status,
                               std::span<const IoOpResult> results) {
    if (!status.ok() || results.size() != 8) return;
    batch_ok = true;
    for (int i = 0; i < 4; ++i) {
      batch_ok = batch_ok && results[i].code == StatusCode::kOk &&
                 results[i + 4].code == StatusCode::kOk &&
                 results[i + 4].tag == 0xBA7C0 + static_cast<std::uint64_t>(i);
    }
  });
  cluster.RunFor(sim::Seconds(5));
  if (!batch_ok) {
    std::fprintf(stderr, "batched round trip failed\n");
    return 1;
  }

  if (json) {
    std::printf("%s\n", obs::DumpJson().c_str());
    std::printf("%s\n", obs::DumpTraceJson(obs::Tracer()).c_str());
    return 0;
  }

  PrintRegistry(obs::Metrics().Snapshot());
  std::printf("\n== Trace timeline (write + read + one 8-op batch) ==\n%s",
              obs::FormatTimeline(obs::Tracer()).c_str());
  return 0;
}
