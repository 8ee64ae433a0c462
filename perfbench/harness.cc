#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t SpanLog::Begin(std::string_view name) {
  if (!enabled_) return 0;
  Span span;
  span.name = std::string(name);
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.trace_id = trace_id_;
  span.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::End(std::uint64_t id) {
  if (id == 0) return;
  // ScopedSpan closes spans in LIFO order: `id` is the innermost open span.
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, std::uint64_t> SpanLog::SelfNs(
    std::uint64_t trace_id) const {
  // Children are recorded after their parent and nest strictly (single
  // thread, LIFO), so a parent's covered time is the sum of its direct
  // children's durations.
  std::vector<std::int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& span : spans_) {
    if (span.trace_id != trace_id || span.parent == 0) continue;
    child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, std::uint64_t> self;
  for (const Span& span : spans_) {
    if (span.trace_id != trace_id) continue;
    const std::int64_t own =
        span.end_ns - span.start_ns - child_ns[span.id];
    self[span.name] += static_cast<std::uint64_t>(std::max<std::int64_t>(
        own, 0));
  }
  return self;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"trace_id\": " << s.trace_id
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t count =
      rank < 1 ? 1 : std::min(values.size(), static_cast<std::size_t>(rank));
  return values[count - 1];
}

double HighPercentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 0;
}

std::uint64_t Fnv1a(std::string_view text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Written by ReferenceMs() so the sorts cannot be optimised away.
std::uint32_t reference_sink = 0;

double ReferenceMs(int threads) {
  static const std::vector<std::uint32_t> base = [] {
    std::vector<std::uint32_t> values(std::size_t{1} << 15);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& value : values) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      value = static_cast<std::uint32_t>(x >> 32);
    }
    return values;
  }();
  std::vector<std::uint32_t> medians(static_cast<std::size_t>(threads), 0);
  auto job = [&medians](std::size_t slot) {
    for (int round = 0; round < 2; ++round) {
      std::vector<std::uint32_t> values = base;
      std::sort(values.begin(), values.end());
      medians[slot] += values[values.size() / 2];
    }
  };
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back(job, static_cast<std::size_t>(t));
  }
  job(0);
  for (std::thread& thread : pool) thread.join();
  const double ms = SecondsSince(start) * 1e3;
  for (const std::uint32_t median : medians) reference_sink += median;
  return ms;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      // sim: the event engines.
      {"sim.events", "count"},
      {"sim.wall_ns_per_event", "ns"},
      {"sim.epochs", "count"},
      {"sim.events_per_epoch", "count"},
      {"sim.shard_busy_ns", "ns"},
      {"sim.barrier_wait_ns", "ns"},
      {"sim.barrier_per_busy", "ratio"},
      {"sim.cross_posts", "count"},
      // core/ShardedCluster control pump.
      {"pump.busy_ns", "ns"},
      {"pump.drain_ns", "ns"},
      {"pump.cluster_ns", "ns"},
      {"pump.busy_ns_per_disk", "ns"},
      {"pump.serial_frac", "ratio"},
      // core bring-up.
      {"cluster.build_s", "s"},
      {"cluster.start_s", "s"},
      // core/master + master_shard.
      {"master.central_decisions", "count"},
      {"master_shard.local_decisions", "count"},
      {"master.lease_grants", "count"},
      {"master.lease_revokes", "count"},
      {"master.failovers_completed", "count"},
      // core/clientlib (SubmitBatch records its phases under client.batch).
      {"client.batch.phase.queue_wait_us", "us"},
      {"client.batch.phase.spin_up_us", "us"},
      {"client.batch.phase.fabric_transfer_us", "us"},
      {"client.batch.phase.disk_service_us", "us"},
      {"client.batch.phase.rpc_us", "us"},
      {"client.batch.phase.retry_backoff_us", "us"},
      {"client.io.batch_size", "ops"},
      {"client.master_retries", "count"},
      // net / iscsi.
      {"rpc.calls", "count"},
      {"rpc.latency_p50_us", "us"},
      {"rpc.timeouts", "count"},
      {"iscsi.target.batches", "count"},
      // hw.
      {"disk.op.count", "count"},
      {"disk.batch.size", "ops"},
      {"disk.op.service_time_p50_us", "us"},
      {"disk.spin_up.count", "count"},
      {"disk.op.rejected", "count"},
      {"soa.range_bursts", "count"},
      {"soa.mixed_bursts", "count"},
      {"soa.fallback_frac", "ratio"},
      // fabric.
      {"fabric.nodes", "count"},
      {"fabric.maxmin.rounds", "count"},
      // consensus.
      {"paxos.slots_chosen", "count"},
      {"paxos.slots_per_stripe", "ratio"},
      {"paxos.accept_rounds", "count"},
      {"paxos.elections", "count"},
      {"meta_client.retries", "count"},
      // services: rebuild / redundancy.
      {"rebuild.chunk_reads", "count"},
      {"rebuild.read_failovers", "count"},
      {"rebuild.admission_stalls", "count"},
      {"rebuild.throughput_mbps", "MB/s"},
      {"stripe.ids_reused", "count"},
      {"stripe.lookup_misses", "count"},
      // core/fleet.
      {"fleet.speedup_vs_1", "ratio"},
      // obs + the benchmark's own spans (self time per layer call).
      {"obs.spans", "count"},
      {"obs.trace_overhead_frac", "ratio"},
      {"self_ns.cluster.build", "ns"},
      {"self_ns.cluster.start", "ns"},
      {"self_ns.sharded_cluster.build", "ns"},
      {"self_ns.sim.run", "ns"},
      {"self_ns.sharded_cluster.run", "ns"},
      {"self_ns.client.submit", "ns"},
      {"self_ns.client.callback", "ns"},
      {"self_ns.client.allocate_stripe", "ns"},
      {"self_ns.rebuild.execute", "ns"},
      {"self_ns.fleet.run", "ns"},
      {"self_ns.fleet.run_serial", "ns"},
  };
  return metrics;
}

}  // namespace perfbench
