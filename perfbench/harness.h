// Shared pieces of the end-to-end benchmark: run configuration, the
// benchmark's own wall-clock span log, per-repetition outcomes, summary
// statistics and the metric tables every workload reports into.
//
// A workload is one function that builds a deployment, drives it through
// the simulator's public entry points and returns a RepOutcome. main.cc runs
// it repeatedly with the same seed: host-time metrics are medians over the
// repetitions, simulated-time metrics and the report digest must repeat
// exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;  // host seconds of measured work per run
  bool trace = false;   // --trace 1: per-layer metrics from traced repetitions
  bool tiny = false;    // --tiny: self-test sizes (seconds of host time)
  bool oracle = false;  // --oracle: ShardedEngine vs SingleQueueEngine check
  std::string trace_path;  // where the traced run writes its spans
};

// Wall-clock spans around the benchmark's own calls into each layer. One
// trace per repetition; spans nest by call order (the benchmark is single
// threaded — RunShardedFleet's workers are never spanned individually).
// Kept in memory and written out once, when the run ends. Disabled, Begin()
// returns 0 and records nothing.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void BeginTrace() { ++trace_id_; }

  std::uint64_t Begin(std::string_view name);
  void End(std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  // Per span name: summed duration minus the part covered by child spans.
  std::map<std::string, std::uint64_t> SelfNs(std::uint64_t trace_id) const;
  std::uint64_t trace_id() const { return trace_id_; }
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t trace_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_, innermost last
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name)
      : log_(log), id_(log.Begin(name)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
// Host-speed reference. On a shared host the throughput a process gets can
// drift by +-25% over seconds, and code with many independent instructions
// in flight (like the simulator) feels it more than latency-bound loops do.
// ReferenceMs() times a fixed job of that kind — sorting copies of one
// pseudo-random 32K-element array — on as many threads as the workload runs
// (each thread sorts its own copies). It is sampled right after every
// repetition (more often after long ones); the median of those samples over
// kReferenceNominalMs is that repetition's slowdown against a nominal host,
// and main.cc scales the repetition's host-time values by it (see
// Workload::host_sensitivity).
double ReferenceMs(int threads);
constexpr double kReferenceNominalMs = 5.0;

// One reported metric. Timings carry their samples so the report can print
// a median, the highest percentile with at least ten samples beyond it, and
// the sample count.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  // empty for scalars
};

// One repetition of a workload at a fixed seed.
struct RepOutcome {
  double setup_s = 0;     // host: build + Start() + handoff
  double run_wall_s = 0;  // host: the measured phase
  double sim_s = 0;       // simulated seconds the measured phase advanced
  std::uint64_t ops = 0;  // ops completed in the measured phase
  std::uint64_t attempted = 0;
  // Ops that failed or returned wrong data although nothing in the workload
  // broke them: error callbacks, rejected I/O, bad read-backs.
  std::uint64_t failed = 0;
  // Failures the workload provokes and expects today: I/O rejected by an
  // injected chaos fault, and results made wrong by the known Master
  // failover stripe-index loss (a reused stripe id, a stripe lookup the new
  // Master answers wrongly). Reported in failed_frac, not in `failed`.
  std::uint64_t known_failures = 0;
  bool correct = true;
  std::string why;          // first failed correctness check
  std::uint64_t digest = 0;  // deterministic report digest
  std::vector<Metric> sim_metrics;       // simulated-time, deterministic
  std::map<std::string, double> layers;  // per-layer metrics, traced runs

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

using WorkloadFn = RepOutcome (*)(const Config&, SpanLog&);

RepOutcome RunBigUnit(const Config& config, SpanLog& spans);
RepOutcome RunClientIo(const Config& config, SpanLog& spans);
RepOutcome RunStripeFailover(const Config& config, SpanLog& spans);
RepOutcome RunFleet(const Config& config, SpanLog& spans);
// Self-test: the workload's ShardedEngine digest against the
// SingleQueueEngine oracle at tiny size. Empty string = identical.
std::string BigUnitOracleCheck(const Config& config);
std::string FleetOracleCheck(const Config& config);

// --- statistics ----------------------------------------------------------

double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
// The highest of p99.9/p99/p95/p90/p75 that leaves at least ten samples
// beyond it; 0 when there are too few samples for any.
double HighPercentile(std::size_t samples);

// --- small utilities -------------------------------------------------------

std::uint64_t Fnv1a(std::string_view text,
                    std::uint64_t hash = 1469598103934665603ULL);
double PeakRssMiB();
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer metric names and units, in report order. Every traced run
// reports every one of them (0 where the workload does not exercise the
// layer); BENCHMARK.json lists the same set.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& LayerMetrics();

}  // namespace perfbench
