// perfbench: the one end-to-end benchmark of the UStore simulator.
//
//   perfbench --workload big_unit|client_io|stripe_failover|fleet
//             --seed N --seconds S --trace 0|1 [--tiny] [--oracle]
//             [--spans-out PATH]
//
// Runs the workload repeatedly at one seed until --seconds of measured host
// time have accumulated (at least three repetitions). Host-time metrics are
// medians over the repetitions, each scaled to a nominal host speed (see
// ReferenceMs in harness.h; the raw values are printed too); simulated-time
// metrics and the report digest must repeat exactly, or the run fails. With
// --trace 1 repetitions alternate untraced/traced, the traced ones record the
// benchmark's spans and the per-layer metrics, and the span log is written to
// --spans-out at exit.
//
// Prints a human-readable report, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status: 0 on success, 1 when a correctness check fails, 2 on bad
// arguments, 3 when the build lacks NDEBUG (timings would be meaningless).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "profile.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Warning and lower log lines the simulator wrote during the run (see main).
std::atomic<std::uint64_t> dropped_log_lines{0};

constexpr int kMinReps = 3;
// Host seconds after which no further repetition starts, so that a run ends
// well inside its 180 s budget even when one repetition is slow.
constexpr double kMaxWallSeconds = 100;
// One host-speed reference sample per this much repetition wall time.
constexpr double kReferenceEverySeconds = 0.25;

struct Workload {
  const char* name;
  WorkloadFn fn;
  // The threads the workload runs (null: one); its reference runs as many.
  int (*threads)();
  // How host time follows the host-speed reference: each repetition's values
  // are scaled by (reference / nominal)^host_sensitivity. Measured as minus the
  // slope of log rate against log reference over repeated runs on a shared
  // 4-core host (README.md): about 2 for the single-threaded workloads
  // against the one-thread reference, and 1 for big_unit and fleet against
  // the reference on their own thread counts.
  int host_sensitivity;
  // Self-test: ShardedEngine vs SingleQueueEngine digests ("" = identical).
  std::string (*oracle)(const Config&);
};

constexpr Workload kWorkloads[] = {
    {"big_unit", RunBigUnit, WorkerThreads, 1, BigUnitOracleCheck},
    {"client_io", RunClientIo, nullptr, 2, nullptr},
    {"stripe_failover", RunStripeFailover, nullptr, 2, nullptr},
    {"fleet", RunFleet, FleetThreads, 1, FleetOracleCheck},
};

bool ParseArgs(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      if (value != nullptr) ++i;
      return value;
    };
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--oracle") {
      config.oracle = true;
    } else if (arg == "--workload" && take()) {
      config.workload = value;
    } else if (arg == "--seed" && take()) {
      char* end = nullptr;
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds" && take()) {
      config.seconds = std::atof(value);
      if (!(config.seconds > 0)) return false;
    } else if (arg == "--trace" && take()) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      config.trace = value[0] == '1';
    } else if (arg == "--spans-out" && take()) {
      config.trace_path = value;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !config.workload.empty();
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintRow(const Metric& row) {
  std::string hi = "-";
  const double p = HighPercentile(row.samples.size());
  if (p > 0) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "p%g=%.6g", p,
                  Quantile(row.samples, p / 100));
    hi = buffer;
  }
  std::printf("  %-26s %16.6f  %-10s %-18s %s\n", row.name.c_str(), row.value,
              row.unit.c_str(), hi.c_str(),
              row.samples.empty() ? "-"
                                  : std::to_string(row.samples.size()).c_str());
}

std::string MetricJson(const std::vector<Metric>& rows) {
  std::string out = "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + rows[i].name + "\": {\"value\": " + Number(rows[i].value) +
           ", \"unit\": \"" + rows[i].unit + "\"}";
  }
  return out + "}";
}

int Run(const Config& config, const Workload& workload) {
  const int ref_threads = workload.threads ? workload.threads() : 1;

  SpanLog spans;
  std::vector<double> ref = {ReferenceMs(ref_threads)};  // host speed
  std::vector<double> rep_ref;  // per repetition: its samples' median
  std::vector<RepOutcome> reps;
  std::vector<bool> traced;
  const auto started = Clock::now();
  double measured = 0;
  bool correct = true;
  std::string why;
  for (int i = 0;; ++i) {
    const bool trace_this = config.trace && i % 2 == 1;
    spans.set_enabled(trace_this);
    if (trace_this) spans.BeginTrace();
    RepOutcome rep;
    const auto rep_start = Clock::now();
    {
      ScopedSpan root(spans, "rep");
      rep = workload.fn(config, spans);
    }
    // The host's speed drifts within a run too, so each repetition is
    // scaled by the reference samples taken right after it. Long
    // repetitions get more samples.
    const int samples = std::clamp(
        static_cast<int>(SecondsSince(rep_start) / kReferenceEverySeconds), 1,
        16);
    std::vector<double> after;
    for (int k = 0; k < samples; ++k) after.push_back(ReferenceMs(ref_threads));
    ref.insert(ref.end(), after.begin(), after.end());
    rep_ref.push_back(Median(after));
    if (trace_this) {
      for (const auto& [name, ns] : spans.SelfNs(spans.trace_id())) {
        rep.layers["self_ns." + name] = static_cast<double>(ns);
      }
    }
    if (!rep.correct) {
      correct = false;
      why = rep.why;
    } else if (!reps.empty() && rep.digest != reps.front().digest) {
      correct = false;
      why = "report digest differs across repeats of one seed";
    }
    measured += rep.run_wall_s;
    // The simulated-time samples repeat exactly (the digest says so); keep
    // only the first repetition's, so they do not inflate peak_rss_mb.
    if (!reps.empty()) rep.sim_metrics.clear();
    reps.push_back(std::move(rep));
    traced.push_back(trace_this);
    if (!correct) break;
    const int untraced_reps = static_cast<int>(
        std::count(traced.begin(), traced.end(), false));
    if (untraced_reps >= kMinReps && measured >= config.seconds &&
        (!config.trace || traced.back())) {
      break;
    }
    if (SecondsSince(started) > kMaxWallSeconds && (!config.trace || i >= 1)) {
      break;
    }
  }
  spans.set_enabled(false);

  const RepOutcome& first = reps.front();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup, sim_rate, op_rate, untraced_wall, traced_wall;
  std::vector<double> nominal_setup, nominal_sim_rate, nominal_op_rate;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& rep = reps[i];
    attempted += rep.attempted;
    failed += rep.failed;
    if (traced[i]) {
      traced_wall.push_back(rep.run_wall_s);
      continue;
    }
    untraced_wall.push_back(rep.run_wall_s);
    setup.push_back(rep.setup_s);
    sim_rate.push_back(Ratio(rep.sim_s, rep.run_wall_s));
    op_rate.push_back(Ratio(static_cast<double>(rep.ops), rep.run_wall_s));
    // > 1 when the host ran slower than nominal around this repetition.
    const double slowdown = std::pow(rep_ref[i] / kReferenceNominalMs,
                                     workload.host_sensitivity);
    nominal_setup.push_back(setup.back() / slowdown);
    nominal_sim_rate.push_back(sim_rate.back() * slowdown);
    nominal_op_rate.push_back(op_rate.back() * slowdown);
  }
  const double slowdown = std::pow(Median(ref) / kReferenceNominalMs,
                                   workload.host_sensitivity);

  std::printf("perfbench workload=%s seed=%llu trace=%d build=%s (NDEBUG) "
              "repetitions=%zu measured=%.3fs\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, reps.size(),
              measured);
  std::printf("  %-26s %16s  %-10s %-18s %s\n", "metric", "value", "unit",
              "high percentile", "n");

  // Host-time end-to-end metrics: untraced repetitions only, each scaled to
  // the nominal host speed (raw values follow).
  std::vector<Metric> end_to_end = {
      {"setup_s", "s", Median(nominal_setup), nominal_setup},
      {"sim_s_per_wall_s", "sim-s/s", Median(nominal_sim_rate),
       nominal_sim_rate},
      {"ops_per_wall_s", "ops/s", Median(nominal_op_rate), nominal_op_rate},
      {"peak_rss_mb", "MiB", PeakRssMiB(), {}},
  };
  std::printf("end-to-end (host time at the nominal host speed)\n");
  for (const Metric& row : end_to_end) PrintRow(row);
  std::printf("raw host time (unscaled; median host slowdown %.4f)\n",
              slowdown);
  PrintRow({"raw.setup_s", "s", Median(setup), setup});
  PrintRow({"raw.sim_s_per_wall_s", "sim-s/s", Median(sim_rate), sim_rate});
  PrintRow({"raw.ops_per_wall_s", "ops/s", Median(op_rate), op_rate});
  PrintRow({"reference_ms", "ms", Median(ref), ref});
  std::printf("workload (simulated time, identical across repetitions)\n");
  PrintRow({"ops_per_sim_s", "ops/sim-s",
            Ratio(static_cast<double>(first.ops), first.sim_s), {}});
  for (const Metric& metric : first.sim_metrics) PrintRow(metric);
  PrintRow({"failed_frac", "ratio",
            Ratio(static_cast<double>(first.failed + first.known_failures),
                  static_cast<double>(first.attempted)),
            {}});
  std::printf("  (per repetition: %llu attempted, %llu failed, %llu known "
              "failures; digest %016llx)\n",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed),
              static_cast<unsigned long long>(first.known_failures),
              static_cast<unsigned long long>(first.digest));
  std::printf("  (simulator warning log lines dropped: %llu)\n",
              static_cast<unsigned long long>(dropped_log_lines.load()));

  std::vector<Metric> layers;
  if (config.trace) {
    std::map<std::string, std::vector<double>> values;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (!traced[i]) continue;
      for (const auto& [name, value] : reps[i].layers) {
        values[name].push_back(value);
      }
    }
    values["obs.spans"] = {static_cast<double>(spans.spans().size()) /
                           std::max<std::size_t>(traced_wall.size(), 1)};
    values["obs.trace_overhead_frac"] = {
        Ratio(Median(traced_wall), Median(untraced_wall)) - 1};
    std::printf("per-layer (traced repetitions: %zu)\n", traced_wall.size());
    for (const LayerMetric& metric : LayerMetrics()) {
      auto it = values.find(metric.name);
      Metric row{metric.name, metric.unit,
                 it == values.end() ? 0.0 : Median(it->second), {}};
      PrintRow(row);
      layers.push_back(std::move(row));
    }
    if (!config.trace_path.empty() && !spans.WriteJson(config.trace_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   config.trace_path.c_str());
    }
  }

  if (!correct) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n",
                 why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricJson(config.trace ? layers : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  if (!ParseArgs(argc, argv, config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "big_unit|client_io|stripe_failover|fleet --seed N "
                 "--seconds S --trace 0|1 [--tiny] [--oracle] "
                 "[--spans-out PATH]\n");
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report timings from a build without "
               "NDEBUG (CMAKE_BUILD_TYPE=%s); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  // big_unit and fleet log thousands of expected Warning lines per
  // repetition ("failed enumeration" beyond the 15-device limit), from
  // worker threads too. Written to stderr they would time the terminal or
  // pipe reading it, not the simulator: they are still formatted, then
  // counted and dropped. Errors still reach stderr.
  ustore::Logger::Instance().set_sink(
      [](ustore::LogLevel level, const std::string& message) {
        if (level >= ustore::LogLevel::kError) {
          std::fprintf(stderr, "ERROR %s\n", message.c_str());
        } else {
          dropped_log_lines.fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (const Workload& workload : kWorkloads) {
    if (config.workload != workload.name) continue;
    if (config.oracle) {
      const std::string mismatch =
          workload.oracle == nullptr
              ? "no oracle for workload " + config.workload
              : workload.oracle(config);
      std::printf("oracle %s: %s\n", workload.name,
                  mismatch.empty() ? "identical" : mismatch.c_str());
      return mismatch.empty() ? 0 : 1;
    }
    return Run(config, workload);
  }
  std::fprintf(stderr, "unknown workload: %s\n", config.workload.c_str());
  return 2;
}
