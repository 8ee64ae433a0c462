// Windowed telemetry aggregation and a declarative SLO/health engine.
//
// Large-scale storage operation lives and dies by continuous health
// telemetry (see PAPERS.md: *Large Scale Online Storage Management*;
// Gray & van Ingen's error-rate measurements): SLO breaches must be
// detected from the telemetry stream itself, not from test assertions.
//
//   * WindowedAggregator turns the cumulative MetricsRegistry into
//     sim-time tumbling windows: per-window counter deltas (-> rates),
//     per-window histogram bucket deltas (-> windowed quantiles, NaN when
//     the window saw no samples), and gauge last-values.
//
//   * HealthMonitor evaluates declarative SloRules against each closed
//     window ("p99 of client.read.latency_us > 8e6 us for 2 consecutive
//     windows") and emits ordered fired/resolved alert records. Rules,
//     windows, and alerts render to a canonical JSON report.
//
// Everything is driven by simulated time and deterministic arithmetic, so
// for a fixed seed the report is bit-identical across repeated runs (the
// chaos harness embeds it in its report, which
// ChaosEngineTest.FixedSeedReportIsBitIdentical pins). DESIGN.md §11
// documents the rule grammar and the determinism guarantees.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace ustore::obs {

// One declarative health rule, evaluated once per closed window.
struct SloRule {
  enum class Signal {
    kCounterRate,        // counter delta / window seconds
    kCounterDelta,       // raw counter delta in the window
    kHistogramQuantile,  // windowed quantile of a histogram
    kHistogramRate,      // histogram sample count / window seconds
    kGaugeValue,         // gauge value at window close
  };
  enum class Cmp { kGreaterThan, kLessThan };

  std::string name;    // stable id, e.g. "cold-read-p99"
  std::string metric;  // registry metric name
  Signal signal = Signal::kCounterRate;
  double quantile = 0.99;  // kHistogramQuantile only
  Cmp cmp = Cmp::kGreaterThan;
  double threshold = 0;
  // Consecutive breaching windows required before the alert fires (and a
  // single clean window resolves it). Windows with no signal (empty
  // histogram -> NaN quantile) break the streak.
  int for_windows = 1;
};

class WindowedAggregator {
 public:
  struct HistogramWindow {
    std::uint64_t count = 0;
    double sum = 0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_deltas;
    // Windowed quantile from bucket deltas alone: BucketQuantile with min
    // 0 and max the top bound; NaN when count == 0.
    double Quantile(double q) const;
  };
  struct WindowStats {
    sim::Time start = 0;
    sim::Time end = 0;
    bool partial = false;  // final flush of an incomplete window
    std::map<std::string, std::uint64_t> counter_deltas;
    std::map<std::string, double> gauge_values;
    std::map<std::string, HistogramWindow> histograms;

    double seconds() const { return sim::ToSeconds(end - start); }
  };

  // Closes the window [previous close, at) against the registry's current
  // cumulative state and starts the next one.
  WindowStats CloseWindow(MetricsRegistry& registry, sim::Time at,
                          bool partial = false);

 private:
  sim::Time window_start_ = 0;
  std::map<std::string, std::uint64_t> prev_counters_;
  struct PrevHistogram {
    std::uint64_t count = 0;
    double sum = 0;
    std::vector<std::uint64_t> bucket_counts;
  };
  std::map<std::string, PrevHistogram> prev_histograms_;
};

class HealthMonitor {
 public:
  struct Alert {
    std::string rule;
    bool fired = true;  // false: resolved
    sim::Time at = 0;
    int window = 0;  // 0-based index of the triggering window
    double value = 0;
    double threshold = 0;
  };

  HealthMonitor(sim::Duration window, std::vector<SloRule> rules);

  sim::Duration window() const { return window_; }
  // The sim time the next full window closes at (Tick cadence).
  sim::Time next_close() const { return last_close_ + window_; }

  // Closes the tumbling window ending at `at` and evaluates every rule
  // against it. Call on the window cadence (a sim timer); `at` must be
  // non-decreasing. Bumps health.windows / health.alerts_fired /
  // health.alerts_resolved counters on `registry`.
  void Tick(MetricsRegistry& registry, sim::Time at);

  // Flushes a final partial window if any time elapsed since the last
  // close; call once when the run ends so trailing activity is evaluated.
  void Finalize(MetricsRegistry& registry, sim::Time at);

  const std::vector<Alert>& alerts() const { return alerts_; }
  int windows_evaluated() const { return windows_; }

  // Canonical JSON {window_ns, windows, rules:[...], alerts:[...]} —
  // deterministic field order and number formatting, suitable for
  // bit-identical comparison across runs.
  std::string ReportJson() const;

 private:
  void EvaluateWindow(MetricsRegistry& registry,
                      const WindowedAggregator::WindowStats& stats);

  sim::Duration window_;
  sim::Time last_close_ = 0;
  std::vector<SloRule> rules_;
  WindowedAggregator aggregator_;
  std::vector<int> streaks_;
  std::vector<bool> firing_;
  std::vector<Alert> alerts_;
  int windows_ = 0;
};

// The stock rule set the chaos harness monitors with:
// cold-read p99 latency, write p99 latency, master retry rate, disk queue
// depth, and RPC timeout rate. Thresholds are generous enough that a
// healthy steady-state run stays quiet.
std::vector<SloRule> DefaultSloRules();

}  // namespace ustore::obs
