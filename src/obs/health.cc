#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ustore::obs {

namespace {

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

const char* SignalName(SloRule::Signal signal) {
  switch (signal) {
    case SloRule::Signal::kCounterRate: return "counter_rate";
    case SloRule::Signal::kCounterDelta: return "counter_delta";
    case SloRule::Signal::kHistogramQuantile: return "histogram_quantile";
    case SloRule::Signal::kHistogramRate: return "histogram_rate";
    case SloRule::Signal::kGaugeValue: return "gauge_value";
  }
  return "unknown";
}

}  // namespace

double WindowedAggregator::HistogramWindow::Quantile(double q) const {
  // A window has no min/max of its own, only bucket bounds: the first
  // bucket starts at 0 and the overflow bucket is clamped to the top bound.
  return BucketQuantile(bounds, bucket_deltas, count, 0.0,
                        bounds.empty() ? 0.0 : bounds.back(), q);
}

WindowedAggregator::WindowStats WindowedAggregator::CloseWindow(
    MetricsRegistry& registry, sim::Time at, bool partial) {
  const MetricsSnapshot snapshot = registry.Snapshot();

  WindowStats stats;
  stats.start = window_start_;
  stats.end = at;
  stats.partial = partial;

  for (const auto& [name, value] : snapshot.counters) {
    const auto prev = prev_counters_.find(name);
    const std::uint64_t before =
        prev == prev_counters_.end() ? 0 : prev->second;
    stats.counter_deltas[name] = value - before;
    prev_counters_[name] = value;
  }

  for (const auto& [name, gauge] : snapshot.gauges) {
    stats.gauge_values[name] = gauge.value;
  }

  for (const auto& [name, hist] : snapshot.histograms) {
    HistogramWindow window;
    window.bounds = hist.bounds;
    window.bucket_deltas.assign(hist.bucket_counts.size(), 0);
    window.count = hist.count;
    window.sum = hist.sum;
    auto prev = prev_histograms_.find(name);
    if (prev != prev_histograms_.end() &&
        prev->second.bucket_counts.size() == hist.bucket_counts.size()) {
      window.count -= prev->second.count;
      window.sum -= prev->second.sum;
      for (std::size_t b = 0; b < hist.bucket_counts.size(); ++b) {
        window.bucket_deltas[b] =
            hist.bucket_counts[b] - prev->second.bucket_counts[b];
      }
    } else {
      window.bucket_deltas = hist.bucket_counts;
    }
    PrevHistogram& keep = prev_histograms_[name];
    keep.count = hist.count;
    keep.sum = hist.sum;
    keep.bucket_counts = hist.bucket_counts;
    stats.histograms.emplace(name, std::move(window));
  }

  window_start_ = at;
  return stats;
}

HealthMonitor::HealthMonitor(sim::Duration window, std::vector<SloRule> rules)
    : window_(std::max<sim::Duration>(window, 1)),
      rules_(std::move(rules)),
      streaks_(rules_.size(), 0),
      firing_(rules_.size(), false) {}

void HealthMonitor::Tick(MetricsRegistry& registry, sim::Time at) {
  EvaluateWindow(registry,
                 aggregator_.CloseWindow(registry, at, /*partial=*/false));
  last_close_ = at;
}

void HealthMonitor::Finalize(MetricsRegistry& registry, sim::Time at) {
  if (at <= last_close_) return;  // nothing elapsed since the last close
  EvaluateWindow(registry,
                 aggregator_.CloseWindow(registry, at, /*partial=*/true));
  last_close_ = at;
}

void HealthMonitor::EvaluateWindow(
    MetricsRegistry& registry,
    const WindowedAggregator::WindowStats& stats) {
  const int window_index = windows_++;
  const double seconds = std::max(stats.seconds(), 1e-12);

  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    bool have = true;
    double value = 0;
    switch (rule.signal) {
      case SloRule::Signal::kCounterRate:
      case SloRule::Signal::kCounterDelta: {
        const auto it = stats.counter_deltas.find(rule.metric);
        const std::uint64_t delta =
            it == stats.counter_deltas.end() ? 0 : it->second;
        value = rule.signal == SloRule::Signal::kCounterDelta
                    ? static_cast<double>(delta)
                    : static_cast<double>(delta) / seconds;
        break;
      }
      case SloRule::Signal::kHistogramQuantile: {
        const auto it = stats.histograms.find(rule.metric);
        if (it == stats.histograms.end() || it->second.count == 0) {
          have = false;
        } else {
          value = it->second.Quantile(rule.quantile);
        }
        break;
      }
      case SloRule::Signal::kHistogramRate: {
        const auto it = stats.histograms.find(rule.metric);
        const std::uint64_t delta =
            it == stats.histograms.end() ? 0 : it->second.count;
        value = static_cast<double>(delta) / seconds;
        break;
      }
      case SloRule::Signal::kGaugeValue: {
        const auto it = stats.gauge_values.find(rule.metric);
        if (it == stats.gauge_values.end()) {
          have = false;
        } else {
          value = it->second;
        }
        break;
      }
    }

    const bool breach =
        have && (rule.cmp == SloRule::Cmp::kGreaterThan
                     ? value > rule.threshold
                     : value < rule.threshold);
    streaks_[i] = breach ? streaks_[i] + 1 : 0;

    if (breach && !firing_[i] && streaks_[i] >= rule.for_windows) {
      firing_[i] = true;
      alerts_.push_back(Alert{rule.name, /*fired=*/true, stats.end,
                              window_index, value, rule.threshold});
      registry.Increment("health.alerts_fired");
    } else if (!breach && firing_[i]) {
      firing_[i] = false;
      alerts_.push_back(Alert{rule.name, /*fired=*/false, stats.end,
                              window_index, have ? value : 0.0,
                              rule.threshold});
      registry.Increment("health.alerts_resolved");
    }
  }
  registry.Increment("health.windows");
}

std::string HealthMonitor::ReportJson() const {
  std::string out = "{\"window_ns\": " + std::to_string(window_) +
                    ", \"windows\": " + std::to_string(windows_) +
                    ", \"rules\": [";
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + rule.name + "\", \"metric\": \"" + rule.metric +
           "\", \"signal\": \"" + SignalName(rule.signal) + "\"";
    if (rule.signal == SloRule::Signal::kHistogramQuantile) {
      out += ", \"quantile\": " + FormatDouble(rule.quantile);
    }
    out += std::string(", \"cmp\": \"") +
           (rule.cmp == SloRule::Cmp::kGreaterThan ? ">" : "<") +
           "\", \"threshold\": " + FormatDouble(rule.threshold) +
           ", \"for_windows\": " + std::to_string(rule.for_windows) + "}";
  }
  out += "], \"alerts\": [";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const Alert& alert = alerts_[i];
    if (i > 0) out += ", ";
    out += "{\"rule\": \"" + alert.rule + "\", \"kind\": \"" +
           (alert.fired ? "fired" : "resolved") +
           "\", \"at_ns\": " + std::to_string(alert.at) +
           ", \"window\": " + std::to_string(alert.window) +
           ", \"value\": " + FormatDouble(alert.value) +
           ", \"threshold\": " + FormatDouble(alert.threshold) + "}";
  }
  out += "]}";
  return out;
}

std::vector<SloRule> DefaultSloRules() {
  std::vector<SloRule> rules;
  // Cold reads legitimately take ~10s of spin-up (Table II); alert only
  // when the windowed p99 blows well past one spin-up.
  rules.push_back(SloRule{.name = "read-p99-latency",
                          .metric = "client.read.latency_us",
                          .signal = SloRule::Signal::kHistogramQuantile,
                          .quantile = 0.99,
                          .cmp = SloRule::Cmp::kGreaterThan,
                          .threshold = 30e6,  // 30 s in us
                          .for_windows = 2});
  rules.push_back(SloRule{.name = "write-p99-latency",
                          .metric = "client.write.latency_us",
                          .signal = SloRule::Signal::kHistogramQuantile,
                          .quantile = 0.99,
                          .cmp = SloRule::Cmp::kGreaterThan,
                          .threshold = 30e6,
                          .for_windows = 2});
  // A healthy client retries masters only around failovers.
  rules.push_back(SloRule{.name = "master-retry-rate",
                          .metric = "client.master_retries",
                          .signal = SloRule::Signal::kCounterRate,
                          .cmp = SloRule::Cmp::kGreaterThan,
                          .threshold = 5.0,  // retries/sec
                          .for_windows = 1});
  rules.push_back(SloRule{.name = "rpc-timeout-rate",
                          .metric = "rpc.timeouts",
                          .signal = SloRule::Signal::kCounterRate,
                          .cmp = SloRule::Cmp::kGreaterThan,
                          .threshold = 2.0,
                          .for_windows = 1});
  // NCQ queue depth p99 per admission window; sustained deep queues mean
  // the data plane is saturating.
  rules.push_back(SloRule{.name = "disk-queue-depth-p99",
                          .metric = "disk.queue.depth",
                          .signal = SloRule::Signal::kHistogramQuantile,
                          .quantile = 0.99,
                          .cmp = SloRule::Cmp::kGreaterThan,
                          .threshold = 24.0,
                          .for_windows = 2});
  return rules;
}

}  // namespace ustore::obs
