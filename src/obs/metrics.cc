#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  // NaN, not 0: an empty histogram has no quantiles, and 0 is
  // indistinguishable from a real measured zero. Consumers render this as
  // JSON null / a "-" cell.
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[b];
    if (static_cast<double>(cumulative) < target) continue;
    // The target sample lands in bucket b: interpolate across its span.
    const double lower = b == 0 ? std::max(0.0, min_) : bounds_[b - 1];
    const double upper = b < bounds_.size() ? bounds_[b] : max_;
    const double fraction =
        counts_[b] == 0 ? 0
                        : (target - before) / static_cast<double>(counts_[b]);
    const double estimate = lower + fraction * (upper - lower);
    return std::clamp(estimate, min_, max_);
  }
  return max_;
}

void Histogram::Reset() {
  counts_.assign(counts_.size(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0;
}

std::vector<double> LatencyBucketsUs() {
  std::vector<double> bounds;
  for (double decade = 1; decade <= 1e7; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(2 * decade);
    bounds.push_back(5 * decade);
  }
  bounds.push_back(1e8);  // 100s
  return bounds;
}

std::vector<double> CountBuckets() {
  return {1, 2, 3, 4, 5, 8, 10, 15, 20, 30, 50, 100};
}

MetricsRegistry::MetricsRegistry() = default;

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return GetHistogram(name, LatencyBucketsUs());
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot(bool reset) {
  MetricsSnapshot snapshot;
  snapshot.at = now();
  for (auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter.value();
    if (reset) counter.Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    MetricsSnapshot::GaugeState state;
    state.value = gauge.value();
    state.samples.assign(gauge.samples().begin(), gauge.samples().end());
    snapshot.gauges[name] = std::move(state);
    if (reset) gauge.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramState state;
    state.count = histogram->count();
    state.sum = histogram->sum();
    state.min = histogram->min();
    state.max = histogram->max();
    state.p50 = histogram->Quantile(0.50);
    state.p90 = histogram->Quantile(0.90);
    state.p95 = histogram->Quantile(0.95);
    state.p99 = histogram->Quantile(0.99);
    state.bounds = histogram->bounds();
    state.bucket_counts = histogram->bucket_counts();
    snapshot.histograms[name] = std::move(state);
    if (reset) histogram->Reset();
  }
  return snapshot;
}

namespace {

// Histogram::Quantile over a merged HistogramState (same interpolation,
// but driven by the merged bucket counts instead of a live Histogram).
double StateQuantile(const MetricsSnapshot::HistogramState& h, double q) {
  if (h.count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(h.count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
    if (h.bucket_counts[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += h.bucket_counts[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = b == 0 ? std::max(0.0, h.min) : h.bounds[b - 1];
    const double upper = b < h.bounds.size() ? h.bounds[b] : h.max;
    const double fraction =
        (target - before) / static_cast<double>(h.bucket_counts[b]);
    return std::clamp(lower + fraction * (upper - lower), h.min, h.max);
  }
  return h.max;
}

}  // namespace

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot merged;
  // Gauge tie-break bookkeeping: the newest sample stamp seen per name.
  std::map<std::string, sim::Time> gauge_at;
  for (const MetricsSnapshot& part : parts) {
    merged.at = std::max(merged.at, part.at);
    for (const auto& [name, value] : part.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, gauge] : part.gauges) {
      const sim::Time newest =
          gauge.samples.empty() ? 0 : gauge.samples.back().at;
      auto [it, inserted] = merged.gauges.try_emplace(name);
      auto [at_it, at_inserted] = gauge_at.try_emplace(name, newest);
      if (inserted || (!at_inserted && newest > at_it->second)) {
        it->second.value = gauge.value;
        at_it->second = newest;
      }
      it->second.samples.insert(it->second.samples.end(),
                                gauge.samples.begin(), gauge.samples.end());
    }
    for (const auto& [name, histogram] : part.histograms) {
      auto [it, inserted] = merged.histograms.try_emplace(name, histogram);
      if (inserted) continue;
      MetricsSnapshot::HistogramState& into = it->second;
      if (histogram.count == 0) continue;
      if (into.count == 0) {
        into.min = histogram.min;
        into.max = histogram.max;
      } else {
        into.min = std::min(into.min, histogram.min);
        into.max = std::max(into.max, histogram.max);
      }
      into.count += histogram.count;
      into.sum += histogram.sum;
      if (into.bounds == histogram.bounds) {
        for (std::size_t b = 0; b < into.bucket_counts.size(); ++b) {
          into.bucket_counts[b] += histogram.bucket_counts[b];
        }
      }
    }
  }
  for (auto& [name, histogram] : merged.histograms) {
    histogram.p50 = StateQuantile(histogram, 0.50);
    histogram.p90 = StateQuantile(histogram, 0.90);
    histogram.p95 = StateQuantile(histogram, 0.95);
    histogram.p99 = StateQuantile(histogram, 0.99);
  }
  return merged;
}

void MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  ++generation_;  // invalidates cached metric handles
}

namespace internal {
thread_local std::uint64_t obs_epoch = 0;
}  // namespace internal

namespace {

// Per-thread overrides installed by ScopedObsBinding. Null means "use the
// process-wide default". Plain thread_local pointers: each fleet worker
// only ever touches its own slot.
thread_local MetricsRegistry* tls_metrics = nullptr;
thread_local TraceBuffer* tls_tracer = nullptr;

// Source of process-unique nonzero epochs, one per installed binding. A
// nested binding that restores its parent restores the parent's epoch too,
// so an epoch value always maps to one registry for its whole lifetime.
std::atomic<std::uint64_t> next_obs_epoch{1};

// Every emitted log line bumps a per-level counter on the *current*
// registry (so unit-local registries see their own log traffic), installed
// once on the process-wide logger by the first Metrics() call. The magic
// static runs the installation exactly once and makes every other
// Metrics() caller wait for it, so a thread that has called Metrics() sees
// the observer when it logs. Only a log line from a thread that has never
// called Metrics(), written during the process's first Metrics() call,
// could race with the installation. No worker does that: a fleet worker's
// unit calls obs::BindSimulator, and with it Metrics(), in its Cluster
// constructor before anything logs, and engine shard workers start only
// after that constructor has run.
void InstallLogObserverOnce() {
  static const bool installed = [] {
    Logger::Instance().set_write_observer([](LogLevel level) {
      switch (level) {
        case LogLevel::kDebug: Metrics().Increment("log.debugs"); break;
        case LogLevel::kInfo: Metrics().Increment("log.infos"); break;
        case LogLevel::kWarning: Metrics().Increment("log.warnings"); break;
        case LogLevel::kError: Metrics().Increment("log.errors"); break;
      }
    });
    return true;
  }();
  (void)installed;
}

}  // namespace

MetricsRegistry& Metrics() {
  InstallLogObserverOnce();
  if (tls_metrics != nullptr) return *tls_metrics;
  static MetricsRegistry registry;
  return registry;
}

TraceBuffer& Tracer() {
  if (tls_tracer != nullptr) return *tls_tracer;
  static TraceBuffer buffer;
  return buffer;
}

ScopedObsBinding::ScopedObsBinding(MetricsRegistry* metrics,
                                   TraceBuffer* tracer)
    : prev_metrics_(tls_metrics),
      prev_tracer_(tls_tracer),
      prev_epoch_(internal::obs_epoch) {
  tls_metrics = metrics;
  tls_tracer = tracer;
  internal::obs_epoch =
      next_obs_epoch.fetch_add(1, std::memory_order_relaxed);
}

ScopedObsBinding::~ScopedObsBinding() {
  tls_metrics = prev_metrics_;
  tls_tracer = prev_tracer_;
  internal::obs_epoch = prev_epoch_;
}

void BindSimulator(sim::Simulator* sim) {
  if (sim == nullptr) {
    Metrics().set_time_source(nullptr);
    Tracer().set_time_source(nullptr, nullptr);
    return;
  }
  Metrics().set_time_source([sim] { return sim->now(); });
  // The tracer clock is a raw function pointer + arg (no std::function on
  // the span hot path).
  Tracer().set_time_source(
      [](void* arg) { return static_cast<sim::Simulator*>(arg)->now(); },
      sim);
}

namespace {

// Minimal JSON string escaping; metric names and attrs are plain ASCII.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  // NaN (absent quantile of an empty histogram) is not valid JSON: emit
  // null so parsers see "no value" rather than a bogus number.
  if (std::isnan(v)) return "null";
  char buf[64];
  // %.17g round-trips doubles but is noisy; %.6g is plenty for metrics.
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string DumpJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n";
  out += "  \"sim_time_ns\": " + std::to_string(snapshot.at) + ",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": {\"value\": " + JsonNumber(gauge.value) + ", \"samples\": [";
    bool first_sample = true;
    for (const GaugeSample& sample : gauge.samples) {
      if (!first_sample) out += ", ";
      first_sample = false;
      out += "[" + std::to_string(sample.at) + ", " +
             JsonNumber(sample.value) + "]";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + JsonNumber(h.sum);
    out += ", \"min\": " + JsonNumber(h.min);
    out += ", \"max\": " + JsonNumber(h.max);
    out += ", \"p50\": " + JsonNumber(h.p50);
    out += ", \"p90\": " + JsonNumber(h.p90);
    out += ", \"p95\": " + JsonNumber(h.p95);
    out += ", \"p99\": " + JsonNumber(h.p99);
    out += ", \"buckets\": [";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b > 0) out += ", ";
      const std::string le =
          b < h.bounds.size() ? JsonNumber(h.bounds[b]) : "\"inf\"";
      out += "[" + le + ", " + std::to_string(h.bucket_counts[b]) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

std::string DumpJson() { return DumpJson(Metrics().Snapshot()); }

}  // namespace ustore::obs
