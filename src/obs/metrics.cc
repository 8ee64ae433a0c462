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

double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts,
                      std::uint64_t count, double min, double max, double q) {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < target) continue;
    // The target sample lands in bucket b: interpolate across its span.
    const double lower = b == 0 ? std::max(0.0, min) : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : max;
    const double fraction =
        (target - before) / static_cast<double>(counts[b]);
    return std::clamp(lower + fraction * (upper - lower), min, max);
  }
  return max;
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

// The maps compare transparently, so a lookup reads the name as a view;
// a key string is built only when the name is new.
Counter& MetricsRegistry::GetCounter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) it = counters_.emplace(name, Counter()).first;
  return it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.emplace(name, Gauge()).first;
  return it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return GetHistogram(name, LatencyBucketsUs());
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

namespace {

// A snapshot histogram's p50..p99, from its own buckets.
void EstimateQuantiles(MetricsSnapshot::HistogramState& h) {
  const auto quantile = [&h](double q) {
    return BucketQuantile(h.bounds, h.bucket_counts, h.count, h.min, h.max,
                          q);
  };
  h.p50 = quantile(0.50);
  h.p90 = quantile(0.90);
  h.p95 = quantile(0.95);
  h.p99 = quantile(0.99);
}

}  // namespace

MetricsSnapshot MetricsRegistry::Snapshot() const {
  // The registry's maps and the snapshot's share one key order, so every
  // entry is appended at end() — constant time, no per-name descent.
  MetricsSnapshot snapshot;
  snapshot.at = now();
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_hint(snapshot.counters.end(), name,
                                   counter.value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_hint(
        snapshot.gauges.end(), name,
        MetricsSnapshot::GaugeState{gauge.value(), gauge.at()});
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramState state;
    state.count = histogram->count();
    state.sum = histogram->sum();
    state.min = histogram->min();
    state.max = histogram->max();
    state.bounds = histogram->bounds();
    state.bucket_counts = histogram->bucket_counts();
    EstimateQuantiles(state);
    snapshot.histograms.emplace_hint(snapshot.histograms.end(), name,
                                     std::move(state));
  }
  return snapshot;
}

MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot merged;
  for (const MetricsSnapshot& part : parts) {
    merged.at = std::max(merged.at, part.at);
    for (const auto& [name, value] : part.counters) {
      merged.counters[name] += value;
    }
    for (const auto& [name, gauge] : part.gauges) {
      auto [it, inserted] = merged.gauges.try_emplace(name, gauge);
      if (!inserted && gauge.at > it->second.at) it->second = gauge;
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
    EstimateQuantiles(histogram);
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
    out += "    \"" + JsonEscape(name) + "\": {\"value\": " +
           JsonNumber(gauge.value) + ", \"at\": " + std::to_string(gauge.at) +
           "}";
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
