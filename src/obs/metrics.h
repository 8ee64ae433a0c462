// Process-wide metrics registry stamped with simulated time.
//
// Three metric kinds cover everything the reproduction measures:
//
//   * Counter   — monotonically increasing uint64 (ops, RPCs, elections);
//   * Gauge     — a level (unit power draw, attached flows): its last value
//                 and the sim time of the Set that wrote it;
//   * Histogram — fixed upper-bound buckets with count/sum/min/max and
//                 linear-interpolation quantile estimation (service times,
//                 RPC latencies, switch flips per command).
//
// Names follow `component.metric` with a unit suffix where applicable
// (`_us`, `_bytes`, `_w`); see the README convention table. The registry is
// a singleton (`obs::Metrics()`) so instrumentation points anywhere in the
// stack need no plumbing; experiments call `Clear()` between runs and
// `BindSimulator()` so snapshots carry simulated — not wall-clock — time.
// Snapshots never reset anything: per-interval views come from
// WindowedAggregator (obs/health.h), which differences two snapshots.
//
// Parallel runs (core::RunShardedFleet's units, a ShardedCluster's groups)
// redirect the singletons per thread: a ScopedObsBinding installed on a
// worker thread makes obs::Metrics() and obs::Tracer() resolve to
// unit-local instances for the binding's lifetime, so N deploy-unit
// simulations can run concurrently without sharing (or locking) any
// observability state. Within one binding everything remains
// single-threaded, like the simulator it observes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace ustore::sim {
class Simulator;
}  // namespace ustore::sim

namespace ustore::obs {

class Counter {
 public:
  void Increment(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value, sim::Time at) {
    value_ = value;
    at_ = at;
  }
  double value() const { return value_; }
  // The stamp of the last Set; 0 for a gauge never set.
  sim::Time at() const { return at_; }

 private:
  double value_ = 0;
  sim::Time at_ = 0;
};

// Quantile estimate (q in [0,1]) from bucket counts: linear interpolation
// inside the bucket holding the q-th of `count` samples, across that
// bucket's span (the first bucket starts at max(0, min), the overflow
// bucket ends at max), clamped to [min, max]. NaN, not 0, when count is 0:
// an empty histogram has no quantiles, and 0 would read as a measured zero
// (consumers render it as JSON null or a "-" cell). `counts` has one entry
// per bound plus the overflow bucket.
double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& counts,
                      std::uint64_t count, double min, double max, double q);

class Histogram {
 public:
  // `bounds` are inclusive upper bucket bounds, strictly increasing; an
  // implicit +inf bucket catches the overflow.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / count_; }

  // BucketQuantile over this histogram's buckets and observed range.
  double Quantile(double q) const {
    return BucketQuantile(bounds_, counts_, count_, min_, max_, q);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

// Default bucket bounds for microsecond-scale latencies: 1us .. 100s in a
// 1-2-5 progression.
std::vector<double> LatencyBucketsUs();
// Small-integer buckets (rounds, flips, queue depths): 1..100.
std::vector<double> CountBuckets();

struct MetricsSnapshot {
  sim::Time at = 0;
  std::map<std::string, std::uint64_t> counters;
  struct GaugeState {
    double value = 0;
    sim::Time at = 0;  // the stamp of the Set that wrote `value`
  };
  std::map<std::string, GaugeState> gauges;
  struct HistogramState {
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0;
    double p50 = 0, p90 = 0, p95 = 0, p99 = 0;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
  };
  std::map<std::string, HistogramState> histograms;
};

// Deterministic merge of per-shard/per-group snapshots (DESIGN.md §12):
// counters sum; histograms with matching bounds merge bucket-wise, with
// quantiles re-estimated from the merged buckets (mismatched bounds keep
// the first part's buckets and only fold in count/sum/min/max); a gauge
// takes the state — value and stamp — of the part with the largest stamp
// for it, the earlier part winning ties, so a merged part competes with
// its newest stamp. `at` is the max across parts. The result is a pure
// function of the parts vector, so merging per-group registries in group
// order yields bit-identical output at any shard count.
MetricsSnapshot MergeSnapshots(const std::vector<MetricsSnapshot>& parts);

class MetricsRegistry {
 public:
  using TimeSource = std::function<sim::Time()>;

  MetricsRegistry();

  // Get-or-create by name. Histogram bounds are fixed at first creation;
  // later callers get the existing instance regardless of `bounds`. Names
  // are looked up as views and copied into a key only on a miss, and the
  // bounds-less overload only materializes the default LatencyBucketsUs()
  // vector on a miss, so steady-state lookups never heap-allocate.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds);

  // Convenience mirroring the common instrumentation one-liners.
  void Increment(std::string_view name, std::uint64_t by = 1) {
    GetCounter(name).Increment(by);
  }
  void SetGauge(std::string_view name, double value) {
    GetGauge(name).Set(value, now());
  }
  void Observe(std::string_view name, double value) {
    GetHistogram(name).Record(value);
  }

  // Snapshot of every metric, stamped with the current simulated time.
  MetricsSnapshot Snapshot() const;

  // Drops every metric entirely (experiment/test isolation).
  void Clear();

  // Bumped by Clear(); lets cached metric handles detect that their pointer
  // was invalidated. (Map nodes are otherwise stable, so handles survive
  // unrelated metric creation.)
  std::uint64_t generation() const { return generation_; }

  void set_time_source(TimeSource source) { time_source_ = std::move(source); }
  sim::Time now() const { return time_source_ ? time_source_() : 0; }

 private:
  TimeSource time_source_;
  std::uint64_t generation_ = 1;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// The registry every instrumentation point on this thread writes to: the
// thread's ScopedObsBinding target if one is installed, the process-wide
// default otherwise.
MetricsRegistry& Metrics();

namespace internal {
// Identifies the current thread's binding state. 0 on every thread with no
// ScopedObsBinding (all map to the one process-default registry); each
// installed binding gets a process-unique nonzero value, restored on
// destruction. Cached metric handles key on this so their fast path is a
// thread-local compare instead of an out-of-line Metrics() call: a matching
// epoch proves the handle's cached registry is still the thread-current one
// (and still alive — a live nonzero epoch implies a live binding).
extern thread_local std::uint64_t obs_epoch;
}  // namespace internal

class TraceBuffer;

// Redirects obs::Metrics() and obs::Tracer() on the *current thread* to the
// given instances for this object's lifetime (restoring the previous
// binding on destruction; bindings nest). This is what gives every fleet
// unit its own isolated metric/trace space when units run on a thread pool:
// existing instrumentation points keep calling the singleton accessors and
// transparently land in the unit-local registries.
class ScopedObsBinding {
 public:
  ScopedObsBinding(MetricsRegistry* metrics, TraceBuffer* tracer);
  ~ScopedObsBinding();
  ScopedObsBinding(const ScopedObsBinding&) = delete;
  ScopedObsBinding& operator=(const ScopedObsBinding&) = delete;

 private:
  MetricsRegistry* prev_metrics_;
  TraceBuffer* prev_tracer_;
  std::uint64_t prev_epoch_;
};

namespace internal {
// The one validity rule behind CounterHandle, GaugeHandle and
// HistogramHandle: the string-keyed map walk happens once, then each use
// is two compares (binding epoch, registry generation) plus a pointer
// dereference — no out-of-line call. The epoch check must short-circuit
// before the generation load: only a matching epoch guarantees registry_
// is alive.
template <typename Metric>
class MetricCache {
 public:
  // The cached metric while it is valid; otherwise `lookup` applied to the
  // thread-current registry, cached.
  template <typename Lookup>
  Metric& Resolve(const Lookup& lookup) {
    if (cached_ != nullptr && epoch_ == obs_epoch &&
        generation_ == registry_->generation()) {
      return *cached_;
    }
    MetricsRegistry& registry = Metrics();
    cached_ = &lookup(registry);
    registry_ = &registry;
    generation_ = registry.generation();
    epoch_ = obs_epoch;
    return *cached_;
  }
  // The registry the last Resolve returned a metric of.
  MetricsRegistry& registry() const { return *registry_; }

 private:
  Metric* cached_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint64_t epoch_ = 0;
};
}  // namespace internal

// Cached handles to named metrics for hot paths. Handles transparently
// re-resolve after Metrics().Clear() and across ScopedObsBinding changes,
// so they are safe to keep in long-lived objects across experiment resets.
class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}
  Counter& get() {
    return cache_.Resolve([this](MetricsRegistry& registry) -> Counter& {
      return registry.GetCounter(name_);
    });
  }
  void Increment(std::uint64_t by = 1) { get().Increment(by); }

 private:
  std::string name_;
  internal::MetricCache<Counter> cache_;
};

class GaugeHandle {
 public:
  explicit GaugeHandle(std::string name) : name_(std::move(name)) {}
  Gauge& get() {
    return cache_.Resolve([this](MetricsRegistry& registry) -> Gauge& {
      return registry.GetGauge(name_);
    });
  }
  void Set(double value) {
    Gauge& gauge = get();
    gauge.Set(value, cache_.registry().now());
  }

 private:
  std::string name_;
  internal::MetricCache<Gauge> cache_;
};

// Bounds are fixed when the histogram is first created (see
// MetricsRegistry::GetHistogram).
class HistogramHandle {
 public:
  explicit HistogramHandle(std::string name,
                           std::vector<double> bounds = LatencyBucketsUs())
      : name_(std::move(name)), bounds_(std::move(bounds)) {}
  Histogram& get() {
    return cache_.Resolve([this](MetricsRegistry& registry) -> Histogram& {
      return registry.GetHistogram(name_, bounds_);
    });
  }
  void Observe(double value) { get().Record(value); }

 private:
  std::string name_;
  std::vector<double> bounds_;
  internal::MetricCache<Histogram> cache_;
};

// Points the registry's and trace buffer's clocks at `sim` (call once per
// experiment, right after constructing the simulator). Acts on the
// thread-current instances, so a Cluster constructed under a
// ScopedObsBinding clocks its own unit-local registries. Passing nullptr
// restores the zero clock.
void BindSimulator(sim::Simulator* sim);

// Renders the full registry state (or a snapshot taken elsewhere) as a
// single JSON object — the metrics block benches append to their output.
std::string DumpJson();
std::string DumpJson(const MetricsSnapshot& snapshot);

}  // namespace ustore::obs
