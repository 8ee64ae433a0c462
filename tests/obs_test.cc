#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::obs {
namespace {

// Every test starts from a clean global registry/trace buffer: they are
// process-wide singletons shared across the whole binary.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Metrics().Clear();
    Tracer().Clear();
    BindSimulator(nullptr);
  }
  void TearDown() override {
    Metrics().Clear();
    Tracer().Clear();
    BindSimulator(nullptr);
  }
};

TEST_F(ObsTest, CounterIncrements) {
  Metrics().Increment("test.counter");
  Metrics().Increment("test.counter", 4);
  EXPECT_EQ(Metrics().GetCounter("test.counter").value(), 5u);
}

TEST_F(ObsTest, HistogramStats) {
  Histogram h({10, 20, 50});
  for (double v : {1.0, 12.0, 30.0, 100.0}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 143.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 35.75);
}

TEST_F(ObsTest, HistogramQuantilesInterpolate) {
  Histogram h({10, 20, 50});
  // 100 samples uniform in (0, 10]: every quantile stays inside bucket 0.
  for (int i = 1; i <= 100; ++i) h.Record(i * 0.1);
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, h.min());
  EXPECT_LE(p50, 10.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  // Extremes clamp to the observed range.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max());
}

TEST_F(ObsTest, HistogramOverflowBucketClampsToMax) {
  Histogram h({10});
  h.Record(1000);
  h.Record(2000);
  EXPECT_LE(h.Quantile(0.99), 2000.0);
  EXPECT_GE(h.Quantile(0.99), 1000.0);
}

TEST_F(ObsTest, SnapshotAndResetSemantics) {
  sim::Simulator sim;
  BindSimulator(&sim);
  sim.Schedule(sim::Seconds(3), [] {
    Metrics().Increment("test.ops", 7);
    Metrics().SetGauge("test.state", 2.0);
    Metrics().Observe("test.latency_us", 42.0);
  });
  sim.Schedule(sim::Seconds(5),
               [] { Metrics().Observe("test.latency_us", 300.0); });
  sim.Run();

  const MetricsSnapshot snapshot = Metrics().Snapshot();
  EXPECT_EQ(snapshot.at, sim::Seconds(5));
  EXPECT_EQ(snapshot.counters.at("test.ops"), 7u);
  // A gauge is its value and the stamp of the Set that wrote it, not the
  // snapshot's stamp.
  EXPECT_EQ(snapshot.gauges.at("test.state").value, 2.0);
  EXPECT_EQ(snapshot.gauges.at("test.state").at, sim::Seconds(3));
  const MetricsSnapshot::HistogramState& h =
      snapshot.histograms.at("test.latency_us");
  const Histogram& live = Metrics().GetHistogram("test.latency_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 342.0);
  EXPECT_EQ(h.min, 42.0);
  EXPECT_EQ(h.max, 300.0);
  EXPECT_EQ(h.p50, live.Quantile(0.50));
  EXPECT_EQ(h.p90, live.Quantile(0.90));
  EXPECT_EQ(h.p95, live.Quantile(0.95));
  EXPECT_EQ(h.p99, live.Quantile(0.99));
  EXPECT_EQ(h.bounds, LatencyBucketsUs());
  EXPECT_EQ(h.bucket_counts, live.bucket_counts());

  // Taking a snapshot resets nothing: a second one reads the same state.
  const MetricsSnapshot again = Metrics().Snapshot();
  EXPECT_EQ(again.counters, snapshot.counters);
  EXPECT_EQ(again.gauges.at("test.state").value, 2.0);
  EXPECT_EQ(again.gauges.at("test.state").at, sim::Seconds(3));
  EXPECT_EQ(again.histograms.at("test.latency_us").count, 2u);
  EXPECT_EQ(again.histograms.at("test.latency_us").bucket_counts,
            h.bucket_counts);
}

TEST_F(ObsTest, LoggerWritesFeedLevelCounters) {
  Metrics();  // ensure the observer hook is installed
  USTORE_LOG(Warning) << "obs_test warning";
  USTORE_LOG(Error) << "obs_test error";
  EXPECT_GE(Metrics().GetCounter("log.warnings").value(), 1u);
  EXPECT_GE(Metrics().GetCounter("log.errors").value(), 1u);
}

TEST_F(ObsTest, TraceSpanLifecycle) {
  sim::Simulator sim;
  BindSimulator(&sim);
  SpanId span = kInvalidSpan;
  sim.Schedule(sim::Seconds(1), [&] {
    span = Tracer().Begin("unit", "op");
    Tracer().Annotate(span, "key", "value");
  });
  sim.Schedule(sim::Seconds(2), [&] { Tracer().End(span); });
  sim.Run();

  ASSERT_EQ(Tracer().completed_count(), 1u);
  const TraceSpan done = Tracer().CompletedInOrder().front();
  EXPECT_EQ(done.component, "unit");
  EXPECT_EQ(done.name, "op");
  EXPECT_EQ(done.start, sim::Seconds(1));
  EXPECT_EQ(done.end, sim::Seconds(2));
  EXPECT_EQ(done.duration(), sim::Seconds(1));
  ASSERT_EQ(done.attrs.size(), 1u);
  EXPECT_EQ(done.attrs[0].first, "key");
  EXPECT_EQ(done.attrs[0].second, "value");
}

TEST_F(ObsTest, TraceBufferEvictsOldestWhenFull) {
  TraceBuffer buffer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    buffer.Emit("unit", "op" + std::to_string(i), i, i + 1, {});
  }
  EXPECT_EQ(buffer.completed_count(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  // The survivors are the newest four.
  const std::vector<TraceSpan> spans = buffer.CompletedInOrder();
  EXPECT_EQ(spans.front().name, "op6");
  EXPECT_EQ(spans.back().name, "op9");
}

TEST_F(ObsTest, TimelineIsSortedBySimTime) {
  TraceBuffer buffer;
  buffer.Emit("b", "second", sim::Seconds(2), sim::Seconds(3), {});
  buffer.Emit("a", "first", sim::Seconds(1), sim::Seconds(4), {});
  const std::string timeline = FormatTimeline(buffer);
  const auto first = timeline.find("first");
  const auto second = timeline.find("second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST_F(ObsTest, MetricHandlesCacheAndIncrement) {
  CounterHandle ops("handle.ops");
  ops.Increment();
  ops.Increment(4);
  EXPECT_EQ(Metrics().GetCounter("handle.ops").value(), 5u);

  GaugeHandle state("handle.state");
  state.Set(2.5);
  EXPECT_DOUBLE_EQ(Metrics().GetGauge("handle.state").value(), 2.5);

  HistogramHandle lat("handle.latency_us");
  lat.Observe(10.0);
  lat.Observe(20.0);
  EXPECT_EQ(Metrics().GetHistogram("handle.latency_us").count(), 2u);
}

TEST_F(ObsTest, MetricHandlesSurviveRegistryClear) {
  // Handles cache a pointer into the registry; Clear() invalidates it via
  // the registry generation, so a stale handle re-resolves instead of
  // writing through a dangling pointer.
  CounterHandle ops("handle.ops");
  ops.Increment(3);
  Metrics().Clear();
  ops.Increment(2);
  EXPECT_EQ(Metrics().GetCounter("handle.ops").value(), 2u);

  GaugeHandle state("handle.state");
  state.Set(1.0);
  Metrics().Clear();
  state.Set(7.0);
  EXPECT_DOUBLE_EQ(Metrics().GetGauge("handle.state").value(), 7.0);

  HistogramHandle lat("handle.latency_us");
  lat.Observe(5.0);
  Metrics().Clear();
  lat.Observe(9.0);
  EXPECT_EQ(Metrics().GetHistogram("handle.latency_us").count(), 1u);
}

TEST_F(ObsTest, DumpJsonContainsEveryKind) {
  Metrics().set_time_source([] { return sim::Time(1500); });
  Metrics().Increment("test.ops");
  Metrics().SetGauge("test.state", 1.5);
  Metrics().Observe("test.latency_us", 5.0);
  const std::string json = DumpJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  // A gauge renders as its value and the stamp of its last Set.
  EXPECT_NE(json.find("\"test.state\": {\"value\": 1.5, \"at\": 1500}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(ObsTest, EmptyHistogramQuantileIsNaN) {
  Histogram h({10, 20, 50});
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.Quantile(0.99)));
  h.Record(15.0);
  EXPECT_FALSE(std::isnan(h.Quantile(0.5)));
  // NaN quantiles must still render as valid JSON.
  Metrics().GetHistogram("test.empty_hist");
  const std::string json = DumpJson();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST_F(ObsTest, TraceContextPropagation) {
  TraceBuffer buffer;
  const SpanId root = buffer.Begin("client", "read");
  const TraceContext ctx = buffer.ContextFor(root);
  EXPECT_TRUE(ctx.active());
  EXPECT_EQ(ctx.trace_id, root);
  EXPECT_EQ(ctx.parent, root);

  const SpanId child = buffer.Begin("rpc", "call", ctx);
  const TraceContext child_ctx = buffer.ContextFor(child);
  EXPECT_EQ(child_ctx.trace_id, root);  // same tree
  EXPECT_EQ(child_ctx.parent, child);

  const SpanId grandchild = buffer.Begin("disk:d0", "io", child_ctx);
  buffer.End(grandchild);
  buffer.End(child);
  buffer.End(root);

  const std::vector<TraceSpan> spans = buffer.CompletedInOrder();
  ASSERT_EQ(spans.size(), 3u);
  for (const TraceSpan& span : spans) EXPECT_EQ(span.trace_id, root);
  EXPECT_EQ(spans[0].parent, child);       // grandchild completed first
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, kInvalidSpan);
}

TEST_F(ObsTest, DisabledTracerDropsEverything) {
  TraceBuffer buffer;
  buffer.set_enabled(false);
  EXPECT_EQ(buffer.Begin("unit", "op"), kInvalidSpan);
  EXPECT_EQ(buffer.Emit("unit", "op", 1, 2, {}), kInvalidSpan);
  EXPECT_EQ(buffer.completed_count(), 0u);
  EXPECT_FALSE(buffer.ContextFor(kInvalidSpan).active());
  buffer.set_enabled(true);
  const SpanId span = buffer.Begin("unit", "op");
  EXPECT_NE(span, kInvalidSpan);
  buffer.End(span);
  EXPECT_EQ(buffer.completed_count(), 1u);
}

TEST_F(ObsTest, HeadSamplingKeepsWholeTreesDeterministically) {
  // 1-in-4 sampling: roots 0, 4, 8, ... are recorded with ALL their
  // descendants; the other trees vanish entirely — head sampling never
  // produces a partial tree, and a repeat run samples the same roots.
  for (int run = 0; run < 2; ++run) {
    TraceBuffer buffer;
    buffer.set_sample_every(4);
    std::vector<SpanId> roots;
    for (int i = 0; i < 8; ++i) {
      const SpanId root = buffer.Begin("client", "read");
      const SpanId child = buffer.Begin("rpc", "call", buffer.ContextFor(root));
      const SpanId leaf =
          buffer.Begin("disk:d0", "io", buffer.ContextFor(child));
      if (i % 4 == 0) {
        EXPECT_GT(root, kUnsampledSpan) << "root " << i;
        EXPECT_GT(leaf, kUnsampledSpan) << "root " << i;
      } else {
        EXPECT_EQ(root, kUnsampledSpan) << "root " << i;
        // The suppressed root's context still marks the tree, so the
        // descendants are suppressed too instead of becoming new roots.
        EXPECT_EQ(child, kUnsampledSpan) << "root " << i;
        EXPECT_EQ(leaf, kUnsampledSpan) << "root " << i;
      }
      buffer.End(leaf);
      buffer.End(child);
      buffer.End(root);
      if (root != kUnsampledSpan) roots.push_back(root);
    }
    ASSERT_EQ(roots.size(), 2u);
    const std::vector<TraceSpan> spans = buffer.CompletedInOrder();
    ASSERT_EQ(spans.size(), 6u);  // 2 sampled trees x 3 spans
    for (const TraceSpan& span : spans) {
      EXPECT_TRUE(span.trace_id == roots[0] || span.trace_id == roots[1]);
    }
    // Operations on the sentinel are harmless no-ops.
    buffer.Annotate(kUnsampledSpan, "k", "v");
    buffer.End(kUnsampledSpan);
    EXPECT_EQ(buffer.completed_count(), 6u);
  }
}

TEST_F(ObsTest, EmitWritesClosedSpanStraightToRing) {
  TraceBuffer buffer(2);
  const SpanId parent = buffer.Begin("disk:d0", "io_batch");
  const SpanId first =
      buffer.Emit("disk:d0", "io", 10, 25, buffer.ContextFor(parent),
                  {{"dir", "read"}, {"size", 4096}, {"service_ns", 15}});
  EXPECT_GT(first, kUnsampledSpan);
  EXPECT_EQ(buffer.open_count(), 1u);  // only the parent; Emit skips the slab
  ASSERT_EQ(buffer.completed_count(), 1u);
  const TraceSpan got = buffer.CompletedInOrder()[0];
  EXPECT_EQ(got.trace_id, parent);
  EXPECT_EQ(got.parent, parent);
  EXPECT_EQ(got.start, 10);
  EXPECT_EQ(got.end, 25);
  ASSERT_EQ(got.attrs.size(), 3u);
  EXPECT_EQ(got.attrs[0].second, "read");
  EXPECT_EQ(got.attrs[1], (std::pair<std::string, std::string>{"size", "4096"}));
  EXPECT_EQ(got.attrs[2].second, "15");

  // Recycling: fill past capacity and check eviction accounting + that the
  // recycled slot's attrs are fully overwritten (fewer attrs than evicted).
  buffer.Emit("disk:d0", "io", 30, 40, buffer.ContextFor(parent),
              {{"dir", "write"}, {"size", 8192}, {"service_ns", 7}});
  const SpanId third =
      buffer.Emit("disk:d0", "io", 50, 60, buffer.ContextFor(parent), {});
  EXPECT_EQ(buffer.dropped(), 1u);
  const std::vector<TraceSpan> spans = buffer.CompletedInOrder();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, third);
  EXPECT_TRUE(spans[1].attrs.empty());
}

// Extracts every `"key": value` integer field from a JSON dump.
std::vector<std::uint64_t> JsonIds(const std::string& json, const char* key) {
  std::vector<std::uint64_t> out;
  const std::string needle = std::string("\"") + key + "\": ";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::strtoull(json.c_str() + pos, nullptr, 10));
  }
  return out;
}

TEST_F(ObsTest, EvictionLeavesExportedForestValid) {
  // Chains of parent->child spans where eviction removes parents: every
  // surviving span whose parent was evicted must be re-rooted (parent 0) in
  // the export, never left dangling.
  TraceBuffer buffer(/*capacity=*/6);
  for (int tree = 0; tree < 5; ++tree) {
    const sim::Time base = tree * 10;
    const SpanId root = buffer.StartAt("client", "read", base);
    const SpanId mid =
        buffer.StartAt("rpc", "call", base + 1, buffer.ContextFor(root));
    const SpanId leaf =
        buffer.StartAt("disk:d0", "io", base + 2, buffer.ContextFor(mid));
    buffer.EndAt(leaf, base + 3);
    buffer.EndAt(mid, base + 4);
    buffer.EndAt(root, base + 5);
  }
  EXPECT_EQ(buffer.completed_count(), 6u);
  EXPECT_EQ(buffer.dropped(), 9u);

  const std::string json = DumpTraceJson(buffer);
  const std::vector<std::uint64_t> ids = JsonIds(json, "id");
  const std::vector<std::uint64_t> parents = JsonIds(json, "parent");
  ASSERT_EQ(ids.size(), 6u);
  ASSERT_EQ(parents.size(), 6u);
  for (std::uint64_t parent : parents) {
    if (parent == 0) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), parent), ids.end())
        << "dangling parent id " << parent << " in export";
  }
  // At least one span was actually re-rooted by eviction (the oldest
  // surviving tree lost its root).
  EXPECT_NE(std::count(parents.begin(), parents.end(), 0u), 0);
}

TEST_F(ObsTest, RoundTripExportIsStable) {
  TraceBuffer buffer;
  const SpanId root = buffer.Begin("client", "read");
  buffer.Annotate(root, "bytes", "4096");
  const SpanId child = buffer.Begin("rpc", "call", buffer.ContextFor(root));
  buffer.End(child);
  buffer.End(root);
  const std::string once = DumpTraceJson(buffer);
  // Serializing the snapshot through the vector overload must be
  // byte-identical — trace_inspect --verify depends on this.
  const std::string twice = DumpTraceJson(buffer.CompletedInOrder());
  EXPECT_EQ(once, twice);
  EXPECT_EQ(TraceDigest(buffer), TraceDigest(buffer));

  const std::string chrome = DumpChromeTraceJson(buffer);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
}

// DumpTraceJson restated the plain way: copy the ring, stable-sort the copy
// by (start, id), render through strings, rewrite unresolved parents to 0.
std::string ReferenceTraceJson(const TraceBuffer& buffer) {
  std::vector<TraceSpan> spans = buffer.CompletedInOrder();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.id < b.id;
                   });
  std::set<SpanId> present;
  for (const TraceSpan& span : spans) present.insert(span.id);
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    const SpanId parent = present.count(span.parent) ? span.parent : 0;
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"id\": " + std::to_string(span.id) +
           ", \"trace_id\": " + std::to_string(span.trace_id) +
           ", \"parent\": " + std::to_string(parent) +
           ", \"component\": \"" + span.component + "\", \"name\": \"" +
           span.name + "\", \"start_ns\": " + std::to_string(span.start) +
           ", \"end_ns\": " + std::to_string(span.end) + ", \"attrs\": {";
    for (std::size_t a = 0; a < span.attrs.size(); ++a) {
      if (a > 0) out += ", ";
      out += "\"" + span.attrs[a].first + "\": \"" + span.attrs[a].second +
             "\"";
    }
    out += "}}";
  }
  out += spans.empty() ? "]" : "\n]";
  return out;
}

TEST(TraceDigestTest, MatchesFnvOfDumpOnRandomBuffers) {
  // Random buffers: small rings that wrap and evict, start times from a
  // narrow window (ties), parents that are evicted, still open or present,
  // and 0-3 attrs per span. TraceDigest streams the bytes it hashes, so it
  // must equal FNV-1a of the rendered document, and the document must equal
  // the plain rendering.
  std::mt19937_64 rng(20261020);
  const char* const components[] = {"client", "rpc", "disk:d0"};
  const char* const values[] = {"read", "write", ""};
  int wrapped = 0;
  int open_parents = 0;     // parent still open: renders as 0
  int evicted_parents = 0;  // parent ended but evicted: renders as 0
  int ties = 0;
  int attr_counts[4] = {0, 0, 0, 0};
  for (int trial = 0; trial < 300; ++trial) {
    TraceBuffer buffer(1 + rng() % 12);
    std::vector<SpanId> open;
    std::vector<TraceContext> ended;  // {trace_id, id} of every ended span
    const int steps = static_cast<int>(rng() % 48);
    for (int step = 0; step < steps; ++step) {
      TraceContext ctx;
      switch (rng() % 3) {
        case 0: break;  // a new root
        case 1:
          if (!open.empty()) ctx = buffer.ContextFor(open[rng() % open.size()]);
          break;
        default:
          if (!ended.empty()) ctx = ended[rng() % ended.size()];
      }
      const char* component = components[rng() % 3];
      const sim::Time start = static_cast<sim::Time>(rng() % 6);
      const int attrs = static_cast<int>(rng() % 4);
      const SpanAttr a0{"dir", values[rng() % 3]};
      const SpanAttr a1{"size", rng() % 100000};
      const SpanAttr a2{"k", values[rng() % 3]};
      switch (rng() % 3) {
        case 0: {  // a one-shot closed span
          const sim::Time end = start + static_cast<sim::Time>(rng() % 4);
          SpanId id = kInvalidSpan;
          switch (attrs) {
            case 0: id = buffer.Emit(component, "io", start, end, ctx); break;
            case 1: id = buffer.Emit(component, "io", start, end, ctx, {a0});
              break;
            case 2:
              id = buffer.Emit(component, "io", start, end, ctx, {a0, a1});
              break;
            default:
              id = buffer.Emit(component, "io", start, end, ctx,
                               {a0, a1, a2});
          }
          ended.push_back({ctx.active() ? ctx.trace_id : id, id});
          break;
        }
        case 1: {  // open a span, annotated up to 3 times
          const SpanId id = buffer.StartAt(component, "call", start, ctx);
          for (int a = 0; a < attrs; ++a) {
            buffer.Annotate(id, "note", values[rng() % 3]);
          }
          open.push_back(id);
          break;
        }
        default:  // end an open span
          if (open.empty()) break;
          const std::size_t pick = rng() % open.size();
          const SpanId id = open[pick];
          const TraceContext as_parent = buffer.ContextFor(id);
          buffer.EndAt(id, start + 7);
          ended.push_back(as_parent);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }

    const std::vector<TraceSpan> spans = buffer.CompletedInOrder();
    std::set<SpanId> present;
    std::set<sim::Time> starts;
    for (const TraceSpan& span : spans) present.insert(span.id);
    for (const TraceSpan& span : spans) {
      if (std::find(open.begin(), open.end(), span.parent) != open.end()) {
        ++open_parents;
      } else if (span.parent != 0 && present.count(span.parent) == 0) {
        ++evicted_parents;
      }
      if (!starts.insert(span.start).second) ++ties;
      ++attr_counts[std::min<std::size_t>(span.attrs.size(), 3)];
    }
    if (buffer.dropped() > 0) ++wrapped;

    const std::string dump = DumpTraceJson(buffer);
    ASSERT_EQ(dump, ReferenceTraceJson(buffer)) << "trial " << trial;
    ASSERT_EQ(DumpTraceJson(spans), dump) << "trial " << trial;
    ASSERT_EQ(TraceDigest(buffer), Fnv1a(dump)) << "trial " << trial;
  }
  // Every shape the streamed renderer must get right actually occurred.
  EXPECT_GT(wrapped, 0);
  EXPECT_GT(open_parents, 0);
  EXPECT_GT(evicted_parents, 0);
  EXPECT_GT(ties, 0);
  for (const int n : attr_counts) EXPECT_GT(n, 0);
}

TEST_F(ObsTest, AnalyzeRequestTreeAttributesPhases) {
  // Hand-built serial cold-read tree:
  //   client.read   [0, 100]
  //     rpc.call    [5, 95]
  //       iscsi     [10, 90]
  //         disk io [20, 80] service_ns=25
  //           spin  [20, 50]
  std::vector<TraceSpan> spans;
  TraceSpan root{1, 1, 0, "client", "read", 0, 100, {}};
  TraceSpan rpc{2, 1, 1, "rpc", "call", 5, 95, {}};
  TraceSpan target{3, 1, 2, "iscsi:host-0", "target_read", 10, 90, {}};
  TraceSpan io{4, 1, 3, "disk:d0", "io", 20, 80, {{"service_ns", "25"}}};
  TraceSpan spin{5, 1, 4, "disk:d0", "spin_up", 20, 50, {}};
  spans = {root, rpc, target, io, spin};

  const PhaseBreakdown b = AnalyzeRequestTree(spans, 1);
  EXPECT_EQ(b.e2e, 100);
  EXPECT_EQ(b.spin_up, 30);       // [20,50]
  EXPECT_EQ(b.disk_service, 25);  // attr, inside io's exclusive 30ns
  EXPECT_EQ(b.queue_wait, 5);     // io exclusive (30) - service (25)
  EXPECT_EQ(b.rpc, 10);           // [5,95] minus [10,90]
  EXPECT_EQ(b.fabric_transfer, 20);  // [10,90] minus [20,80]
  EXPECT_EQ(b.retry_backoff, 0);
  EXPECT_EQ(b.other, 10);         // root slack [0,5)+(95,100]
  // The taxonomy partitions the root span exactly.
  EXPECT_EQ(b.Sum(), b.e2e);

  EXPECT_EQ(TraceRoots(spans).size(), 1u);
  EXPECT_EQ(TraceRoots(spans).front(), 1u);
}

TEST_F(ObsTest, WindowedAggregatorDeltasAndQuantiles) {
  sim::Simulator sim;
  BindSimulator(&sim);
  MetricsRegistry registry;
  registry.set_time_source([] { return sim::Time(0); });
  WindowedAggregator agg;

  registry.Increment("ops", 10);
  Histogram& lat = registry.GetHistogram("lat_us", {10.0, 100.0});
  lat.Record(5.0);
  lat.Record(50.0);
  auto w1 = agg.CloseWindow(registry, sim::Seconds(1));
  EXPECT_EQ(w1.counter_deltas.at("ops"), 10u);
  EXPECT_EQ(w1.histograms.at("lat_us").count, 2u);
  // One sample per bucket: the median ends bucket [0, 10], and q = 0.75
  // lands halfway across (10, 100].
  EXPECT_EQ(w1.histograms.at("lat_us").Quantile(0.5), 10.0);
  EXPECT_EQ(w1.histograms.at("lat_us").Quantile(0.75), 55.0);

  // Second window: only 3 more ops, no histogram samples -> NaN quantile.
  registry.Increment("ops", 3);
  auto w2 = agg.CloseWindow(registry, sim::Seconds(2));
  EXPECT_EQ(w2.counter_deltas.at("ops"), 3u);
  EXPECT_EQ(w2.histograms.at("lat_us").count, 0u);
  EXPECT_TRUE(std::isnan(w2.histograms.at("lat_us").Quantile(0.99)));

  // Third window: an overflow sample reads as the top bound.
  lat.Record(500.0);
  auto w3 = agg.CloseWindow(registry, sim::Seconds(3));
  EXPECT_EQ(w3.histograms.at("lat_us").count, 1u);
  EXPECT_EQ(w3.histograms.at("lat_us").Quantile(0.5), 100.0);
  BindSimulator(nullptr);
}

TEST_F(ObsTest, HealthMonitorFiresAndResolvesDeterministically) {
  auto run = [] {
    MetricsRegistry registry;
    registry.set_time_source([] { return sim::Time(0); });
    std::vector<SloRule> rules(1);
    rules[0].name = "retry-rate";
    rules[0].metric = "client.master_retries";
    rules[0].signal = SloRule::Signal::kCounterRate;
    rules[0].threshold = 5.0;  // per second
    rules[0].for_windows = 2;
    HealthMonitor monitor(sim::Seconds(1), std::move(rules));

    // Two breaching windows -> fired; one clean window -> resolved.
    registry.Increment("client.master_retries", 10);
    monitor.Tick(registry, sim::Seconds(1));
    EXPECT_TRUE(monitor.alerts().empty());
    registry.Increment("client.master_retries", 10);
    monitor.Tick(registry, sim::Seconds(2));
    monitor.Tick(registry, sim::Seconds(3));
    return monitor.ReportJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);  // bit-identical across repeated runs
  EXPECT_NE(first.find("\"kind\": \"fired\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\": \"resolved\""), std::string::npos);
  EXPECT_NE(first.find("retry-rate"), std::string::npos);
}

TEST_F(ObsTest, HealthMonitorFinalizeFlushesPartialWindow) {
  MetricsRegistry registry;
  registry.set_time_source([] { return sim::Time(0); });
  std::vector<SloRule> rules(1);
  rules[0].name = "op-count";
  rules[0].metric = "ops";
  rules[0].signal = SloRule::Signal::kCounterDelta;
  rules[0].threshold = 5.0;
  HealthMonitor monitor(sim::Seconds(10), std::move(rules));

  registry.Increment("ops", 20);
  monitor.Finalize(registry, sim::Seconds(3));  // partial window flush
  EXPECT_EQ(monitor.windows_evaluated(), 1);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_TRUE(monitor.alerts().front().fired);
  // Finalize is idempotent at the same instant.
  monitor.Finalize(registry, sim::Seconds(3));
  EXPECT_EQ(monitor.windows_evaluated(), 1);
}

// ---------------------------------------------------------------------------
// MergeSnapshots: the deterministic roll-up of per-group and per-unit
// registries behind the sharded-cluster and fleet reports.

TEST(MergeSnapshotsTest, SumsCountersAndMergesHistograms) {
  MetricsRegistry a, b;
  a.Increment("x.count", 3);
  b.Increment("x.count", 4);
  b.Increment("y.count", 1);
  a.Observe("x.lat_us", 10.0);
  a.Observe("x.lat_us", 20.0);
  b.Observe("x.lat_us", 1000.0);
  a.GetGauge("x.g").Set(1.0, 10);
  b.GetGauge("x.g").Set(2.0, 20);  // newer: wins

  const MetricsSnapshot merged =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(merged.counters.at("x.count"), 7u);
  EXPECT_EQ(merged.counters.at("y.count"), 1u);
  const auto& h = merged.histograms.at("x.lat_us");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 1030.0);
  EXPECT_DOUBLE_EQ(h.min, 10.0);
  EXPECT_DOUBLE_EQ(h.max, 1000.0);
  EXPECT_GT(h.p50, 0.0);
  EXPECT_DOUBLE_EQ(merged.gauges.at("x.g").value, 2.0);
  EXPECT_EQ(merged.gauges.at("x.g").at, 20);

  // Pure function of the parts: merging twice is bit-identical.
  const MetricsSnapshot again =
      MergeSnapshots({a.Snapshot(), b.Snapshot()});
  EXPECT_EQ(again.counters, merged.counters);
}

// Edge cases. The fleet/sharded reports merge per-unit and per-group
// registries that may be empty (a unit whose workload never ran) or only
// partially overlapping (different groups touch different instruments);
// the merge must stay well-defined and order-independent on the
// non-overlapping parts.

TEST_F(ObsTest, MergeSnapshotsOfNothingIsEmpty) {
  const MetricsSnapshot merged = MergeSnapshots({});
  EXPECT_EQ(merged.at, 0);
  EXPECT_TRUE(merged.counters.empty());
  EXPECT_TRUE(merged.gauges.empty());
  EXPECT_TRUE(merged.histograms.empty());
}

TEST_F(ObsTest, MergeSnapshotsEmptyRegistriesAreIdentity) {
  MetricsRegistry empty_a, empty_b, populated;
  populated.Increment("unit.ops", 9);
  populated.Observe("unit.lat_us", 42.0);
  populated.GetGauge("unit.depth").Set(3.0, 7);

  // Empty parts on either side must not perturb the populated one.
  const MetricsSnapshot merged = MergeSnapshots(
      {empty_a.Snapshot(), populated.Snapshot(), empty_b.Snapshot()});
  EXPECT_EQ(merged.counters.at("unit.ops"), 9u);
  EXPECT_EQ(merged.histograms.at("unit.lat_us").count, 1u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("unit.depth").value, 3.0);
  EXPECT_EQ(merged.counters.size(), 1u);

  // An all-empty merge is an empty snapshot, not a crash.
  const MetricsSnapshot nothing =
      MergeSnapshots({empty_a.Snapshot(), empty_b.Snapshot()});
  EXPECT_TRUE(nothing.counters.empty());
  EXPECT_TRUE(nothing.histograms.empty());
}

TEST_F(ObsTest, MergeSnapshotsPartialOverlapKeepsDisjointNames) {
  MetricsRegistry a, b, c;
  a.Increment("shared.count", 1);
  b.Increment("shared.count", 2);
  a.Increment("only.a", 10);
  b.Increment("only.b", 20);
  c.Observe("only.c_us", 5.0);
  b.Observe("shared.lat_us", 1.0);
  c.Observe("shared.lat_us", 3.0);

  const MetricsSnapshot merged =
      MergeSnapshots({a.Snapshot(), b.Snapshot(), c.Snapshot()});
  EXPECT_EQ(merged.counters.at("shared.count"), 3u);
  EXPECT_EQ(merged.counters.at("only.a"), 10u);
  EXPECT_EQ(merged.counters.at("only.b"), 20u);
  EXPECT_EQ(merged.histograms.at("only.c_us").count, 1u);
  const auto& shared = merged.histograms.at("shared.lat_us");
  EXPECT_EQ(shared.count, 2u);
  EXPECT_DOUBLE_EQ(shared.sum, 4.0);
  EXPECT_DOUBLE_EQ(shared.min, 1.0);
  EXPECT_DOUBLE_EQ(shared.max, 3.0);

  // A part that lacks a name entirely behaves like contributing zero:
  // merging {a} and {a, empty} agree.
  MetricsRegistry empty;
  EXPECT_EQ(MergeSnapshots({a.Snapshot()}).counters,
            MergeSnapshots({a.Snapshot(), empty.Snapshot()}).counters);
}

TEST(MergeSnapshotsTest, NestedPartTakesGaugeFromItsNewestSample) {
  // A merged gauge keeps the stamp of the part its value came from, so a
  // merged part competes with its newest Set, not its last part's. Here
  // `a` holds the newest Set but sits first in {a, b}; `c` must not
  // outrank it just because b's older Set came last.
  MetricsRegistry a, b, c;
  a.GetGauge("unit.power_w").Set(3.0, 300);
  b.GetGauge("unit.power_w").Set(2.0, 100);
  c.GetGauge("unit.power_w").Set(1.0, 200);
  const MetricsSnapshot ab = MergeSnapshots({a.Snapshot(), b.Snapshot()});
  ASSERT_DOUBLE_EQ(ab.gauges.at("unit.power_w").value, 3.0);
  ASSERT_EQ(ab.gauges.at("unit.power_w").at, 300);
  const MetricsSnapshot merged = MergeSnapshots({ab, c.Snapshot()});
  EXPECT_DOUBLE_EQ(merged.gauges.at("unit.power_w").value, 3.0);
  EXPECT_EQ(merged.gauges.at("unit.power_w").at, 300);
}

// ---------------------------------------------------------------------------
// Snapshot and MergeSnapshots against plain references: seeded random
// registries whose names come from one small pool, so names interleave and
// collide across parts.

// What a registry was told, kept in plain maps.
struct RegistryModel {
  sim::Time at = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, MetricsSnapshot::GaugeState> gauges;
  struct Recorded {
    std::vector<double> bounds;
    std::vector<double> values;
  };
  std::map<std::string, Recorded> histograms;
};

MetricsSnapshot ReferenceSnapshot(const RegistryModel& model) {
  MetricsSnapshot out;
  out.at = model.at;
  out.counters = model.counters;
  out.gauges = model.gauges;
  for (const auto& [name, recorded] : model.histograms) {
    Histogram live(recorded.bounds);
    for (const double v : recorded.values) live.Record(v);
    MetricsSnapshot::HistogramState& h = out.histograms[name];
    h.count = live.count();
    h.sum = live.sum();
    h.min = live.min();
    h.max = live.max();
    h.p50 = live.Quantile(0.50);
    h.p90 = live.Quantile(0.90);
    h.p95 = live.Quantile(0.95);
    h.p99 = live.Quantile(0.99);
    h.bounds = live.bounds();
    h.bucket_counts = live.bucket_counts();
  }
  return out;
}

// The documented interpolation, restated over a snapshot's buckets.
double ReferenceQuantile(const MetricsSnapshot::HistogramState& h, double q) {
  if (h.count == 0) return std::nan("");
  const double target = q * static_cast<double>(h.count);
  double cumulative = 0;
  for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
    if (h.bucket_counts[b] == 0) continue;
    const double before = cumulative;
    cumulative += static_cast<double>(h.bucket_counts[b]);
    if (cumulative < target) continue;
    const double lower = b == 0 ? std::max(0.0, h.min) : h.bounds[b - 1];
    const double upper = b < h.bounds.size() ? h.bounds[b] : h.max;
    const double fraction =
        (target - before) / static_cast<double>(h.bucket_counts[b]);
    return std::clamp(lower + fraction * (upper - lower), h.min, h.max);
  }
  return h.max;
}

// MergeSnapshots' rules, one string-keyed lookup at a time.
MetricsSnapshot ReferenceMerge(const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot out;
  for (const MetricsSnapshot& part : parts) {
    out.at = std::max(out.at, part.at);
    for (const auto& [name, value] : part.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, gauge] : part.gauges) {
      const bool first = out.gauges.count(name) == 0;
      MetricsSnapshot::GaugeState& into = out.gauges[name];
      if (first || gauge.at > into.at) {  // ties: the earlier part
        into.value = gauge.value;
        into.at = gauge.at;
      }
    }
    for (const auto& [name, h] : part.histograms) {
      if (out.histograms.count(name) == 0) {
        out.histograms[name] = h;
        continue;
      }
      MetricsSnapshot::HistogramState& into = out.histograms[name];
      if (h.count == 0) continue;
      into.min = into.count == 0 ? h.min : std::min(into.min, h.min);
      into.max = into.count == 0 ? h.max : std::max(into.max, h.max);
      into.count += h.count;
      into.sum += h.sum;
      if (into.bounds != h.bounds) continue;  // first part's buckets stay
      for (std::size_t b = 0; b < into.bucket_counts.size(); ++b) {
        into.bucket_counts[b] += h.bucket_counts[b];
      }
    }
  }
  for (auto& [name, h] : out.histograms) {
    h.p50 = ReferenceQuantile(h, 0.50);
    h.p90 = ReferenceQuantile(h, 0.90);
    h.p95 = ReferenceQuantile(h, 0.95);
    h.p99 = ReferenceQuantile(h, 0.99);
  }
  return out;
}

void ExpectSameQuantile(double actual, double expected,
                        const std::string& what) {
  if (std::isnan(expected)) {
    EXPECT_TRUE(std::isnan(actual)) << what;
  } else {
    EXPECT_EQ(actual, expected) << what;
  }
}

void ExpectSameSnapshot(const MetricsSnapshot& actual,
                        const MetricsSnapshot& expected,
                        const std::string& what) {
  EXPECT_EQ(actual.at, expected.at) << what;
  EXPECT_EQ(actual.counters, expected.counters) << what;
  ASSERT_EQ(actual.gauges.size(), expected.gauges.size()) << what;
  for (auto a = actual.gauges.begin(), e = expected.gauges.begin();
       a != actual.gauges.end(); ++a, ++e) {
    const std::string at = what + " gauge " + e->first;
    ASSERT_EQ(a->first, e->first) << what;
    EXPECT_EQ(a->second.value, e->second.value) << at;
    EXPECT_EQ(a->second.at, e->second.at) << at;
  }
  ASSERT_EQ(actual.histograms.size(), expected.histograms.size()) << what;
  for (auto a = actual.histograms.begin(), e = expected.histograms.begin();
       a != actual.histograms.end(); ++a, ++e) {
    const std::string at = what + " histogram " + e->first;
    ASSERT_EQ(a->first, e->first) << what;
    const MetricsSnapshot::HistogramState& x = a->second;
    const MetricsSnapshot::HistogramState& y = e->second;
    EXPECT_EQ(x.count, y.count) << at;
    EXPECT_EQ(x.sum, y.sum) << at;
    EXPECT_EQ(x.min, y.min) << at;
    EXPECT_EQ(x.max, y.max) << at;
    EXPECT_EQ(x.bounds, y.bounds) << at;
    EXPECT_EQ(x.bucket_counts, y.bucket_counts) << at;
    ExpectSameQuantile(x.p50, y.p50, at + " p50");
    ExpectSameQuantile(x.p90, y.p90, at + " p90");
    ExpectSameQuantile(x.p95, y.p95, at + " p95");
    ExpectSameQuantile(x.p99, y.p99, at + " p99");
  }
}

// Drives `registry` and `model` through the same random operations:
// counter bumps, gauge sets at non-decreasing coarse stamps (so equal
// stamps across registries are common), gauges created but never set,
// and histograms created with one of two bucket layouts (so the same name
// can carry mismatched bounds in different registries), some never
// recorded into.
void FillRandom(std::mt19937_64& rng, MetricsRegistry& registry,
                RegistryModel& model) {
  auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const auto name = [&pick](const char* kind) {
    return std::string("m.") + kind + "." + std::to_string(pick(12));
  };
  sim::Time clock = 0;
  const int ops = 1 + pick(40);
  for (int op = 0; op < ops; ++op) {
    switch (pick(6)) {
      case 0: {
        const std::string n = name("c");
        const std::uint64_t by = static_cast<std::uint64_t>(pick(5));
        registry.Increment(n, by);
        model.counters[n] += by;
        break;
      }
      case 1:
      case 2: {
        clock += 10 * pick(3);
        const std::string n = name("g");
        const double value = pick(100);
        registry.GetGauge(n).Set(value, clock);
        model.gauges[n] = MetricsSnapshot::GaugeState{value, clock};
        break;
      }
      case 3: {
        // A gauge created but never set: value 0 at stamp 0, or whatever
        // an earlier Set left.
        const std::string n = name("g");
        registry.GetGauge(n);
        model.gauges.try_emplace(n);
        break;
      }
      default: {
        const std::string n = name("h");
        std::vector<double> bounds =
            pick(2) == 0 ? LatencyBucketsUs() : CountBuckets();
        Histogram& h = registry.GetHistogram(n, bounds);
        RegistryModel::Recorded& r = model.histograms[n];
        if (r.bounds.empty()) r.bounds = bounds;  // fixed at creation
        if (pick(4) == 0) break;                  // created, never recorded
        const double value = pick(4000) / 10.0;
        h.Record(value);
        r.values.push_back(value);
        break;
      }
    }
  }
  model.at = pick(1000);
  registry.set_time_source([at = model.at] { return at; });
}

TEST(MergeSnapshotsTest, MatchesPlainReferenceOnRandomParts) {
  std::mt19937_64 rng(20240611);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string what = "trial " + std::to_string(trial);
    const int count = 1 + static_cast<int>(rng() % 6);
    std::vector<MetricsRegistry> registries(count);
    std::vector<RegistryModel> models(count);
    std::vector<MetricsSnapshot> parts;
    for (int i = 0; i < count; ++i) {
      FillRandom(rng, registries[i], models[i]);
      parts.push_back(registries[i].Snapshot());
      ExpectSameSnapshot(parts.back(), ReferenceSnapshot(models[i]),
                         what + " snapshot " + std::to_string(i));
    }
    ExpectSameSnapshot(MergeSnapshots(parts), ReferenceMerge(parts),
                       what + " flat merge");

    // Parts that are themselves merges, as RunShardedFleet merges units'
    // merged snapshots: each gauge carries the stamp its value came with.
    const std::size_t split = rng() % (parts.size() + 1);
    const std::vector<MetricsSnapshot> head(parts.begin(),
                                            parts.begin() + split);
    const std::vector<MetricsSnapshot> tail(parts.begin() + split,
                                            parts.end());
    ExpectSameSnapshot(
        MergeSnapshots({MergeSnapshots(tail), MergeSnapshots(head)}),
        ReferenceMerge({ReferenceMerge(tail), ReferenceMerge(head)}),
        what + " nested merge");
  }
}

// ---------------------------------------------------------------------------
// Windowed quantiles against a plain reference.

// The windowed rule, restated: interpolate inside the bucket holding the
// q-th sample, the first bucket starting at 0 and the overflow bucket
// ending at the top bound, with no clamp.
double ReferenceWindowQuantile(const std::vector<double>& bounds,
                               const std::vector<std::uint64_t>& deltas,
                               double q) {
  double count = 0;
  for (const std::uint64_t delta : deltas) count += static_cast<double>(delta);
  if (count == 0) return std::nan("");
  const double target = q * count;
  double cumulative = 0;
  for (std::size_t b = 0; b < deltas.size(); ++b) {
    if (deltas[b] == 0) continue;
    const double before = cumulative;
    cumulative += static_cast<double>(deltas[b]);
    if (cumulative < target) continue;
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : bounds.back();
    const double fraction =
        (target - before) / static_cast<double>(deltas[b]);
    return lower + fraction * (upper - lower);
  }
  return bounds.back();
}

TEST(WindowedAggregatorTest, QuantilesMatchPlainReferenceOnRandomWindows) {
  // Random windows over four bucket layouts, some windows empty. Each
  // window's buckets must equal a fresh Histogram fed only that window's
  // values, and its quantiles must equal the reference bit for bit.
  const std::vector<std::vector<double>> layouts = {
      LatencyBucketsUs(), CountBuckets(), {10, 20, 50}, {10}};
  const std::vector<double> fixed_qs = {0.0, 0.01, 0.1,  0.25,  0.5, 0.75,
                                        0.9, 0.95, 0.99, 0.999, 1.0};
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t l = 0; l < layouts.size(); ++l) {
    const std::vector<double>& bounds = layouts[l];
    MetricsRegistry registry;
    Histogram& live = registry.GetHistogram("w", bounds);
    WindowedAggregator aggregator;
    for (int w = 0; w < 500; ++w) {
      Histogram window_only(bounds);
      const int samples = static_cast<int>(rng() % 40);
      for (int i = 0; i < samples; ++i) {
        // Zeros, exact bucket edges, and log-uniform values from a tenth
        // of the first bound to twice the top one (the overflow bucket).
        double value = 0;
        switch (rng() % 8) {
          case 0: break;
          case 1: value = bounds[rng() % bounds.size()]; break;
          default:
            value = bounds.front() / 10 *
                    std::pow(20 * bounds.back() / bounds.front(), unit(rng));
        }
        live.Record(value);
        window_only.Record(value);
      }
      const WindowedAggregator::WindowStats stats =
          aggregator.CloseWindow(registry, sim::Seconds(w + 1));
      const WindowedAggregator::HistogramWindow& got =
          stats.histograms.at("w");
      const std::string what =
          "layout " + std::to_string(l) + " window " + std::to_string(w);
      ASSERT_EQ(got.count, window_only.count()) << what;
      ASSERT_EQ(got.bucket_deltas, window_only.bucket_counts()) << what;
      std::vector<double> qs = fixed_qs;
      qs.push_back(unit(rng));
      for (const double q : qs) {
        const double expected =
            ReferenceWindowQuantile(bounds, got.bucket_deltas, q);
        ExpectSameQuantile(got.Quantile(q), expected,
                           what + " q " + std::to_string(q));
      }
    }
  }
}

}  // namespace
}  // namespace ustore::obs
