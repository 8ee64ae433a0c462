// Data-plane fast-path tests (DESIGN.md §9).
//
// The load-bearing property is *timing equivalence*: batched NCQ admission
// and closed-form steady-state fast-forward are pure event-count
// optimizations, so per-request completion timestamps — and the metric
// trail and spin-state timeline the disk leaves behind — must be
// bit-identical to one-at-a-time submission. The randomized test here
// enforces that over mixed request shapes and arbitrary serial/batched
// interleavings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "hw/disk.h"
#include "hw/disk_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore {
namespace {

using hw::AccessPattern;
using hw::Disk;
using hw::DiskModel;
using hw::DiskParams;
using hw::DiskQueueOptions;
using hw::IoCompletion;
using hw::IoDirection;
using hw::IoRequest;

IoRequest RandomRequest(std::mt19937& rng) {
  static const Bytes kSizes[] = {KiB(4), KiB(128), MiB(1), MiB(4)};
  IoRequest req;
  req.size = kSizes[rng() % 4];
  req.direction = rng() % 2 == 0 ? IoDirection::kRead : IoDirection::kWrite;
  req.pattern =
      rng() % 2 == 0 ? AccessPattern::kSequential : AccessPattern::kRandom;
  return req;
}

struct RunOutcome {
  std::vector<sim::Time> completed_at;
  // The disk's state after submission and after every simulator step, kept
  // only where it changed.
  std::vector<std::pair<sim::Time, hw::DiskState>> states;
  obs::MetricsSnapshot metrics;
  std::vector<obs::TraceSpan> spans;
};

// Submits `requests` to a fresh disk on a fresh simulator, partitioned into
// runs by `plan`: plan[i] > 0 submits the next plan[i] requests as one
// batch, plan[i] < 0 submits the next -plan[i] one at a time. An empty
// plan means all-serial (the timing baseline).
RunOutcome RunPlan(const std::vector<IoRequest>& requests,
               const std::vector<int>& plan) {
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace(1 << 14);
  obs::ScopedObsBinding binding(&metrics, &trace);
  sim::Simulator sim;
  obs::BindSimulator(&sim);
  {
    const DiskModel model(DiskParams{}, hw::UsbBridgeInterface());
    Disk disk(&sim, "eq", &model);
    RunOutcome out;
    out.completed_at.assign(requests.size(), -1);

    std::size_t next = 0;
    auto submit_serial = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i, ++next) {
        const std::size_t slot = next;
        disk.SubmitIo(requests[slot], [&, slot](Status status) {
          EXPECT_TRUE(status.ok()) << status.ToString();
          out.completed_at[slot] = sim.now();
        });
      }
    };
    auto submit_batch = [&](std::size_t count) {
      const std::size_t base = next;
      disk.SubmitBatch(
          std::span<const IoRequest>(&requests[base], count),
          [&, base](std::span<const IoCompletion> completions) {
            for (std::size_t j = 0; j < completions.size(); ++j) {
              EXPECT_TRUE(completions[j].status.ok())
                  << completions[j].status.ToString();
              out.completed_at[base + j] = completions[j].completed_at;
            }
          });
      next += count;
    };
    if (plan.empty()) {
      submit_serial(requests.size());
    } else {
      for (int run : plan) {
        run > 0 ? submit_batch(static_cast<std::size_t>(run))
                : submit_serial(static_cast<std::size_t>(-run));
      }
    }
    EXPECT_EQ(next, requests.size());
    out.states.emplace_back(sim.now(), disk.state());
    while (sim.Step()) {
      if (disk.state() != out.states.back().second) {
        out.states.emplace_back(sim.now(), disk.state());
      }
    }
    out.metrics = obs::Metrics().Snapshot();
    out.spans = trace.CompletedInOrder();
    obs::BindSimulator(nullptr);
    return out;
  }
}

// The per-op `io` spans of a run, flattened into comparable keys: the
// component, timestamps and full attribute list — everything except the
// span/parent ids, which legitimately differ between serial roots and
// batch children.
std::vector<std::string> IoSpanKeys(const std::vector<obs::TraceSpan>& spans) {
  std::vector<std::string> keys;
  for (const obs::TraceSpan& span : spans) {
    if (span.name != "io") continue;
    std::string key = span.component + "|" + std::to_string(span.start) +
                      ".." + std::to_string(span.end);
    for (const auto& [k, v] : span.attrs) key += "|" + k + "=" + v;
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExpectSameHistogram(const obs::MetricsSnapshot& a,
                         const obs::MetricsSnapshot& b,
                         const std::string& name) {
  auto ia = a.histograms.find(name);
  auto ib = b.histograms.find(name);
  ASSERT_NE(ia, a.histograms.end()) << name;
  ASSERT_NE(ib, b.histograms.end()) << name;
  EXPECT_EQ(ia->second.count, ib->second.count) << name;
  EXPECT_EQ(ia->second.sum, ib->second.sum) << name;
  EXPECT_EQ(ia->second.min, ib->second.min) << name;
  EXPECT_EQ(ia->second.max, ib->second.max) << name;
  EXPECT_EQ(ia->second.bucket_counts, ib->second.bucket_counts) << name;
}

TEST(DataPlaneEquivalence, BatchedCompletionTimesMatchSerialBitForBit) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);

    std::vector<IoRequest> requests(60);
    for (IoRequest& req : requests) req = RandomRequest(rng);

    // Partition into random serial/batched runs. Batches of up to 40
    // exercise the max_batch=32 window split as well.
    std::vector<int> plan;
    for (std::size_t left = requests.size(); left > 0;) {
      std::size_t run = 1 + rng() % std::min<std::size_t>(left, 40);
      plan.push_back(rng() % 2 == 0 ? static_cast<int>(run)
                                    : -static_cast<int>(run));
      left -= run;
    }

    const RunOutcome serial = RunPlan(requests, {});
    const RunOutcome mixed = RunPlan(requests, plan);

    // The tentpole assertion: identical per-request completion timestamps.
    EXPECT_EQ(serial.completed_at, mixed.completed_at);

    // Identical spin-state timeline: the same state changes at the same
    // simulated instants.
    EXPECT_EQ(serial.states, mixed.states);

    // Identical observable metric trail: every counter (including the
    // DiskModel evaluation counters) and the per-op service-time
    // histogram. Only the admission-shape histograms (disk.queue.depth,
    // disk.batch.size) may differ — they describe *how* requests were
    // handed over, which is exactly what batching changes.
    EXPECT_EQ(serial.metrics.counters, mixed.metrics.counters);
    ExpectSameHistogram(serial.metrics, mixed.metrics,
                        "disk.op.service_time_us");

    // Batching must not delete per-op trace observability either: every
    // request leaves one `io` span with the same component, platter
    // interval and attributes (dir/size/service_ns) as the serial run —
    // only the span ids and the parent edge (batch members hang under an
    // `io_batch` span) may differ.
    EXPECT_EQ(IoSpanKeys(serial.spans), IoSpanKeys(mixed.spans));
    std::set<obs::SpanId> batch_spans;
    for (const obs::TraceSpan& span : mixed.spans) {
      if (span.name == "io_batch") batch_spans.insert(span.id);
    }
    for (const obs::TraceSpan& span : serial.spans) {
      EXPECT_NE(span.name, "io_batch");
      if (span.name == "io") {
        EXPECT_EQ(span.parent, obs::kInvalidSpan);  // serial ops are roots
        EXPECT_EQ(span.trace_id, span.id);
      }
    }
    for (const obs::TraceSpan& span : mixed.spans) {
      if (span.name != "io" || span.parent == obs::kInvalidSpan) continue;
      // A batch member's parent is its batch's span, and it inherits the
      // batch's tree id.
      EXPECT_TRUE(batch_spans.count(span.parent) > 0)
          << "io span parented under a non-batch span";
      EXPECT_EQ(span.trace_id, span.parent);
    }
  }
}

// The six client.read.phase.*_us histograms are an exact partition of
// client.read.latency_us — including for a cold read that pays a full
// platter spin-up.
TEST(DataPlaneEndToEnd, PhaseHistogramsPartitionEndToEndLatency) {
  obs::Metrics().Clear();
  core::Cluster cluster;
  cluster.Start();
  auto client = cluster.MakeClient("phase-client");
  core::ClientLib::Volume* volume = nullptr;
  client->AllocateAndMount("phase-svc", GiB(2),
                           [&](Result<core::ClientLib::Volume*> result) {
                             ASSERT_TRUE(result.ok()) << result.status();
                             volume = *result;
                           });
  cluster.RunFor(sim::Seconds(10));
  ASSERT_NE(volume, nullptr);

  bool wrote = false;
  volume->Write(0, MiB(1), false, 0xCAFE, [&](Status status) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    wrote = true;
  });
  cluster.RunFor(sim::Seconds(5));
  ASSERT_TRUE(wrote);

  // Warm read, then spin the platter down and read again: the cold read's
  // e2e includes the ~7.5 s spin-up, which must land in the spin_up phase
  // (not inflate rpc or queue_wait).
  int reads = 0;
  volume->Read(0, KiB(128), false, [&](Result<std::uint64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    ++reads;
  });
  cluster.RunFor(sim::Seconds(5));
  ASSERT_EQ(reads, 1);

  hw::Disk* disk = cluster.fabric().disk(volume->id().disk);
  ASSERT_NE(disk, nullptr);
  disk->SpinDown();
  ASSERT_EQ(disk->state(), hw::DiskState::kSpunDown);
  volume->Read(0, KiB(128), false, [&](Result<std::uint64_t> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    ++reads;
  });
  cluster.RunFor(sim::Seconds(30));
  ASSERT_EQ(reads, 2);

  const obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
  const auto hist = [&](const std::string& name)
      -> const obs::MetricsSnapshot::HistogramState& {
    auto it = snapshot.histograms.find(name);
    EXPECT_NE(it, snapshot.histograms.end()) << name;
    return it->second;
  };
  const auto& latency = hist("client.read.latency_us");
  EXPECT_EQ(latency.count, 2u);

  const char* kPhases[] = {"queue_wait", "spin_up", "fabric_transfer",
                           "disk_service", "rpc", "retry_backoff"};
  double phase_sum = 0;
  for (const char* phase : kPhases) {
    const auto& h =
        hist("client.read.phase." + std::string(phase) + "_us");
    // One sample per successful read in every phase histogram.
    EXPECT_EQ(h.count, latency.count) << phase;
    phase_sum += h.sum;
  }
  // The partition property: phases sum to e2e (double rounding only).
  EXPECT_NEAR(phase_sum, latency.sum, 1e-3);
  // The cold read's spin-up is visible where it belongs: a full platter
  // start is seconds, not microseconds.
  EXPECT_GT(hist("client.read.phase.spin_up_us").sum, 1e6);
  EXPECT_GT(hist("client.read.phase.disk_service_us").sum, 0.0);
  EXPECT_GT(hist("client.read.phase.rpc_us").sum, 0.0);
}

TEST(DataPlaneBackpressure, OversizedBatchIsRejectedAtomically) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "bp", &model,
            /*start_powered=*/true,
            DiskQueueOptions{.queue_capacity = 4, .max_batch = 2});

  std::vector<IoRequest> batch(
      5, IoRequest{KiB(4), IoDirection::kRead, AccessPattern::kSequential});
  bool rejected = false;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> completions) {
    rejected = true;
    ASSERT_EQ(completions.size(), 5u);
    for (const IoCompletion& c : completions) {
      EXPECT_EQ(c.status.code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(c.completed_at, sim.now());
    }
  });
  // Rejection is synchronous and atomic: nothing was queued.
  EXPECT_TRUE(rejected);
  EXPECT_EQ(disk.queue_depth(), 0u);

  // A batch that fits is accepted and completes in full.
  batch.resize(4);
  std::size_t completed = 0;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> completions) {
    for (const IoCompletion& c : completions) {
      EXPECT_TRUE(c.status.ok());
      ++completed;
    }
  });
  sim.Run();
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(disk.ios_completed(), 4u);
}

TEST(DataPlaneBackpressure, SerialOverflowFailsOnlyTheExcessRequest) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "bp", &model,
            /*start_powered=*/true,
            DiskQueueOptions{.queue_capacity = 2, .max_batch = 2});

  // The first submission moves straight into the drain window; the next
  // two fill the ring; the fourth must bounce.
  int ok = 0;
  int exhausted = 0;
  for (int i = 0; i < 4; ++i) {
    disk.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                  [&](Status status) {
                    status.ok() ? ++ok : ++exhausted;
                    if (!status.ok()) {
                      EXPECT_EQ(status.code(),
                                StatusCode::kResourceExhausted);
                    }
                  });
  }
  EXPECT_EQ(exhausted, 1);
  sim.Run();
  EXPECT_EQ(ok, 3);
}

TEST(DataPlaneFastForward, SteadyStateMatchesWorkloadSpecMath) {
  const DiskModel model(DiskParams{}, hw::SataInterface());
  const IoRequest req{MiB(1), IoDirection::kWrite, AccessPattern::kSequential};

  // SteadyStateServiceTime is definitionally the switch-free ServiceTime,
  // and the closed-form WorkloadSpec throughput is its reciprocal.
  const sim::Duration steady = model.SteadyStateServiceTime(req);
  EXPECT_EQ(steady, model.ServiceTime(req, IoDirection::kWrite));
  const auto throughput = model.Evaluate(
      hw::WorkloadSpec{MiB(1), 0.0, AccessPattern::kSequential});
  EXPECT_DOUBLE_EQ(throughput.iops, 1e9 / static_cast<double>(steady));

  // A homogeneous batch drains at exactly that cadence: t_i = t_1 + i*s.
  sim::Simulator sim;
  Disk disk(&sim, "ff", &model);
  std::vector<IoRequest> batch(16, req);
  std::vector<sim::Time> completions;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> done) {
    for (const IoCompletion& c : done) {
      EXPECT_TRUE(c.status.ok());
      completions.push_back(c.completed_at);
    }
  });
  sim.Run();
  ASSERT_EQ(completions.size(), 16u);
  for (std::size_t i = 2; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i] - completions[i - 1], steady) << i;
  }
}

TEST(DataPlaneFailure, PowerOffMidBatchFailsOnlyNotYetCompletedMembers) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "pf", &model);

  // Six identical 4MiB reads take ~22.7ms each; power off at 50ms, i.e.
  // after the second completion and before the third.
  std::vector<IoRequest> batch(
      6, IoRequest{MiB(4), IoDirection::kRead, AccessPattern::kSequential});
  std::vector<IoCompletion> results;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> done) {
    results.assign(done.begin(), done.end());
  });
  const sim::Time power_off_at = sim::Millis(50);
  sim.ScheduleAt(power_off_at, [&] { disk.PowerOff(); });
  sim.Run();

  ASSERT_EQ(results.size(), 6u);
  int succeeded = 0;
  for (const IoCompletion& c : results) {
    if (c.status.ok()) {
      // Anything that had physically completed before the power cut stays
      // completed.
      EXPECT_LE(c.completed_at, power_off_at);
      ++succeeded;
    } else {
      EXPECT_EQ(c.status.code(), StatusCode::kUnavailable);
      EXPECT_GT(c.completed_at, power_off_at);
    }
  }
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(disk.ios_completed(), 2u);
}

TEST(DataPlaneFailure, FailMidBatchClassifiesByFailureInstantAndRingReusable) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "fb", &model);

  // Same shape as the power-cut test, but through Fail() — a hardware
  // fault while the window drains — and with the completion callback
  // re-entering the disk (Repair + resubmit), which must neither change
  // how the window was classified nor fire the batch callback twice.
  std::vector<IoRequest> batch(
      6, IoRequest{MiB(4), IoDirection::kRead, AccessPattern::kSequential});
  std::vector<IoCompletion> results;
  int batch_callbacks = 0;
  int resubmit_completions = 0;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> done) {
    ++batch_callbacks;
    results.assign(done.begin(), done.end());
    disk.Repair();
    disk.SubmitIo({KiB(4), IoDirection::kWrite, AccessPattern::kRandom},
                  [&](Status status) {
                    EXPECT_TRUE(status.ok()) << status.ToString();
                    ++resubmit_completions;
                  });
  });
  const sim::Time fail_at = sim::Millis(50);
  sim.ScheduleAt(fail_at, [&] { disk.Fail(); });
  sim.Run();

  EXPECT_EQ(batch_callbacks, 1);
  ASSERT_EQ(results.size(), 6u);
  int succeeded = 0;
  for (const IoCompletion& c : results) {
    if (c.status.ok()) {
      EXPECT_LE(c.completed_at, fail_at);
      ++succeeded;
    } else {
      EXPECT_EQ(c.status.code(), StatusCode::kUnavailable);
      EXPECT_GT(c.completed_at, fail_at);
    }
  }
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(resubmit_completions, 1);
  EXPECT_EQ(disk.queue_depth(), 0u);  // the ring did not leak
}

TEST(DataPlaneFailure, ResubmitFromFailureCallbackSurvivesTheFailSweep) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "fs", &model);

  // a drains immediately; b and c queue behind it in the ring. Fail()
  // sweeps the ring, and b's failure callback repairs the disk and
  // resubmits — the sweep must still fail c (queued before the repair)
  // but must not swallow the fresh request.
  const IoRequest read{MiB(4), IoDirection::kRead, AccessPattern::kSequential};
  Status a = InternalError("pending");
  Status b = a, c = a, d = a;
  disk.SubmitIo(read, [&](Status status) { a = status; });
  disk.SubmitIo(read, [&](Status status) {
    b = status;
    disk.Repair();
    disk.SubmitIo(read, [&](Status status2) { d = status2; });
  });
  disk.SubmitIo(read, [&](Status status) { c = status; });
  sim.ScheduleAt(sim::Millis(10), [&] { disk.Fail(); });
  sim.Run();

  EXPECT_EQ(b.code(), StatusCode::kUnavailable);
  EXPECT_EQ(c.code(), StatusCode::kUnavailable);
  // a was on the platter past the failure instant: lost mid-io.
  EXPECT_EQ(a.code(), StatusCode::kUnavailable);
  // d was accepted after the repair and completes normally.
  EXPECT_TRUE(d.ok()) << d.ToString();
  EXPECT_EQ(disk.queue_depth(), 0u);
}

TEST(DataPlaneFailure, BatchToSpunDownDiskTriggersOneImplicitSpinUp) {
  sim::Simulator sim;
  const DiskModel model(DiskParams{}, hw::SataInterface());
  Disk disk(&sim, "su", &model);
  disk.SpinDown();
  sim.Run();
  ASSERT_EQ(disk.state(), hw::DiskState::kSpunDown);
  const int cycles_before = disk.spin_cycles();

  std::vector<IoRequest> batch(
      4, IoRequest{KiB(4), IoDirection::kRead, AccessPattern::kSequential});
  std::size_t completed = 0;
  disk.SubmitBatch(batch, [&](std::span<const IoCompletion> done) {
    for (const IoCompletion& c : done) {
      EXPECT_TRUE(c.status.ok());
      ++completed;
    }
  });
  sim.Run();
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(disk.spin_cycles(), cycles_before + 1);
}

// End to end: client batch -> one RPC -> iSCSI target -> NCQ disk batch ->
// fingerprints round-trip back to the client.
TEST(DataPlaneEndToEnd, BatchedWritesReadBackThroughWholeStack) {
  core::Cluster cluster;
  cluster.Start();
  auto client = cluster.MakeClient("dp-client");
  core::ClientLib::Volume* volume = nullptr;
  client->AllocateAndMount("dp-svc", GiB(2),
                           [&](Result<core::ClientLib::Volume*> result) {
                             ASSERT_TRUE(result.ok()) << result.status();
                             volume = *result;
                           });
  cluster.RunFor(sim::Seconds(10));
  ASSERT_NE(volume, nullptr);

  using IoOp = core::ClientLib::Volume::IoOp;
  using IoOpResult = core::ClientLib::Volume::IoOpResult;
  constexpr int kOps = 8;
  std::vector<IoOp> writes(kOps);
  for (int i = 0; i < kOps; ++i) {
    writes[i] = IoOp{.offset = MiB(1) * i, .length = MiB(1),
                     .is_read = false, .random = false,
                     .tag = 0xD00D + static_cast<std::uint64_t>(i)};
  }
  bool wrote = false;
  volume->SubmitBatch(writes, [&](Status status,
                                  std::span<const IoOpResult> results) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
    for (const IoOpResult& r : results) {
      EXPECT_EQ(r.code, StatusCode::kOk);
    }
    wrote = true;
  });
  cluster.RunFor(sim::Seconds(5));
  ASSERT_TRUE(wrote);

  std::vector<IoOp> reads(kOps);
  for (int i = 0; i < kOps; ++i) {
    reads[i] = IoOp{.offset = MiB(1) * i, .length = MiB(1),
                    .is_read = true, .random = false, .tag = 0};
  }
  bool read = false;
  volume->SubmitBatch(reads, [&](Status status,
                                 std::span<const IoOpResult> results) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kOps));
    for (int i = 0; i < kOps; ++i) {
      EXPECT_EQ(results[i].code, StatusCode::kOk);
      EXPECT_EQ(results[i].tag, 0xD00D + static_cast<std::uint64_t>(i));
    }
    read = true;
  });
  cluster.RunFor(sim::Seconds(5));
  ASSERT_TRUE(read);

  // Per-op completions landed individually in the latency histograms, and
  // both batch-size observations (client + disk) recorded 8-op batches.
  const obs::MetricsSnapshot snapshot = obs::Metrics().Snapshot();
  auto reads_hist = snapshot.histograms.find("client.read.latency_us");
  ASSERT_NE(reads_hist, snapshot.histograms.end());
  EXPECT_GE(reads_hist->second.count, static_cast<std::uint64_t>(kOps));
  auto batch_hist = snapshot.histograms.find("client.io.batch_size");
  ASSERT_NE(batch_hist, snapshot.histograms.end());
  EXPECT_EQ(batch_hist->second.max, static_cast<double>(kOps));
}

}  // namespace
}  // namespace ustore
