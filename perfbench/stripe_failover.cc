// stripe_failover: the write side of the Master plus consensus/ and
// services/rebuild. On the 16-disk prototype Cluster (4 hosts, 4 disks per
// host — under the 15-device enumeration limit — and 4 leaf-hub failure
// domains for RS(2+1)), ClientLib::AllocateStripe runs with a few
// allocations in flight and every chunk is written with its ChunkTag.
// Halfway through, once the first half has completed, the active Master is
// crashed and allocation continues on its successor. Then the busiest disk
// of a client-side StripeMap is failed and its chunks are rebuilt by
// RebuildEngine (verify_spare on) onto freshly allocated spares, which are
// read back.
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/cluster.h"
#include "harness.h"
#include "profile.h"
#include "services/rebuild.h"
#include "services/redundancy.h"

namespace perfbench {

namespace {

using namespace ustore;
namespace redundancy = services::redundancy;

constexpr Bytes kChunk = MiB(1);
constexpr int kData = 2;
constexpr int kParity = 1;
constexpr int kInFlight = 4;

class StripeRun {
 public:
  StripeRun(const Config& config, SpanLog& spans, RepOutcome& out)
      : config_(config),
        spans_(spans),
        out_(out),
        stripe_count_(config.tiny ? 8 : 40),
        gen_base_(Fnv1a("stripe-generator", config.seed) >> 16) {}

  void Run();

 private:
  void Allocate(int s);
  void OnAllocated(int s, Result<core::ClientLib::StripeVolumes> result);
  void AllocateRange(int first, int last);
  bool RunUntil(const std::function<bool()>& done, sim::Duration limit);
  void CheckLookups();
  void Rebuild();
  std::uint64_t Counter(const char* name) {
    return obs::Metrics().GetCounter(name).value();
  }
  void Fold(std::uint64_t value) {
    digest_ = Fnv1a(std::to_string(value), digest_);
  }

  const Config& config_;
  SpanLog& spans_;
  RepOutcome& out_;
  const int stripe_count_;
  const std::uint64_t gen_base_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<core::ClientLib> client_;
  std::vector<core::ClientLib::StripeVolumes> stripes_;  // by allocation index
  std::vector<bool> allocated_;
  std::vector<sim::Time> issued_at_;
  std::vector<double> alloc_ms_;
  std::set<std::uint64_t> seen_ids_;
  int next_ = 0;
  int last_ = 0;
  int in_flight_ = 0;
  int writes_pending_ = 0;
  sim::Time crash_at_ = -1;
  sim::Time first_after_crash_ = -1;
  std::uint64_t ids_reused_ = 0;
  std::uint64_t lookup_misses_ = 0;
  std::uint64_t digest_ = 1469598103934665603ULL;
};

void StripeRun::Run() {
  const auto setup_start = Clock::now();
  core::ClusterOptions options;
  options.seed = config_.seed;
  {
    ScopedSpan span(spans_, "cluster.build");
    cluster_ = std::make_unique<core::Cluster>(options);
  }
  const auto start_begin = Clock::now();
  {
    ScopedSpan span(spans_, "cluster.start");
    cluster_->Start();
  }
  if (spans_.enabled()) {
    out_.layers["cluster.build_s"] =
        std::chrono::duration<double>(start_begin - setup_start).count();
    out_.layers["cluster.start_s"] = SecondsSince(start_begin);
  }
  client_ = cluster_->MakeClient("sf-client");
  out_.setup_s = SecondsSince(setup_start);

  stripes_.resize(static_cast<std::size_t>(stripe_count_));
  allocated_.assign(static_cast<std::size_t>(stripe_count_), false);
  issued_at_.assign(static_cast<std::size_t>(stripe_count_), 0);
  const auto run_start = Clock::now();
  const sim::Time start = cluster_->sim().now();
  const std::uint64_t events_before = cluster_->sim().events_processed();
  const std::uint64_t slots_before = Counter("paxos.slots_chosen");

  const int half = stripe_count_ / 2;
  AllocateRange(0, half);
  crash_at_ = cluster_->sim().now();
  core::Master* crashed = cluster_->active_master();
  if (crashed == nullptr) {
    out_.Fail("stripe_failover: no active Master before the crash");
    return;
  }
  crashed->Crash();
  AllocateRange(half, stripe_count_);
  if (!RunUntil([&] { return writes_pending_ == 0; }, sim::Seconds(300))) {
    out_.Fail("stripe_failover: chunk writes still pending at the limit");
  }
  const std::uint64_t slots =
      Counter("paxos.slots_chosen") - slots_before;

  CheckLookups();
  Rebuild();

  out_.run_wall_s = SecondsSince(run_start);
  out_.sim_s = static_cast<double>(cluster_->sim().now() - start) / 1e9;
  const std::uint64_t events =
      cluster_->sim().events_processed() - events_before;
  const double gap_s =
      first_after_crash_ < 0
          ? 0
          : static_cast<double>(first_after_crash_ - crash_at_) / 1e9;
  if (first_after_crash_ < 0) {
    out_.Fail("stripe_failover: no allocation succeeded after the crash");
  }
  out_.known_failures += ids_reused_ + lookup_misses_;
  out_.sim_metrics.push_back(
      {"stripe_alloc_p50_ms", "ms", Median(alloc_ms_), alloc_ms_});
  out_.sim_metrics.push_back({"failover_gap_s", "s", gap_s, {}});
  Fold(first_after_crash_ - crash_at_);
  Fold(ids_reused_);
  Fold(lookup_misses_);
  Fold(cluster_->sim().now());
  out_.digest = Fnv1a(cluster_->active_master()->DumpAllocations(), digest_);

  if (spans_.enabled()) {
    AddObsLayers(obs::Metrics().Snapshot(), out_.layers);
    out_.layers["paxos.slots_per_stripe"] =
        Ratio(static_cast<double>(slots), stripe_count_);
    out_.layers["stripe.ids_reused"] = static_cast<double>(ids_reused_);
    out_.layers["stripe.lookup_misses"] = static_cast<double>(lookup_misses_);
    out_.layers["sim.events"] = static_cast<double>(events);
    out_.layers["sim.wall_ns_per_event"] =
        Ratio(out_.run_wall_s * 1e9, static_cast<double>(events));
    out_.layers["fabric.nodes"] = cluster_->fabric().topology().size();
  }
}

void StripeRun::AllocateRange(int first, int last) {
  next_ = first;
  last_ = last;
  while (next_ < last_ && in_flight_ < kInFlight) Allocate(next_++);
  if (!RunUntil([&] { return next_ == last_ && in_flight_ == 0; },
                sim::Seconds(600))) {
    out_.Fail("stripe_failover: allocations still in flight at the limit");
  }
}

void StripeRun::Allocate(int s) {
  ++in_flight_;
  ++out_.attempted;
  issued_at_[static_cast<std::size_t>(s)] = cluster_->sim().now();
  ScopedSpan span(spans_, "client.allocate_stripe");
  client_->AllocateStripe(
      "sf", kChunk, kData, kParity,
      [this, s](Result<core::ClientLib::StripeVolumes> result) {
        ScopedSpan callback(spans_, "client.callback");
        OnAllocated(s, std::move(result));
      });
}

void StripeRun::OnAllocated(int s,
                            Result<core::ClientLib::StripeVolumes> result) {
  --in_flight_;
  const sim::Time now = cluster_->sim().now();
  const sim::Duration latency = now - issued_at_[static_cast<std::size_t>(s)];
  Fold(latency);
  if (!result.ok()) {
    ++out_.failed;
  } else {
    ++out_.ops;
    alloc_ms_.push_back(static_cast<double>(latency) / 1e6);
    if (crash_at_ >= 0 && first_after_crash_ < 0) first_after_crash_ = now;
    const core::ClientLib::StripeVolumes& stripe = *result;
    Fold(stripe.stripe_id);
    // A stripe id the Master already handed out is a collision: the
    // stripe index did not survive the Master failover.
    if (!seen_ids_.insert(stripe.stripe_id).second) ++ids_reused_;
    stripes_[static_cast<std::size_t>(s)] = stripe;
    allocated_[static_cast<std::size_t>(s)] = true;
    for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
      ++out_.attempted;
      ++writes_pending_;
      ScopedSpan span(spans_, "client.submit");
      stripe.chunks[c]->Write(
          0, kChunk, /*random=*/false,
          redundancy::ChunkTag(gen_base_ + static_cast<std::uint64_t>(s),
                               static_cast<int>(c)),
          [this](Status status) {
            --writes_pending_;
            if (status.ok()) {
              ++out_.ops;
            } else {
              ++out_.failed;
            }
          });
    }
  }
  if (next_ < last_) Allocate(next_++);
}

bool StripeRun::RunUntil(const std::function<bool()>& done,
                         sim::Duration limit) {
  const sim::Time deadline = cluster_->sim().now() + limit;
  ScopedSpan span(spans_, "sim.run");
  while (!done()) {
    if (cluster_->sim().now() >= deadline) return false;
    cluster_->RunFor(sim::Millis(250));
  }
  return true;
}

// Asks the (new) active Master for every stripe's chunk list; a missing or
// different answer is a stripe the failover lost.
void StripeRun::CheckLookups() {
  core::Master* master = cluster_->active_master();
  for (int s = 0; s < stripe_count_; ++s) {
    if (!allocated_[static_cast<std::size_t>(s)]) continue;
    const core::ClientLib::StripeVolumes& stripe =
        stripes_[static_cast<std::size_t>(s)];
    ++out_.attempted;
    const std::vector<core::SpaceId>* chunks =
        master == nullptr ? nullptr : master->StripeChunks(stripe.stripe_id);
    bool match = chunks != nullptr && chunks->size() == stripe.chunks.size();
    for (std::size_t c = 0; match && c < stripe.chunks.size(); ++c) {
      match = (*chunks)[c] == stripe.chunks[c]->id();
    }
    if (match) {
      ++out_.ops;
    } else {
      ++lookup_misses_;
    }
  }
}

// Fails the busiest disk of the client-side layout replica and rebuilds its
// chunks onto spares, as tests/services_test.cc's StripeWorld does: the
// replica's dense locations map onto the mounted chunk volumes by
// (allocation index, chunk index).
void StripeRun::Rebuild() {
  for (int s = 0; s < stripe_count_; ++s) {
    if (!allocated_[static_cast<std::size_t>(s)]) {
      out_.Fail("stripe_failover: stripe " + std::to_string(s) +
                " was never allocated; cannot rebuild");
      return;
    }
  }
  fabric::PlacementOptions placement;
  placement.data_chunks = kData;
  placement.parity_chunks = kParity;
  placement.seed = config_.seed;
  redundancy::StripeMap map(placement);
  map.layout().AddDomains(4, 4);
  if (!map.AppendMany(stripe_count_).ok()) {
    out_.Fail("stripe_failover: layout replica could not place the stripes");
    return;
  }
  int busiest = 0;
  for (int d = 1; d < map.layout().disks(); ++d) {
    if (map.ChunksOnDisk(d).size() > map.ChunksOnDisk(busiest).size()) {
      busiest = d;
    }
  }
  Result<redundancy::RebuildPlan> plan =
      redundancy::PlanRebuild(map, busiest, /*apply=*/true);
  if (!plan.ok()) {
    out_.Fail("stripe_failover: rebuild planning failed: " +
              plan.status().ToString());
    return;
  }

  std::map<std::uint64_t, core::ClientLib::Volume*> spares;
  int spares_pending = 0;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    ++out_.attempted;
    ++spares_pending;
    client_->AllocateAndMount(
        "sf-spare", MiB(4),
        [this, &spares, &spares_pending,
         stripe = op.stripe](Result<core::ClientLib::Volume*> spare) {
          --spares_pending;
          if (spare.ok()) {
            ++out_.ops;
            spares[stripe] = *spare;
          } else {
            ++out_.failed;
          }
        });
  }
  RunUntil([&] { return spares_pending == 0; }, sim::Seconds(300));
  if (spares.size() != plan->ops.size()) {
    out_.Fail("stripe_failover: spare allocation failed");
    return;
  }

  std::map<std::uint64_t, int> lost;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    lost[op.stripe] = op.lost_chunk;
  }
  services::RebuildEngineOptions options;
  options.chunk_size = kChunk;
  options.total_disks = map.layout().disks();
  options.verify_spare = true;
  services::RebuildEngine engine(
      &cluster_->sim(), &map, options,
      [this, &lost, &spares](std::uint64_t stripe, int chunk,
                             const fabric::ChunkLocation&) {
        auto it = lost.find(stripe);
        if (it != lost.end() && chunk == it->second) {
          return services::RebuildEngine::ChunkAddress{spares.at(stripe), 0};
        }
        return services::RebuildEngine::ChunkAddress{
            stripes_[static_cast<std::size_t>(stripe)].chunks[chunk], 0};
      });
  services::RebuildEngineReport report;
  bool done = false;
  {
    ScopedSpan span(spans_, "rebuild.execute");
    engine.Execute(*plan, [&](services::RebuildEngineReport r) {
      report = r;
      done = true;
    });
  }
  if (!RunUntil([&] { return done; }, sim::Seconds(600))) {
    out_.Fail("stripe_failover: rebuild did not finish");
    return;
  }
  out_.attempted += static_cast<std::uint64_t>(report.stripes_total);
  out_.ops += static_cast<std::uint64_t>(report.stripes_rebuilt);
  out_.failed +=
      static_cast<std::uint64_t>(report.stripes_total - report.stripes_rebuilt);
  if (!report.status.ok() || report.tag_mismatches != 0) {
    out_.Fail("stripe_failover: rebuild failed: " +
              report.status.ToString());
  }
  out_.sim_metrics.push_back(
      {"rebuild_s", "s", static_cast<double>(report.elapsed) / 1e9, {}});
  Fold(static_cast<std::uint64_t>(report.elapsed));
  Fold(static_cast<std::uint64_t>(report.admission_stalls));
  if (spans_.enabled()) {
    out_.layers["rebuild.chunk_reads"] = report.chunk_reads;
    out_.layers["rebuild.read_failovers"] = report.read_failovers;
    out_.layers["rebuild.admission_stalls"] = report.admission_stalls;
    out_.layers["rebuild.throughput_mbps"] = report.throughput_mbps;
  }

  // Every rebuilt chunk must read back as the lost chunk's tag.
  int reads_pending = 0;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    const std::uint64_t want =
        redundancy::ChunkTag(gen_base_ + op.stripe, op.lost_chunk);
    ++out_.attempted;
    ++reads_pending;
    spares.at(op.stripe)->Read(
        0, kChunk, /*random=*/false,
        [this, want, &reads_pending](Result<std::uint64_t> tag) {
          --reads_pending;
          if (tag.ok() && *tag == want) {
            ++out_.ops;
          } else {
            ++out_.failed;
            out_.Fail("stripe_failover: rebuilt chunk read back wrong");
          }
          Fold(tag.ok() ? *tag : 0);
        });
  }
  if (!RunUntil([&] { return reads_pending == 0; }, sim::Seconds(300))) {
    out_.Fail("stripe_failover: spare read-back did not finish");
  }
}

}  // namespace

RepOutcome RunStripeFailover(const Config& config, SpanLog& spans) {
  RepOutcome out;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ScopedObsBinding bind(&metrics, &trace);
  StripeRun run(config, spans, out);
  run.Run();
  return out;
}

}  // namespace perfbench
