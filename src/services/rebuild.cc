#include "services/rebuild.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace ustore::services {

namespace {

// Tag corruption injected by the *ForTest seams (the simulated disks
// faithfully return what was written, so tests flip a bit here).
constexpr std::uint64_t kCorruptionMask = 0x8000000000000001ULL;

}  // namespace

// --- RebuildEngine ---------------------------------------------------------------

struct RebuildEngine::StripeJob {
  int op_index = 0;
  const redundancy::RebuildStripeOp* op = nullptr;

  // Read slots: parallel arrays of (chunk index, location) per issued read.
  std::vector<int> read_chunks;
  std::vector<fabric::ChunkLocation> read_locs;
  std::vector<std::uint64_t> tags;       // slot -> tag (valid when done)
  std::vector<bool> slot_done;
  int reads_outstanding = 0;
  std::set<int> tried_chunks;  // chunk indices ever issued (for failover)

  std::uint64_t stripe_tag = 0;
  std::vector<int> held_disks;  // refcounted in Run::active_disks
  bool finished = false;

  sim::Time created_at = 0;
  sim::Time admitted_at = 0;
  sim::Time reads_done_at = 0;
  sim::Time write_done_at = 0;
};

struct RebuildEngine::Run {
  const redundancy::RebuildPlan* plan = nullptr;
  std::function<void(RebuildEngineReport)> done;
  RebuildEngineReport report;
  sim::Time started = 0;

  int first_op = 0;
  int next_op = 0;
  int in_flight = 0;
  bool failed = false;  // stop admitting; drain what is in flight
  std::vector<bool> completed;
  std::vector<sim::Time> blocked_at;  // -1 = never stalled
  std::map<int, int> active_disks;    // disk -> in-flight refcount
  int max_active = 1;
};

RebuildEngine::RebuildEngine(sim::Simulator* sim,
                             const redundancy::StripeMap* map,
                             RebuildEngineOptions options,
                             ChunkResolver resolver)
    : sim_(sim),
      map_(map),
      options_(options),
      resolver_(std::move(resolver)),
      phases_("rebuild.stripe") {
  assert(sim_ != nullptr && map_ != nullptr && resolver_ != nullptr);
}

void RebuildEngine::Execute(const redundancy::RebuildPlan& plan,
                            std::function<void(RebuildEngineReport)> done) {
  ExecuteFrom(0, plan, std::move(done));
}

void RebuildEngine::ExecuteFrom(
    int first_op, const redundancy::RebuildPlan& plan,
    std::function<void(RebuildEngineReport)> done) {
  auto run = std::make_shared<Run>();
  run->plan = &plan;
  run->done = std::move(done);
  run->started = sim_->now();
  run->first_op = std::clamp<int>(first_op, 0, plan.ops.size());
  run->next_op = run->first_op;
  run->report.stripes_total =
      static_cast<int>(plan.ops.size()) - run->first_op;
  run->completed.assign(plan.ops.size(), false);
  std::fill(run->completed.begin(), run->completed.begin() + run->first_op,
            true);
  run->blocked_at.assign(plan.ops.size(), -1);
  const int total_disks = options_.total_disks > 0
                              ? options_.total_disks
                              : map_->layout().disks();
  run->max_active =
      options_.max_active_disks > 0
          ? options_.max_active_disks
          : std::max(1, static_cast<int>(options_.spin_budget_fraction *
                                         static_cast<double>(total_disks)));
  Launch(run);
  MaybeFinish(run);
}

bool RebuildEngine::AdmitDisks(Run& run,
                               const redundancy::RebuildStripeOp& op) {
  // Disks the op needs that are not already spinning for the engine.
  int fresh = run.active_disks.count(op.spare.disk) == 0 ? 1 : 0;
  for (const fabric::ChunkLocation& read : op.reads) {
    if (run.active_disks.count(read.disk) == 0) ++fresh;
  }
  const int active = static_cast<int>(run.active_disks.size());
  // Always admit when nothing is in flight: a budget smaller than one
  // stripe's footprint must still make progress (matches the serial
  // agent's two-disk floor).
  if (run.in_flight > 0 && active + fresh > run.max_active) return false;
  return true;
}

void RebuildEngine::ReleaseDisks(Run& run, const StripeJob& job) {
  for (int disk : job.held_disks) {
    auto it = run.active_disks.find(disk);
    assert(it != run.active_disks.end() && it->second > 0);
    if (--it->second == 0) run.active_disks.erase(it);
  }
}

void RebuildEngine::Launch(std::shared_ptr<Run> run) {
  while (!run->failed && run->in_flight < options_.max_stripes_in_flight &&
         run->next_op < static_cast<int>(run->plan->ops.size())) {
    const int op_index = run->next_op;
    const redundancy::RebuildStripeOp& op = run->plan->ops[op_index];
    if (!AdmitDisks(*run, op)) {
      if (run->blocked_at[op_index] < 0) {
        run->blocked_at[op_index] = sim_->now();
        ++run->report.admission_stalls;
      }
      return;  // head-of-line waits; retried when a stripe finishes
    }
    ++run->next_op;
    StartStripe(run, op_index);
  }
}

void RebuildEngine::StartStripe(std::shared_ptr<Run> run, int op_index) {
  const redundancy::RebuildStripeOp& op = run->plan->ops[op_index];
  auto job = std::make_shared<StripeJob>();
  job->op_index = op_index;
  job->op = &op;
  job->created_at = run->blocked_at[op_index] >= 0
                        ? run->blocked_at[op_index]
                        : sim_->now();
  job->admitted_at = sim_->now();
  ++run->in_flight;

  auto hold = [&](int disk) {
    ++run->active_disks[disk];
    job->held_disks.push_back(disk);
  };
  hold(op.spare.disk);

  job->tried_chunks.insert(op.lost_chunk);  // never a read source
  job->read_chunks.reserve(op.reads.size());
  job->read_locs.reserve(op.reads.size());
  const redundancy::Stripe& stripe = map_->stripe(op.stripe);
  for (const fabric::ChunkLocation& loc : op.reads) {
    // Recover the chunk index from the stripe (the plan stores locations;
    // locations within a stripe are unique).
    int chunk = -1;
    for (int c = 0; c < static_cast<int>(stripe.chunks.size()); ++c) {
      if (c != op.lost_chunk && stripe.chunks[c] == loc &&
          job->tried_chunks.count(c) == 0) {
        chunk = c;
        break;
      }
    }
    assert(chunk >= 0 && "plan read not found in stripe");
    job->tried_chunks.insert(chunk);
    job->read_chunks.push_back(chunk);
    job->read_locs.push_back(loc);
    hold(loc.disk);
  }
  job->tags.assign(job->read_chunks.size(), 0);
  job->slot_done.assign(job->read_chunks.size(), false);
  job->reads_outstanding = static_cast<int>(job->read_chunks.size());

  // Fan the reads out, batched per volume (usually one op per volume —
  // chunks of a stripe live on distinct disks — but a resolver that maps
  // several chunks onto one volume gets a single command PDU for them).
  std::map<core::ClientLib::Volume*, std::vector<int>> by_volume;
  for (int slot = 0; slot < static_cast<int>(job->read_chunks.size());
       ++slot) {
    const ChunkAddress addr =
        resolver_(op.stripe, job->read_chunks[slot], job->read_locs[slot]);
    assert(addr.volume != nullptr);
    by_volume[addr.volume].push_back(slot);
  }
  for (auto& [volume, slots] : by_volume) {
    std::vector<core::ClientLib::Volume::IoOp> ops;
    ops.reserve(slots.size());
    for (int slot : slots) {
      const ChunkAddress addr =
          resolver_(op.stripe, job->read_chunks[slot], job->read_locs[slot]);
      ops.push_back({addr.offset, options_.chunk_size, /*is_read=*/true,
                     /*random=*/false, /*tag=*/0});
    }
    run->report.chunk_reads += static_cast<int>(slots.size());
    volume->SubmitBatch(
        ops,
        [this, run, job, slots = slots](
            Status status,
            std::span<const core::ClientLib::Volume::IoOpResult> results) {
          for (std::size_t i = 0; i < slots.size(); ++i) {
            Result<std::uint64_t> tag =
                !status.ok() ? Result<std::uint64_t>(status)
                : results[i].code != StatusCode::kOk
                    ? Result<std::uint64_t>(
                          Status{results[i].code, "batch op failed"})
                    : Result<std::uint64_t>(results[i].tag);
            OnReadDone(run, job, slots[i], std::move(tag));
          }
        });
  }
}

void RebuildEngine::OnReadDone(std::shared_ptr<Run> run,
                               std::shared_ptr<StripeJob> job, int read_slot,
                               Result<std::uint64_t> tag) {
  if (job->finished) return;
  if (tag.ok()) {
    job->tags[read_slot] = *tag;
    job->slot_done[read_slot] = true;
    if (--job->reads_outstanding == 0) Decode(run, job);
    return;
  }
  // Degraded-source failover: a surviving disk died under us (chaos).
  // Re-issue this slot against an unused survivor of the same stripe.
  const redundancy::Stripe& stripe = map_->stripe(job->op->stripe);
  int alt = -1;
  for (int c = 0; c < static_cast<int>(stripe.chunks.size()); ++c) {
    if (job->tried_chunks.count(c) == 0 &&
        stripe.chunks[c].disk != run->plan->failed_disk) {
      alt = c;
      break;
    }
  }
  if (alt < 0) {
    // Out of survivors: the stripe is (for now) unreadable. Fail the run
    // but keep the report exact — resume_from points here.
    FinishStripe(run, job, tag.status());
    return;
  }
  ++run->report.read_failovers;
  job->tried_chunks.insert(alt);
  job->read_chunks[read_slot] = alt;
  job->read_locs[read_slot] = stripe.chunks[alt];
  // The alternate's disk may exceed the spin budget transiently; the
  // budget shapes steady-state admission, not emergency failover.
  ++run->active_disks[stripe.chunks[alt].disk];
  job->held_disks.push_back(stripe.chunks[alt].disk);
  const ChunkAddress addr =
      resolver_(job->op->stripe, alt, stripe.chunks[alt]);
  assert(addr.volume != nullptr);
  ++run->report.chunk_reads;
  const core::ClientLib::Volume::IoOp op{addr.offset, options_.chunk_size,
                                         /*is_read=*/true, /*random=*/false,
                                         /*tag=*/0};
  addr.volume->SubmitBatch(
      std::span<const core::ClientLib::Volume::IoOp>(&op, 1),
      [this, run, job, read_slot](
          Status status,
          std::span<const core::ClientLib::Volume::IoOpResult> results) {
        Result<std::uint64_t> tag =
            !status.ok() ? Result<std::uint64_t>(status)
            : results[0].code != StatusCode::kOk
                ? Result<std::uint64_t>(
                      Status{results[0].code, "batch op failed"})
                : Result<std::uint64_t>(results[0].tag);
        OnReadDone(run, job, read_slot, std::move(tag));
      });
}

void RebuildEngine::Decode(std::shared_ptr<Run> run,
                           std::shared_ptr<StripeJob> job) {
  job->reads_done_at = sim_->now();
  // In-model RS decode: every chunk tag inverts to the stripe's generator
  // tag; disagreement is a syndrome mismatch (some chunk is corrupt).
  job->stripe_tag =
      redundancy::StripeTagFromChunk(job->tags[0], job->read_chunks[0]);
  for (std::size_t slot = 1; slot < job->tags.size(); ++slot) {
    if (redundancy::StripeTagFromChunk(job->tags[slot],
                                       job->read_chunks[slot]) !=
        job->stripe_tag) {
      ++run->report.tag_mismatches;
      FinishStripe(run, job,
                   DataLossError("stripe " + std::to_string(job->op->stripe) +
                                 ": surviving chunks decode to different "
                                 "generator tags"));
      return;
    }
  }
  std::uint64_t spare_tag =
      redundancy::ChunkTag(job->stripe_tag, job->op->lost_chunk);
  if (corrupt_stripes_.count(job->op->stripe) != 0) {
    spare_tag ^= kCorruptionMask;
  }
  const ChunkAddress addr =
      resolver_(job->op->stripe, job->op->lost_chunk, job->op->spare);
  assert(addr.volume != nullptr);
  ++run->report.chunk_writes;
  addr.volume->Write(addr.offset, options_.chunk_size, /*random=*/false,
                     spare_tag, [this, run, job](Status status) {
                       OnWriteDone(run, job, status);
                     });
}

void RebuildEngine::OnWriteDone(std::shared_ptr<Run> run,
                                std::shared_ptr<StripeJob> job,
                                Status status) {
  if (job->finished) return;
  if (!status.ok()) {
    FinishStripe(run, job, status);
    return;
  }
  job->write_done_at = sim_->now();
  if (!options_.verify_spare) {
    FinishStripe(run, job, Status::Ok());
    return;
  }
  const ChunkAddress addr =
      resolver_(job->op->stripe, job->op->lost_chunk, job->op->spare);
  addr.volume->Read(addr.offset, options_.chunk_size, /*random=*/false,
                    [this, run, job](Result<std::uint64_t> tag) {
                      OnVerifyDone(run, job, std::move(tag));
                    });
}

void RebuildEngine::OnVerifyDone(std::shared_ptr<Run> run,
                                 std::shared_ptr<StripeJob> job,
                                 Result<std::uint64_t> tag) {
  if (job->finished) return;
  if (!tag.ok()) {
    FinishStripe(run, job, tag.status());
    return;
  }
  const std::uint64_t expected =
      redundancy::ChunkTag(job->stripe_tag, job->op->lost_chunk);
  if (*tag != expected) {
    ++run->report.tag_mismatches;
    FinishStripe(run, job,
                 DataLossError("stripe " + std::to_string(job->op->stripe) +
                               ": spare chunk read back a different tag "
                               "than was decoded"));
    return;
  }
  FinishStripe(run, job, Status::Ok());
}

void RebuildEngine::FinishStripe(std::shared_ptr<Run> run,
                                 std::shared_ptr<StripeJob> job,
                                 Status status) {
  assert(!job->finished);
  job->finished = true;
  --run->in_flight;
  ReleaseDisks(*run, *job);
  if (status.ok()) {
    ++run->report.stripes_rebuilt;
    run->completed[job->op_index] = true;
    const sim::Time now = sim_->now();
    const sim::Duration stall = job->admitted_at - job->created_at;
    const sim::Duration read = job->reads_done_at - job->admitted_at;
    const sim::Duration write = job->write_done_at > 0
                                    ? job->write_done_at - job->reads_done_at
                                    : 0;
    const sim::Duration verify =
        job->write_done_at > 0 ? now - job->write_done_at : 0;
    phases_.RecordStripe(stall, read, write, verify);
  } else {
    run->failed = true;
    if (run->report.status.ok()) run->report.status = status;
  }
  Launch(run);
  MaybeFinish(run);
}

void RebuildEngine::MaybeFinish(std::shared_ptr<Run> run) {
  const bool launched_all =
      run->failed || run->next_op >= static_cast<int>(run->plan->ops.size());
  if (!launched_all || run->in_flight > 0) return;
  if (!run->done) return;  // already reported

  RebuildEngineReport& report = run->report;
  report.resume_from = static_cast<int>(run->plan->ops.size());
  for (int i = run->first_op; i < static_cast<int>(run->completed.size());
       ++i) {
    if (!run->completed[i]) {
      report.resume_from = i;
      break;
    }
  }
  report.elapsed = sim_->now() - run->started;
  if (report.elapsed > 0 && report.stripes_rebuilt > 0) {
    report.throughput_valid = true;
    report.throughput_mbps = static_cast<double>(report.stripes_rebuilt) *
                             static_cast<double>(options_.chunk_size) /
                             sim::ToSeconds(report.elapsed) / 1e6;
  }
  auto done = std::move(run->done);
  run->done = nullptr;
  done(report);
}

Status CheckRebuildResumable(const RebuildEngineReport& report) {
  if (report.stripes_rebuilt < 0 ||
      report.stripes_rebuilt > report.stripes_total) {
    return InternalError("rebuild report: stripes_rebuilt outside [0, total]");
  }
  if (report.throughput_valid && report.elapsed <= 0) {
    return InternalError("rebuild report: throughput claimed with no elapsed");
  }
  if (report.status.ok()) {
    if (report.stripes_rebuilt != report.stripes_total) {
      return InternalError(
          "rebuild report: clean status but unfinished stripes");
    }
    return Status::Ok();
  }
  if (report.resume_from < 0) {
    return InternalError("rebuild report: interrupted with no resume point");
  }
  if (report.stripes_rebuilt >= report.stripes_total &&
      report.stripes_total > 0) {
    return InternalError(
        "rebuild report: failed status but every stripe accounted rebuilt");
  }
  return Status::Ok();
}

}  // namespace ustore::services
