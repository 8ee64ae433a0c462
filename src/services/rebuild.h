// Data rebuild (§IV-E, left as future work in the paper):
//
//   "Since disks are not tightly coupled with servers, the involved disk
//    can be switched to one or a small set of servers in order to reduce
//    network load."
//
// RebuildEngine is the declustered executor for erasure-coded stripes
// (services/redundancy.h). It takes a RebuildPlan, keeps several stripe
// reconstructions in flight, fans each stripe's k chunk reads out over the
// surviving disks, throttles admission against the spin-group power budget
// (a cold unit may only spin a fraction of its disks), decodes by
// generator-tag agreement (disagreement is a detected RS syndrome mismatch
// -> kDataLoss), writes the spare chunk and verifies it by read-back. A
// read that fails mid-rebuild (chaos disk loss) fails over to an unused
// surviving chunk of the same stripe; when the stripe runs out of survivors
// the engine drains and reports the failure with exact partial progress
// (resume_from), so an interrupted rebuild is resumable, never restarted.
// A whole-disk replica copy is the degenerate RS(1+1) stripe.
//
// The report is a pure function of (options, volumes, fault schedule), so
// reports are bit-identical across runs, chaos on or off.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "core/clientlib.h"
#include "obs/phase.h"
#include "services/redundancy.h"
#include "sim/simulator.h"

namespace ustore::services {

struct RebuildEngineOptions {
  Bytes chunk_size = MiB(4);
  // Stripe reconstructions in flight at once (each is k reads + 1 write
  // + 1 verify read spread over distinct disks).
  int max_stripes_in_flight = 4;
  // Spin-group power budget: max distinct disks with engine I/O in
  // flight. 0 derives max(1, spin_budget_fraction * total_disks).
  int max_active_disks = 0;
  double spin_budget_fraction = 0.25;
  int total_disks = 0;  // for the derivation above; 0 -> layout's count
  // Read-back the spare chunk after writing it.
  bool verify_spare = true;
};

struct RebuildEngineReport {
  Status status;
  int stripes_total = 0;
  int stripes_rebuilt = 0;
  int chunk_reads = 0;
  int chunk_writes = 0;
  int tag_mismatches = 0;   // generator-tag disagreement or verify failure
  int read_failovers = 0;   // reads re-issued to an alternate survivor
  int admission_stalls = 0; // ops that waited on the spin budget
  // First plan-op index NOT fully rebuilt: pass to ExecuteFrom to resume.
  int resume_from = 0;
  sim::Duration elapsed = 0;
  // True iff elapsed > 0: a zero-elapsed report (nothing to rebuild) is
  // explicit instead of an indistinguishable 0 MB/s. Progress lives in
  // stripes_rebuilt either way.
  bool throughput_valid = false;
  double throughput_mbps = 0;  // reconstructed (spare) data rate
};

class RebuildEngine {
 public:
  // Where a chunk lives: the mounted volume and the chunk's byte offset
  // within it. Resolved by the caller (e.g. from Master stripe
  // allocations); the engine never touches the control plane itself.
  struct ChunkAddress {
    core::ClientLib::Volume* volume = nullptr;
    Bytes offset = 0;
  };
  using ChunkResolver = std::function<ChunkAddress(
      std::uint64_t stripe, int chunk, const fabric::ChunkLocation&)>;

  // `map` outlives the engine and already reflects the plan when the plan
  // was built with apply=true (the engine consults it for failover
  // alternates, keyed by the plan's recorded read/spare locations).
  RebuildEngine(sim::Simulator* sim, const redundancy::StripeMap* map,
                RebuildEngineOptions options, ChunkResolver resolver);

  // Executes every op in `plan` (which must outlive the call). `done`
  // fires once, after in-flight stripes drain — also on failure, with
  // resume_from marking the restart point.
  void Execute(const redundancy::RebuildPlan& plan,
               std::function<void(RebuildEngineReport)> done);
  // Resume: skips ops [0, first_op) as already rebuilt.
  void ExecuteFrom(int first_op, const redundancy::RebuildPlan& plan,
                   std::function<void(RebuildEngineReport)> done);

  // Test seam: corrupt the spare write for `stripe_id`.
  void CorruptSpareWriteForTest(std::uint64_t stripe_id) {
    corrupt_stripes_.insert(stripe_id);
  }

 private:
  struct Run;        // one Execute() invocation
  struct StripeJob;  // one in-flight stripe reconstruction

  void Launch(std::shared_ptr<Run> run);
  void StartStripe(std::shared_ptr<Run> run, int op_index);
  void OnReadDone(std::shared_ptr<Run> run, std::shared_ptr<StripeJob> job,
                  int read_slot, Result<std::uint64_t> tag);
  void Decode(std::shared_ptr<Run> run, std::shared_ptr<StripeJob> job);
  void OnWriteDone(std::shared_ptr<Run> run, std::shared_ptr<StripeJob> job,
                   Status status);
  void OnVerifyDone(std::shared_ptr<Run> run, std::shared_ptr<StripeJob> job,
                    Result<std::uint64_t> tag);
  void FinishStripe(std::shared_ptr<Run> run, std::shared_ptr<StripeJob> job,
                    Status status);
  void MaybeFinish(std::shared_ptr<Run> run);
  bool AdmitDisks(Run& run, const redundancy::RebuildStripeOp& op);
  void ReleaseDisks(Run& run, const StripeJob& job);

  sim::Simulator* sim_;
  const redundancy::StripeMap* map_;
  RebuildEngineOptions options_;
  ChunkResolver resolver_;
  obs::RebuildPhaseRecorder phases_;
  std::set<std::uint64_t> corrupt_stripes_;
};

// The resumability contract a mid-rebuild fault must leave behind: an
// interrupted run's report has to identify exactly where to restart
// (partial progress strictly accounted, resume_from well-formed), and a
// clean run has to have rebuilt everything it was given. Chaos treats a
// report violating this as an invariant violation
// (ChaosEngine::NoteRebuildInterrupted).
Status CheckRebuildResumable(const RebuildEngineReport& report);

}  // namespace ustore::services
