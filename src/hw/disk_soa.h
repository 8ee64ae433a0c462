// Struct-of-arrays hot state for a shard's disk population (DESIGN.md §12,
// §13).
//
// hw::Disk carries everything one spindle can do — request ring, per-op
// callbacks, trace spans, integrity store. At 100k disks per unit the
// sharded engine's steady-state path only touches a handful of scalars per
// disk (spin state, last direction, drain cursor, idle timer), so this
// class keeps exactly that hot state in parallel arrays: a batch
// submission or a fast-forward sweep walks contiguous memory instead of
// hopping across 100k heap-allocated Disk objects. Ops, bytes and spin
// cycles are counted for the whole array only — reports read the totals.
//
// Timing is bit-exact with hw::Disk for the NCQ closed-form drain of a
// same-shape batch (the data-plane fast path of DESIGN.md §9): the first
// request pays ServiceTime(shape, previous direction), every follow-up
// pays SteadyStateServiceTime, spin-up inserts the full spin_up_time in
// front of the window and is charged to the batch's first request. The
// idle spin-down lifecycle matches too, including the §IV-F adaptive
// timeout: a spin-up arriving within 4x the configured timeout of the
// previous one doubles the disk's idle timeout, capped at 64x (the same
// arithmetic as Disk::SpinUp). The equivalence tests
// (tests/hw_disk_soa_test.cc) drive a real hw::Disk and this array with
// identical submissions and assert identical completion schedules and spin
// transitions.
//
// The simulator drives only the Range/Sweep entry points: a ShardedCluster
// burst submits one SubmitBatchRange per maximal run of SoA-routed disks,
// even when fallback disks split its range. The per-disk SubmitBatch and
// FinishDrain are the reference those entry points are tested against
// (RangeEntryPointsMatchPerDiskLoop) and the per-disk baseline of
// bench_micro's BM_SoaSubmitPerDisk.
//
// Divergences from hw::Disk, by design: no per-request ring or callbacks
// (completions are a closed-form schedule the caller turns into one
// event), and the Range/Sweep entry points hoist the DiskModel evaluation
// out of the per-disk loop — one ServiceTime per previous-direction
// variant and one SteadyStateServiceTime per range. Completion times are
// unaffected: service times are pure functions of (shape, previous
// direction).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "hw/disk.h"
#include "hw/disk_model.h"
#include "sim/time.h"

namespace ustore::hw {

class DiskStateArray {
 public:
  struct BatchOutcome {
    bool accepted = false;            // false: disk failed or powered off
    sim::Time first_completion = 0;   // first request's platter completion
    sim::Time last_completion = 0;    // the drain event time
    sim::Duration first_service = 0;  // ServiceTime of the leading request
    sim::Duration steady_service = 0; // per-op time of the rest (0 if ops=1)
    sim::Duration spin_wait = 0;      // spin-up charged to this batch
  };

  // One vectorized submission over [first, first+count): the same shape and
  // op count lands on every live disk in the range (a spin-group drain).
  struct RangeOutcome {
    int accepted = 0;                // disks that admitted the batch
    int rejected = 0;                // failed / powered-off disks skipped
    int spin_ups = 0;                // implicit spin-ups charged in range
    std::uint64_t ops = 0;           // total requests admitted
    sim::Time first_completion = -1; // min over accepted disks
    sim::Time last_completion = -1;  // max over accepted disks (drain time)
  };

  struct SweepOutcome {
    int spun_down = 0;
    sim::Time next_deadline = -1;  // earliest future idle deadline, or -1
  };

  // `model` is borrowed: the unit's one model, shared with every hw::Disk.
  DiskStateArray(const DiskModel* model, int count,
                 sim::Duration idle_timeout);

  int count() const { return static_cast<int>(state_.size()); }
  DiskState state(int disk) const { return state_[disk]; }
  int queue_depth(int disk) const { return pending_batches_[disk]; }
  // Current idle spin-down timeout after §IV-F adaptive doubling.
  sim::Duration effective_idle_timeout(int disk) const {
    return idle_timeout_[disk];
  }

  // Per-disk reference path (see the file comment). Admits `ops` identical
  // `shape` requests as one NCQ batch at time `now` and returns the
  // closed-form completion schedule (request k of the accepted batch
  // completes at first_completion + k * steady_service). The caller
  // schedules one drain event at last_completion and calls FinishDrain
  // from it. A busy disk chains the batch behind the current drain,
  // exactly like requests waiting in hw::Disk's ring.
  BatchOutcome SubmitBatch(int disk, const IoRequest& shape,
                           std::uint64_t ops, sim::Time now);

  // Vectorized SubmitBatch over a contiguous range: identical per-disk
  // schedules (bit-exact with count() calls to SubmitBatch) from one pass
  // with the model evaluation hoisted out of the loop. When `per_disk` is
  // non-null it receives `count` BatchOutcomes (rejected disks keep
  // accepted == false). The caller schedules ONE drain event at
  // RangeOutcome::last_completion and calls FinishDrainRange from it.
  RangeOutcome SubmitBatchRange(int first, int count, const IoRequest& shape,
                                std::uint64_t ops, sim::Time now,
                                BatchOutcome* per_disk = nullptr);

  // Per-disk reference path: drain event for one batch fired. Returns the
  // idle-spin-down deadline the caller should arm a local event for, or -1
  // when no timer is due (more batches queued, spin-down disabled, or the
  // disk is gone).
  sim::Time FinishDrain(int disk, sim::Time now);

  // Range drain: retires the batch on every disk in [first, first+count)
  // whose chain completed by `now`. Each disk's idle deadline is armed
  // from its OWN drain completion time (drain_until), not the shared
  // event time, so spin-down instants stay bit-exact with the per-disk
  // path even when direction-switch penalties skew completions inside
  // the range. Returns the earliest armed idle deadline, or -1.
  sim::Time FinishDrainRange(int first, int count, sim::Time now);

  // Idle timer fired: spins down iff the disk is still idle and no newer
  // activity moved the deadline. Returns true if it spun down.
  bool MaybeSpinDown(int disk, sim::Time now);

  // Vectorized idle fast-forward: one pass spins down every due disk in
  // [first, first+count) and reports the next future deadline so the
  // caller can re-arm a single range timer instead of one per disk.
  SweepOutcome SpinDownSweep(int first, int count, sim::Time now);

  void Fail(int disk);
  void Repair(int disk);  // back to spun-down, like hw::Disk::Repair
  bool failed(int disk) const { return failed_[disk] != 0; }

  // Handoff mirror: force a disk's spin/fail state to match a live
  // hw::Disk at adoption time (the sharded Cluster seeds the array from
  // the fabric's real disks after Cluster::Start, when idle policy may
  // already have spun some down). Clears any in-flight drain chain.
  void SeedState(int disk, DiskState state, bool failed);

  // --- Aggregates (the SoA payoff: straight array sweeps) -------------------
  std::uint64_t total_ios() const { return total_ios_; }
  Bytes total_bytes_read() const { return total_bytes_read_; }
  Bytes total_bytes_written() const { return total_bytes_written_; }
  std::uint64_t total_spin_cycles() const { return total_spin_cycles_; }
  // Current power draw summed over the array, from the per-state counts.
  Watts TotalPower() const;

 private:
  void EnterState(int disk, DiskState next);
  // §IV-F adaptive back-off at the implicit spin-up in SubmitBatch[Range];
  // same arithmetic as Disk::SpinUp.
  void NoteSpinUp(int disk, sim::Time now);

  const DiskModel* model_;
  sim::Duration configured_idle_timeout_;

  // Hot per-disk state, index = disk. Parallel arrays, no padding waste.
  std::vector<DiskState> state_;
  std::vector<IoDirection> last_direction_;
  std::vector<std::uint8_t> failed_;
  std::vector<sim::Time> drain_until_;     // end of the queued drain chain
  std::vector<sim::Time> idle_deadline_;   // spin-down due time; -1 = none
  std::vector<sim::Time> last_spin_up_at_; // -1 until the first spin-up
  std::vector<sim::Duration> idle_timeout_;  // per-disk, adaptively doubled
  std::vector<std::int32_t> pending_batches_;

  // Array-wide counts (see the file comment).
  int state_counts_[5] = {0, 0, 0, 0, 0};
  std::uint64_t total_ios_ = 0;
  Bytes total_bytes_read_ = 0;
  Bytes total_bytes_written_ = 0;
  std::uint64_t total_spin_cycles_ = 0;
};

}  // namespace ustore::hw
