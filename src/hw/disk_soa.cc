#include "hw/disk_soa.h"

#include <algorithm>
#include <cassert>

namespace ustore::hw {

DiskStateArray::DiskStateArray(const DiskModel* model, int count,
                               sim::Duration idle_timeout)
    : model_(model), configured_idle_timeout_(idle_timeout) {
  assert(model_ != nullptr);
  assert(count >= 0);
  state_.assign(count, DiskState::kIdle);
  last_direction_.assign(count, IoDirection::kRead);
  failed_.assign(count, 0);
  drain_until_.assign(count, 0);
  idle_deadline_.assign(count, -1);
  last_spin_up_at_.assign(count, -1);
  idle_timeout_.assign(count, idle_timeout);
  pending_batches_.assign(count, 0);
  state_counts_[static_cast<int>(DiskState::kIdle)] = count;
}

void DiskStateArray::EnterState(int disk, DiskState next) {
  if (state_[disk] == next) return;
  --state_counts_[static_cast<int>(state_[disk])];
  ++state_counts_[static_cast<int>(next)];
  state_[disk] = next;
}

void DiskStateArray::NoteSpinUp(int disk, sim::Time now) {
  // §IV-F: if spin cycles come too frequently, back off the idle timeout.
  // Same arithmetic as Disk::SpinUp — 4x-configured window, 2x doubling,
  // 64x cap — evaluated at the submission that triggers the implicit
  // spin-up (hw::Disk calls SpinUp from the same submission).
  if (configured_idle_timeout_ > 0 && last_spin_up_at_[disk] >= 0 &&
      now - last_spin_up_at_[disk] < 4 * configured_idle_timeout_) {
    idle_timeout_[disk] = std::min<sim::Duration>(
        idle_timeout_[disk] * 2, 64 * configured_idle_timeout_);
  }
  last_spin_up_at_[disk] = now;
  ++total_spin_cycles_;
}

DiskStateArray::BatchOutcome DiskStateArray::SubmitBatch(
    int disk, const IoRequest& shape, std::uint64_t ops, sim::Time now) {
  assert(disk >= 0 && disk < count());
  assert(ops >= 1);
  BatchOutcome out;
  if (failed_[disk] != 0 || state_[disk] == DiskState::kPoweredOff) {
    return out;  // rejected, like hw::Disk failing the submission
  }

  sim::Time start = now;
  if (pending_batches_[disk] > 0) {
    // Chain behind the queued drain, exactly where hw::Disk's ring would
    // start the next window (FinishDrain -> MaybeStartNext at drain end).
    start = std::max(start, drain_until_[disk]);
  } else if (state_[disk] == DiskState::kSpunDown) {
    // Implicit spin-up on access; the whole wait is charged to this
    // batch's first request (hw::Disk's pending_window_spin_ handoff).
    NoteSpinUp(disk, now);
    out.spin_wait = model_->disk().spin_up_time;
    start += out.spin_wait;
  }

  out.accepted = true;
  out.first_service = model_->ServiceTime(shape, last_direction_[disk]);
  out.first_completion = start + out.first_service;
  if (ops > 1) {
    out.steady_service = model_->SteadyStateServiceTime(shape);
    out.last_completion =
        out.first_completion +
        static_cast<sim::Duration>(ops - 1) * out.steady_service;
  } else {
    out.last_completion = out.first_completion;
  }

  last_direction_[disk] = shape.direction;
  drain_until_[disk] = out.last_completion;
  ++pending_batches_[disk];
  idle_deadline_[disk] = -1;
  EnterState(disk, DiskState::kActive);

  total_ios_ += ops;
  const Bytes bytes = static_cast<Bytes>(ops) * shape.size;
  if (shape.direction == IoDirection::kRead) {
    total_bytes_read_ += bytes;
  } else {
    total_bytes_written_ += bytes;
  }
  return out;
}

DiskStateArray::RangeOutcome DiskStateArray::SubmitBatchRange(
    int first, int n, const IoRequest& shape, std::uint64_t ops,
    sim::Time now, BatchOutcome* per_disk) {
  assert(first >= 0 && n >= 0 && first + n <= count());
  assert(ops >= 1);
  RangeOutcome out;

  // Hoisted model evaluation: the only per-disk inputs to the schedule are
  // the previous direction (two variants) and the spin/queue state, so the
  // whole range needs at most three DiskModel calls. Service times are
  // pure in (shape, prev_dir), which keeps every per-disk schedule
  // bit-exact with a SubmitBatch loop.
  const sim::Duration svc_prev[2] = {
      model_->ServiceTime(shape, IoDirection::kRead),
      model_->ServiceTime(shape, IoDirection::kWrite)};
  const sim::Duration steady =
      ops > 1 ? model_->SteadyStateServiceTime(shape) : 0;
  const sim::Duration spin = model_->disk().spin_up_time;
  const sim::Duration tail =
      static_cast<sim::Duration>(ops - 1) * steady;

  for (int d = first; d < first + n; ++d) {
    if (failed_[d] != 0 || state_[d] == DiskState::kPoweredOff) {
      ++out.rejected;
      if (per_disk != nullptr) per_disk[d - first] = BatchOutcome{};
      continue;
    }
    sim::Time start = now;
    sim::Duration spin_wait = 0;
    if (pending_batches_[d] > 0) {
      start = std::max(start, drain_until_[d]);
    } else if (state_[d] == DiskState::kSpunDown) {
      NoteSpinUp(d, now);
      spin_wait = spin;
      start += spin;
      ++out.spin_ups;
    }
    const sim::Duration first_service =
        svc_prev[static_cast<int>(last_direction_[d])];
    const sim::Time first_completion = start + first_service;
    const sim::Time last_completion = first_completion + tail;

    last_direction_[d] = shape.direction;
    drain_until_[d] = last_completion;
    ++pending_batches_[d];
    idle_deadline_[d] = -1;
    EnterState(d, DiskState::kActive);

    ++out.accepted;
    out.ops += ops;
    if (out.first_completion < 0 || first_completion < out.first_completion) {
      out.first_completion = first_completion;
    }
    if (last_completion > out.last_completion) {
      out.last_completion = last_completion;
    }
    if (per_disk != nullptr) {
      per_disk[d - first] = BatchOutcome{true, first_completion,
                                         last_completion, first_service,
                                         steady, spin_wait};
    }
  }
  total_ios_ += out.ops;
  const Bytes bytes = static_cast<Bytes>(out.ops) * shape.size;
  if (shape.direction == IoDirection::kRead) {
    total_bytes_read_ += bytes;
  } else {
    total_bytes_written_ += bytes;
  }
  return out;
}

sim::Time DiskStateArray::FinishDrain(int disk, sim::Time now) {
  assert(disk >= 0 && disk < count());
  if (pending_batches_[disk] > 0) --pending_batches_[disk];
  if (failed_[disk] != 0 || state_[disk] == DiskState::kPoweredOff) {
    return -1;
  }
  if (pending_batches_[disk] > 0 || now < drain_until_[disk]) {
    return -1;  // a later batch still owns the spindle
  }
  EnterState(disk, DiskState::kIdle);
  if (idle_timeout_[disk] <= 0) return -1;
  idle_deadline_[disk] = now + idle_timeout_[disk];
  return idle_deadline_[disk];
}

sim::Time DiskStateArray::FinishDrainRange(int first, int n, sim::Time now) {
  assert(first >= 0 && n >= 0 && first + n <= count());
  sim::Time earliest = -1;
  for (int d = first; d < first + n; ++d) {
    if (pending_batches_[d] > 0) --pending_batches_[d];
    if (failed_[d] != 0 || state_[d] == DiskState::kPoweredOff) continue;
    if (pending_batches_[d] > 0 || now < drain_until_[d]) continue;
    EnterState(d, DiskState::kIdle);
    if (idle_timeout_[d] <= 0) continue;
    // Arm from the disk's own completion instant: the shared range drain
    // event fires at the range max, but this disk went idle at
    // drain_until_ — the per-disk path's FinishDrain time.
    idle_deadline_[d] = drain_until_[d] + idle_timeout_[d];
    if (earliest < 0 || idle_deadline_[d] < earliest) {
      earliest = idle_deadline_[d];
    }
  }
  return earliest;
}

bool DiskStateArray::MaybeSpinDown(int disk, sim::Time now) {
  assert(disk >= 0 && disk < count());
  if (failed_[disk] != 0 || state_[disk] != DiskState::kIdle) return false;
  if (idle_deadline_[disk] < 0 || now < idle_deadline_[disk]) return false;
  if (pending_batches_[disk] > 0) return false;
  idle_deadline_[disk] = -1;
  EnterState(disk, DiskState::kSpunDown);
  return true;
}

DiskStateArray::SweepOutcome DiskStateArray::SpinDownSweep(int first, int n,
                                                           sim::Time now) {
  assert(first >= 0 && n >= 0 && first + n <= count());
  SweepOutcome out;
  for (int d = first; d < first + n; ++d) {
    const sim::Time due = idle_deadline_[d];
    if (due < 0) continue;
    if (due > now) {
      if (out.next_deadline < 0 || due < out.next_deadline) {
        out.next_deadline = due;
      }
      continue;
    }
    if (MaybeSpinDown(d, now)) ++out.spun_down;
  }
  return out;
}

void DiskStateArray::Fail(int disk) {
  assert(disk >= 0 && disk < count());
  if (failed_[disk] != 0) return;
  failed_[disk] = 1;
  // In-flight windows are moot: stale drain events see pending == 0.
  pending_batches_[disk] = 0;
  drain_until_[disk] = 0;
  idle_deadline_[disk] = -1;
}

void DiskStateArray::Repair(int disk) {
  assert(disk >= 0 && disk < count());
  if (failed_[disk] == 0) return;
  failed_[disk] = 0;
  if (state_[disk] != DiskState::kPoweredOff) {
    EnterState(disk, DiskState::kSpunDown);
  }
}

void DiskStateArray::SeedState(int disk, DiskState state, bool failed) {
  assert(disk >= 0 && disk < count());
  EnterState(disk, state);
  failed_[disk] = failed ? 1 : 0;
  pending_batches_[disk] = 0;
  drain_until_[disk] = 0;
  idle_deadline_[disk] = -1;
}

Watts DiskStateArray::TotalPower() const {
  const DiskParams& d = model_->disk();
  const InterfaceParams& i = model_->iface();
  const auto n = [this](DiskState s) {
    return static_cast<double>(state_counts_[static_cast<int>(s)]);
  };
  return n(DiskState::kSpinningUp) * (d.power_spin_up_surge + i.power_active) +
         n(DiskState::kSpunDown) * (d.power_spun_down + i.power_spun_down) +
         n(DiskState::kIdle) * (d.power_idle + i.power_idle) +
         n(DiskState::kActive) * (d.power_active + i.power_active);
}

}  // namespace ustore::hw
