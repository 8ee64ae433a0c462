// A stateful simulated hard disk.
//
// Wraps DiskModel with a spin-state machine, a fixed-capacity request ring
// served at the modelled service times, power accounting, and a sparse
// block fingerprint store so upper layers (iSCSI, MiniDfs) can verify data
// integrity end to end without simulating real payload bytes.
//
// Data-plane fast path (DESIGN.md §9): requests submitted one at a time
// (SubmitIo) are drained with one simulator event each — the timing
// baseline. Requests submitted as a batch (SubmitBatch) are admitted
// NCQ-style: up to DiskQueueOptions::max_batch adjacent members of the same
// batch drain under a single simulator event, and adjacent same-shape
// requests (same direction/size/pattern) inside the admission window are
// coalesced — their completion times come closed-form from the steady-state
// WorkloadSpec math instead of per-request stepping. Either way the
// per-request completion timestamps are bit-identical: service times are
// integer nanoseconds, the direction chain is threaded identically, and the
// closed form t_i = t_first + i * s is exact in int64 arithmetic. The
// dataplane equivalence test enforces this.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hw/disk_model.h"
#include "obs/trace.h"
#include "sim/event_fn.h"
#include "sim/simulator.h"

namespace ustore::hw {

enum class DiskState {
  kPoweredOff,
  kSpinningUp,
  kSpunDown,   // platter stopped, electronics alive
  kIdle,       // spinning, no I/O in progress
  kActive,     // serving I/O
};

std::string_view DiskStateName(DiskState state);

// Fingerprint granularity for the integrity store.
inline constexpr Bytes kFingerprintBlock = KiB(4);

// Completion record for one request of a batch: its Status plus the exact
// simulated time the request finished on the platter. Batch completions are
// delivered together at the end of the batch's drain event, so
// `completed_at` — not the delivery time — is the per-request timestamp;
// it is bit-identical to what one-at-a-time submission produces.
//
// `service_ns` is the platter time the model charged this request, and
// `spin_ns` the spin-up wait attributed to it (the first request drained
// after an implicit spin-up carries the whole spin); both feed critical-path
// phase attribution (obs/phase.h): queue_wait falls out as
// (completed_at - submit) - spin_ns - service_ns.
struct IoCompletion {
  Status status;
  sim::Time completed_at = 0;
  sim::Duration service_ns = 0;
  sim::Duration spin_ns = 0;
};

struct DiskQueueOptions {
  // Request-ring capacity. Submissions that do not fit fail immediately
  // with kResourceExhausted (explicit backpressure, never silent drops).
  std::size_t queue_capacity = 256;
  // NCQ-style admission window: at most this many members of one batch
  // drain under a single simulator event.
  std::size_t max_batch = 32;
};

class Disk {
 public:
  using IoCallback = std::function<void(Status)>;
  // Full-completion callback: timing attribution in addition to status.
  using IoCallbackEx = std::function<void(const IoCompletion&)>;
  // Batch completions arrive in submission order, in one callback. SmallFn
  // storage keeps the typical capture (owner pointer + a couple of ids)
  // allocation-free.
  using BatchCallback = sim::SmallFn<void(std::span<const IoCompletion>)>;

  // `model` is borrowed and shared by every disk of the unit.
  Disk(sim::Simulator* sim, std::string name, const DiskModel* model,
       bool start_powered = true, DiskQueueOptions queue_options = {});

  const std::string& name() const { return name_; }
  const DiskModel& model() const { return *model_; }
  DiskState state() const { return state_; }
  Bytes capacity() const { return model_->disk().capacity; }
  const DiskQueueOptions& queue_options() const { return queue_options_; }

  // --- I/O -----------------------------------------------------------------
  // Queues a request; the callback fires when it completes. A request to a
  // spun-down disk triggers an implicit spin-up first (as real disks do). A
  // request to a powered-off or failed disk fails immediately; a request
  // that does not fit in the ring fails with kResourceExhausted.
  void SubmitIo(const IoRequest& request, IoCallback callback);
  // Same, with the full completion record and the submitter's trace
  // context: the request's `io` span (and any implicit `spin_up`) parents
  // under the caller's span. No default for `ctx` — it would make the two
  // overloads ambiguous for callers passing lambdas.
  void SubmitIo(const IoRequest& request, IoCallbackEx callback,
                obs::TraceContext ctx);

  // Queues a whole vector of requests as one NCQ batch; `done` fires once,
  // after the last member completes, with per-request statuses and exact
  // completion timestamps. Admission is atomic: if the batch does not fit
  // in the ring, every member fails with kResourceExhausted (and nothing
  // is queued). `requests` may be freed as soon as this returns.
  void SubmitBatch(std::span<const IoRequest> requests, BatchCallback done,
                   obs::TraceContext ctx = {});

  std::size_t queue_depth() const { return ring_count_ + inflight_.size(); }

  // --- Spin/power management (§IV-F) --------------------------------------
  // `ctx` (from an implicit access spin-up) parents the `spin_up` span
  // under the triggering request's span.
  void SpinUp(obs::TraceContext ctx = {});
  void SpinDown();
  void PowerOn();
  void PowerOff();  // in-flight and queued I/O fails with kUnavailable

  // Marks the disk as failed hardware; all I/O fails until repaired.
  void Fail();
  void Repair();
  bool failed() const { return failed_; }

  // Idle spin-down policy: after `idle_timeout` with an empty queue the disk
  // spins down automatically; 0 disables. §IV-F also doubles the timeout
  // when spin cycles come too frequently — modelled here.
  void SetIdleSpinDown(sim::Duration idle_timeout);
  sim::Duration effective_idle_timeout() const { return idle_timeout_; }

  // --- Power ---------------------------------------------------------------
  Watts current_power() const;

  // --- Integrity store -----------------------------------------------------
  // Fingerprints are caller-chosen 64-bit tags per 4KiB block.
  void WriteFingerprint(Bytes offset, std::uint64_t tag);
  std::uint64_t ReadFingerprint(Bytes offset) const;  // 0 if never written

  // --- Counters ------------------------------------------------------------
  std::uint64_t ios_completed() const { return ios_completed_; }
  Bytes bytes_read() const { return bytes_read_; }
  Bytes bytes_written() const { return bytes_written_; }
  int spin_cycles() const { return spin_cycles_; }

 private:
  struct Pending {
    IoRequest request;
    IoCallbackEx callback;          // serial submissions only
    std::uint32_t batch = 0;        // 0 = serial; else key into batches_
    std::uint32_t batch_index = 0;  // slot in BatchState::results
    obs::SpanId span = obs::kInvalidSpan;  // submit -> completion (serial)
    sim::Time submitted_at = 0;  // per-op batch spans start here
  };
  struct BatchState {
    BatchCallback done;
    std::vector<IoCompletion> results;
    std::size_t remaining = 0;
    obs::SpanId span = obs::kInvalidSpan;  // one span per batch
  };
  struct Inflight {
    Pending pending;
    sim::Time completes_at = 0;
    sim::Duration service = 0;  // platter time charged by the model
    sim::Duration spin = 0;     // spin-up wait attributed to this request
  };

  // Ring helpers (lazily allocated on first submission: most disks in a
  // large fleet never see I/O, so the per-disk ring should cost nothing
  // until used).
  bool RingFull(std::size_t incoming) const {
    return ring_count_ + incoming > queue_options_.queue_capacity;
  }
  void RingPush(Pending pending);
  Pending RingPop();
  Pending& RingFront() { return ring_[ring_head_]; }

  void MaybeStartNext();
  void FinishDrain();
  void FinishSpinUp();
  void ArmIdleTimer();
  void FailAll(const Status& status);
  // Routes a finished request to its serial callback or its batch slot
  // (firing the batch callback when the last member lands).
  void Deliver(Pending& pending, IoCompletion completion);

  sim::Simulator* sim_;
  std::string name_;
  std::string trace_component_;  // "disk:<name>", cached off the hot path
  const DiskModel* model_;
  DiskQueueOptions queue_options_;
  DiskState state_;
  bool failed_ = false;
  // True while a drain event is pending. It is not cleared by Fail() or
  // PowerOff(): like a real platter losing power mid-command, the in-flight
  // window resolves at its scheduled completion time (requests that had
  // already physically completed succeed, later ones fail). FinishDrain
  // snapshots and clears failed_at_ on entry, so completion callbacks that
  // restart the queue cannot change how the rest of the window is judged.
  bool draining_ = false;
  sim::Time failed_at_ = -1;  // failure instant while a drain was in flight
  IoDirection last_direction_ = IoDirection::kRead;

  std::vector<Pending> ring_;  // fixed capacity, lazily allocated
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::vector<Inflight> inflight_;  // the admitted window being drained
  std::uint32_t next_batch_id_ = 1;
  std::unordered_map<std::uint32_t, BatchState> batches_;

  sim::Timer spin_timer_;
  sim::Timer idle_timer_;
  sim::Duration idle_timeout_ = 0;
  sim::Duration configured_idle_timeout_ = 0;
  sim::Time last_spin_up_at_ = -1;
  obs::SpanId spin_span_ = obs::kInvalidSpan;
  sim::Time spin_started_at_ = 0;
  // Spin-up wait not yet charged to a request; the next admitted window's
  // first member carries it (FinishSpinUp -> MaybeStartNext handoff).
  sim::Duration pending_window_spin_ = 0;
  int spin_cycles_ = 0;
  std::uint64_t ios_completed_ = 0;
  Bytes bytes_read_ = 0;
  Bytes bytes_written_ = 0;
  std::unordered_map<Bytes, std::uint64_t> fingerprints_;
};

}  // namespace ustore::hw
