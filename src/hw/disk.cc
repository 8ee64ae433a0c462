#include "hw/disk.h"

#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace ustore::hw {

namespace {

// Coalescing condition for the steady-state fast-forward: identical
// direction/size/pattern means every follow-up request in the stretch costs
// the same switch-free service time.
bool SameShape(const IoRequest& a, const IoRequest& b) {
  return a.direction == b.direction && a.size == b.size &&
         a.pattern == b.pattern;
}

// The hot path's metric handles, one set per thread since every disk names
// the same seven: each re-resolves by obs epoch and registry generation, so
// a disk records into whichever registry its thread is bound to.
struct DiskMetrics {
  obs::HistogramHandle service_time_us{"disk.op.service_time_us"};
  obs::HistogramHandle queue_depth{"disk.queue.depth", obs::CountBuckets()};
  obs::HistogramHandle batch_size{"disk.batch.size", obs::CountBuckets()};
  obs::CounterHandle op_count{"disk.op.count"};
  obs::CounterHandle op_read_bytes{"disk.op.read_bytes"};
  obs::CounterHandle op_write_bytes{"disk.op.write_bytes"};
  obs::CounterHandle op_rejected{"disk.op.rejected"};
};

thread_local DiskMetrics handles;

}  // namespace

std::string_view DiskStateName(DiskState state) {
  switch (state) {
    case DiskState::kPoweredOff: return "powered-off";
    case DiskState::kSpinningUp: return "spinning-up";
    case DiskState::kSpunDown: return "spun-down";
    case DiskState::kIdle: return "idle";
    case DiskState::kActive: return "active";
  }
  return "?";
}

Disk::Disk(sim::Simulator* sim, std::string name, const DiskModel* model,
           bool start_powered, DiskQueueOptions queue_options)
    : sim_(sim),
      name_(std::move(name)),
      trace_component_("disk:" + name_),
      model_(model),
      queue_options_(queue_options),
      state_(start_powered ? DiskState::kIdle : DiskState::kPoweredOff),
      spin_timer_(sim),
      idle_timer_(sim) {
  if (queue_options_.queue_capacity == 0) queue_options_.queue_capacity = 1;
  if (queue_options_.max_batch == 0) queue_options_.max_batch = 1;
}

void Disk::RingPush(Pending pending) {
  // Lazy allocation: a fleet has far more disks than active spindles.
  if (ring_.empty()) ring_.resize(queue_options_.queue_capacity);
  assert(ring_count_ < ring_.size());
  ring_[(ring_head_ + ring_count_) % ring_.size()] = std::move(pending);
  ++ring_count_;
}

Disk::Pending Disk::RingPop() {
  assert(ring_count_ > 0);
  Pending out = std::move(ring_[ring_head_]);
  ring_head_ = (ring_head_ + 1) % ring_.size();
  --ring_count_;
  return out;
}

void Disk::SubmitIo(const IoRequest& request, IoCallback callback) {
  assert(callback);
  SubmitIo(
      request,
      [callback = std::move(callback)](const IoCompletion& completion) {
        callback(completion.status);
      },
      {});
}

void Disk::SubmitIo(const IoRequest& request, IoCallbackEx callback,
                    obs::TraceContext ctx) {
  assert(callback);
  if (failed_) {
    callback(IoCompletion{UnavailableError(name_ + ": disk failed"),
                          sim_->now()});
    return;
  }
  if (state_ == DiskState::kPoweredOff) {
    callback(IoCompletion{UnavailableError(name_ + ": disk powered off"),
                          sim_->now()});
    return;
  }
  if (RingFull(1)) {
    handles.op_rejected.Increment();
    callback(IoCompletion{
        ResourceExhaustedError(name_ + ": request queue full"), sim_->now()});
    return;
  }
  Pending pending{request, std::move(callback)};
  pending.submitted_at = sim_->now();
  pending.span = obs::Tracer().Begin(
      trace_component_, "io", ctx,
      {{"dir", request.direction == IoDirection::kRead ? "read" : "write"},
       {"size", request.size}});
  const obs::SpanId span = pending.span;
  RingPush(std::move(pending));
  if (state_ == DiskState::kSpunDown) {
    SpinUp(obs::Tracer().ContextFor(span));  // implicit spin-up on access
    return;  // queue drains once the platter is ready
  }
  MaybeStartNext();
}

void Disk::SubmitBatch(std::span<const IoRequest> requests,
                       BatchCallback done, obs::TraceContext ctx) {
  assert(done);
  if (requests.empty()) {
    done(std::span<const IoCompletion>());
    return;
  }
  auto reject = [&](const Status& status) {
    std::vector<IoCompletion> results(requests.size());
    const sim::Time now = sim_->now();
    for (IoCompletion& completion : results) {
      completion.status = status;
      completion.completed_at = now;
    }
    done(std::span<const IoCompletion>(results));
  };
  if (failed_) {
    reject(UnavailableError(name_ + ": disk failed"));
    return;
  }
  if (state_ == DiskState::kPoweredOff) {
    reject(UnavailableError(name_ + ": disk powered off"));
    return;
  }
  // Atomic admission: either the whole batch fits in the ring or nothing
  // is queued (partial admission would deliver an unpredictable mix of
  // served and rejected members).
  if (RingFull(requests.size())) {
    handles.op_rejected.Increment(requests.size());
    reject(ResourceExhaustedError(name_ + ": request queue full"));
    return;
  }

  const std::uint32_t id = next_batch_id_++;
  BatchState& batch = batches_[id];
  batch.done = std::move(done);
  batch.results.resize(requests.size());
  batch.remaining = requests.size();
  batch.span = obs::Tracer().Begin(trace_component_, "io_batch", ctx,
                                   {{"ops", requests.size()}});
  const sim::Time submitted_at = sim_->now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Pending pending{requests[i], IoCallbackEx(), id,
                    static_cast<std::uint32_t>(i)};
    pending.submitted_at = submitted_at;
    RingPush(std::move(pending));
  }
  if (state_ == DiskState::kSpunDown) {
    SpinUp(obs::Tracer().ContextFor(batch.span));
    return;
  }
  MaybeStartNext();
}

void Disk::MaybeStartNext() {
  if (draining_ || ring_count_ == 0) return;
  if (state_ != DiskState::kIdle && state_ != DiskState::kActive) return;

  draining_ = true;
  failed_at_ = -1;
  state_ = DiskState::kActive;

  // NCQ-style admission. A serial request drains alone — one simulator
  // event per request, which is the timing baseline batched submission must
  // reproduce. Batch members admit as a contiguous run of the same batch,
  // capped at max_batch, under a single simulator event.
  std::size_t run = 1;
  const std::uint32_t batch = RingFront().batch;
  if (batch != 0) {
    while (run < queue_options_.max_batch && run < ring_count_) {
      const Pending& next = ring_[(ring_head_ + run) % ring_.size()];
      if (next.batch != batch) break;
      ++run;
    }
    handles.batch_size.Observe(static_cast<double>(run));
  }
  handles.queue_depth.Observe(static_cast<double>(ring_count_));

  inflight_.clear();
  inflight_.reserve(run);
  for (std::size_t i = 0; i < run; ++i) {
    inflight_.push_back(Inflight{RingPop()});
  }
  // The first request drained after an implicit spin-up owns the whole
  // spin-up wait (it is what the requester actually waited for).
  inflight_.front().spin = pending_window_spin_;
  pending_window_spin_ = 0;

  // Completion times chain exactly as one-at-a-time stepping would: each
  // request's service time depends on the previous request's direction.
  // A homogeneous stretch (same direction/size/pattern) fast-forwards
  // closed-form — t_k = t_first + (k - first) * s is exact in integer
  // nanoseconds, and the steady-state s equals the switch-free
  // ServiceTime by construction (WorkloadSpec math; see DiskModel).
  sim::Time t = sim_->now();
  std::size_t i = 0;
  while (i < run) {
    const IoRequest& request = inflight_[i].pending.request;
    const sim::Duration first_service =
        model_->ServiceTime(request, last_direction_);
    last_direction_ = request.direction;
    t += first_service;
    inflight_[i].completes_at = t;
    inflight_[i].service = first_service;
    handles.service_time_us.Observe(sim::ToMicros(first_service));

    std::size_t j = i + 1;
    while (j < run && SameShape(inflight_[j].pending.request, request)) ++j;
    if (j > i + 1) {
      const sim::Duration steady = model_->SteadyStateServiceTime(request);
      const sim::Time base = inflight_[i].completes_at;
      const double steady_us = sim::ToMicros(steady);
      for (std::size_t k = i + 1; k < j; ++k) {
        inflight_[k].completes_at =
            base + static_cast<sim::Duration>(k - i) * steady;
        inflight_[k].service = steady;
        handles.service_time_us.Observe(steady_us);
      }
      t = inflight_[j - 1].completes_at;
    }
    i = j;
  }

  // One event per drained window; re-arming for the next window happens in
  // FinishDrain without any Cancel/Schedule churn.
  sim_->Schedule(t - sim_->now(), [this] { FinishDrain(); });
}

void Disk::FinishDrain() {
  draining_ = false;
  // Move the window out: completion callbacks may re-enter SubmitIo /
  // SubmitBatch (and even start the next drain) while we deliver. The
  // failure instant is snapshotted for the same reason — a re-entrant
  // MaybeStartNext resets failed_at_, which must not change how the
  // remaining members of *this* window are classified.
  std::vector<Inflight> window = std::move(inflight_);
  inflight_.clear();
  const sim::Time failed_at = failed_at_;
  failed_at_ = -1;

  for (Inflight& entry : window) {
    Pending& pending = entry.pending;
    // A request whose platter time predates the failure instant had
    // physically completed; only later members of the window are lost.
    Status status = Status::Ok();
    if (failed_at >= 0 && entry.completes_at > failed_at) {
      status = UnavailableError(name_ + ": lost power mid-io");
    }
    if (status.ok()) {
      ++ios_completed_;
      handles.op_count.Increment();
      if (pending.request.direction == IoDirection::kRead) {
        bytes_read_ += pending.request.size;
        handles.op_read_bytes.Increment(
            static_cast<std::uint64_t>(pending.request.size));
      } else {
        bytes_written_ += pending.request.size;
        handles.op_write_bytes.Increment(
            static_cast<std::uint64_t>(pending.request.size));
      }
    }
    Deliver(pending, IoCompletion{std::move(status), entry.completes_at,
                                  entry.service, entry.spin});
  }

  if (draining_) return;  // a completion callback already started the next window
  if (failed_ ||
      (state_ != DiskState::kActive && state_ != DiskState::kIdle)) {
    // Power/fail transitions own the queue until the disk is healthy again
    // (FailAll already cleared it, or FinishSpinUp will restart the drain).
    return;
  }
  if (ring_count_ > 0) {
    MaybeStartNext();
  } else {
    state_ = DiskState::kIdle;
    ArmIdleTimer();
  }
}

void Disk::Deliver(Pending& pending, IoCompletion completion) {
  obs::TraceBuffer& tracer = obs::Tracer();
  if (pending.batch == 0) {
    if (pending.span > obs::kUnsampledSpan) {
      if (completion.status.ok()) {
        tracer.EndAt(pending.span, completion.completed_at,
                     {{"service_ns", completion.service_ns}});
      } else {
        tracer.EndAt(pending.span, completion.completed_at,
                     {{"service_ns", completion.service_ns},
                      {"error", completion.status.ToString()}});
      }
    }
    pending.callback(completion);
    return;
  }
  auto it = batches_.find(pending.batch);
  assert(it != batches_.end());
  BatchState& batch = it->second;
  // Batching must not delete per-op observability: each member gets an
  // `io` child span under the batch's `io_batch` span, with exactly the
  // serial path's attributes and its true platter interval
  // [submitted_at, completed_at] — the drain event that delivers several
  // members at once is invisible in the trace.
  // Real span ids are always > kUnsampledSpan, so one compare skips the
  // whole per-op emission for unsampled (or untraced) batches.
  if (batch.span > obs::kUnsampledSpan && tracer.enabled()) {
    const obs::TraceContext ctx = tracer.ContextFor(batch.span);
    const std::string_view dir =
        pending.request.direction == IoDirection::kRead ? "read" : "write";
    if (completion.status.ok()) {
      tracer.Emit(trace_component_, "io", pending.submitted_at,
                  completion.completed_at, ctx,
                  {{"dir", dir},
                   {"size", pending.request.size},
                   {"service_ns", completion.service_ns}});
    } else {
      tracer.Emit(trace_component_, "io", pending.submitted_at,
                  completion.completed_at, ctx,
                  {{"dir", dir},
                   {"size", pending.request.size},
                   {"service_ns", completion.service_ns},
                   {"error", completion.status.ToString()}});
    }
  }
  batch.results[pending.batch_index] = std::move(completion);
  if (--batch.remaining == 0) {
    BatchState finished = std::move(batch);
    batches_.erase(it);
    tracer.End(finished.span);
    finished.done(std::span<const IoCompletion>(finished.results));
  }
}

void Disk::SpinUp(obs::TraceContext ctx) {
  if (failed_ || state_ == DiskState::kPoweredOff) return;
  if (state_ != DiskState::kSpunDown) return;

  // §IV-F: if spin cycles come too frequently, back off the idle timeout.
  if (configured_idle_timeout_ > 0 && last_spin_up_at_ >= 0 &&
      sim_->now() - last_spin_up_at_ < 4 * configured_idle_timeout_) {
    idle_timeout_ = std::min<sim::Duration>(idle_timeout_ * 2,
                                            64 * configured_idle_timeout_);
  }
  last_spin_up_at_ = sim_->now();
  spin_started_at_ = sim_->now();
  ++spin_cycles_;
  obs::Metrics().Increment("disk.spin_up.count");
  spin_span_ = obs::Tracer().Begin(trace_component_, "spin_up", ctx);

  state_ = DiskState::kSpinningUp;
  spin_timer_.StartOneShot(model_->disk().spin_up_time,
                           [this] { FinishSpinUp(); });
}

void Disk::FinishSpinUp() {
  if (state_ != DiskState::kSpinningUp) return;
  obs::Tracer().End(spin_span_);
  spin_span_ = obs::kInvalidSpan;
  // Charge the spin-up wait to the next drained window's first request
  // (phase attribution; see MaybeStartNext).
  pending_window_spin_ = sim_->now() - spin_started_at_;
  state_ = DiskState::kIdle;
  if (ring_count_ == 0 && !draining_) {
    // No one was waiting: the spin-up belongs to no request.
    pending_window_spin_ = 0;
    ArmIdleTimer();
  } else {
    MaybeStartNext();
  }
}

void Disk::SpinDown() {
  if (state_ != DiskState::kIdle) return;  // never interrupt active I/O
  idle_timer_.Stop();
  obs::Metrics().Increment("disk.spin_down.count");
  state_ = DiskState::kSpunDown;
}

void Disk::PowerOn() {
  if (state_ != DiskState::kPoweredOff) return;
  // Power-on leaves the platter stopped; spin-up is a separate (heavier)
  // step so the Controller can do rolling spin-up (§III-B).
  state_ = DiskState::kSpunDown;
}

void Disk::PowerOff() {
  if (state_ == DiskState::kPoweredOff) return;
  spin_timer_.Stop();
  idle_timer_.Stop();
  // A stopped spin-up never reaches FinishSpinUp, so its span ends here.
  obs::Tracer().End(spin_span_, {{"outcome", "powered-off"}});
  spin_span_ = obs::kInvalidSpan;
  // The in-flight window (if any) resolves at its scheduled drain event;
  // members past this instant fail there with "lost power mid-io".
  if (draining_ && failed_at_ < 0) failed_at_ = sim_->now();
  state_ = DiskState::kPoweredOff;
  FailAll(UnavailableError(name_ + ": powered off"));
}

void Disk::Fail() {
  if (failed_) return;
  failed_ = true;
  spin_timer_.Stop();
  idle_timer_.Stop();
  obs::Tracer().End(spin_span_, {{"outcome", "failed"}});
  spin_span_ = obs::kInvalidSpan;
  // Cut short, the platter stops where Repair() expects it.
  if (state_ == DiskState::kSpinningUp) state_ = DiskState::kSpunDown;
  if (draining_ && failed_at_ < 0) failed_at_ = sim_->now();
  FailAll(UnavailableError(name_ + ": disk failed"));
}

void Disk::Repair() {
  failed_ = false;
  if (state_ != DiskState::kPoweredOff) state_ = DiskState::kSpunDown;
}

void Disk::FailAll(const Status& status) {
  const sim::Time now = sim_->now();
  // Empty the ring before delivering anything: a failure callback may
  // legitimately resubmit (e.g. after re-powering the disk), and a request
  // accepted by SubmitIo must not be swallowed by this sweep.
  std::vector<Pending> doomed;
  doomed.reserve(ring_count_);
  while (ring_count_ > 0) doomed.push_back(RingPop());
  for (Pending& pending : doomed) {
    Deliver(pending, IoCompletion{status, now});
  }
}

void Disk::SetIdleSpinDown(sim::Duration idle_timeout) {
  configured_idle_timeout_ = idle_timeout;
  idle_timeout_ = idle_timeout;
  if (state_ == DiskState::kIdle && !draining_ && ring_count_ == 0) {
    ArmIdleTimer();
  }
}

void Disk::ArmIdleTimer() {
  if (idle_timeout_ <= 0) return;
  // Timer::Arm reschedules a still-pending event in place, so back-to-back
  // I/O bursts cost no Cancel/Schedule churn; the guard makes a stale
  // firing during a later burst harmless.
  idle_timer_.StartOneShot(idle_timeout_, [this] {
    if (state_ == DiskState::kIdle && !draining_ && ring_count_ == 0) {
      SpinDown();
    }
  });
}

Watts Disk::current_power() const {
  const DiskParams& d = model_->disk();
  const InterfaceParams& i = model_->iface();
  switch (state_) {
    case DiskState::kPoweredOff:
      return 0.0;
    case DiskState::kSpinningUp:
      return d.power_spin_up_surge + i.power_active;
    case DiskState::kSpunDown:
      return d.power_spun_down + i.power_spun_down;
    case DiskState::kIdle:
      return d.power_idle + i.power_idle;
    case DiskState::kActive:
      return d.power_active + i.power_active;
  }
  return 0.0;
}

void Disk::WriteFingerprint(Bytes offset, std::uint64_t tag) {
  fingerprints_[offset / kFingerprintBlock] = tag;
}

std::uint64_t Disk::ReadFingerprint(Bytes offset) const {
  auto it = fingerprints_.find(offset / kFingerprintBlock);
  return it == fingerprints_.end() ? 0 : it->second;
}

}  // namespace ustore::hw
