#include "iscsi/iscsi.h"

#include <cassert>

#include "common/logging.h"
#include "hw/disk_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::iscsi {

IscsiTarget::IscsiTarget(
    sim::Simulator* sim, net::RpcEndpoint* endpoint,
    std::function<hw::Disk*(const std::string&)> disk_resolver,
    Options options)
    : sim_(sim),
      endpoint_(endpoint),
      trace_component_("iscsi:" + endpoint->id()),
      disk_resolver_(std::move(disk_resolver)),
      options_(options) {
  assert(disk_resolver_);
  RegisterHandlers();
}

void IscsiTarget::Expose(const LunSpec& spec,
                         std::function<void(Status)> done) {
  assert(done);
  if (luns_.contains(spec.lun_id)) {
    done(AlreadyExistsError("lun " + spec.lun_id + " already exposed"));
    return;
  }
  if (disk_resolver_(spec.disk_name) == nullptr) {
    done(UnavailableError("disk " + spec.disk_name +
                          " not recognized on this host"));
    return;
  }
  sim_->Schedule(options_.setup_delay, [this, spec, done = std::move(done)] {
    // Re-check: the disk may have moved away during setup.
    if (disk_resolver_(spec.disk_name) == nullptr) {
      done(UnavailableError("disk " + spec.disk_name +
                            " disappeared during target setup"));
      return;
    }
    luns_[spec.lun_id] = LunState{spec, nullptr};
    done(Status::Ok());
  });
}

hw::Disk* IscsiTarget::ResolveDisk(LunState& lun) {
  if (lun.cached_disk == nullptr) {
    ++resolver_calls_;
    lun.cached_disk = disk_resolver_(lun.spec.disk_name);
  }
  return lun.cached_disk;
}

void IscsiTarget::InvalidateDisk(const std::string& disk_name) {
  for (auto& [lun_id, lun] : luns_) {
    if (lun.spec.disk_name == disk_name) lun.cached_disk = nullptr;
  }
}

Status IscsiTarget::Unexpose(const std::string& lun_id) {
  if (luns_.erase(lun_id) == 0) {
    return NotFoundError("lun " + lun_id + " not exposed");
  }
  return Status::Ok();
}

void IscsiTarget::UnexposeAll() { luns_.clear(); }

void IscsiTarget::RegisterHandlers() {
  endpoint_->RegisterHandler<NopRequest>(
      [](const net::NodeId&, net::MessagePtr,
         std::function<void(Result<net::MessagePtr>)> reply) {
        reply(net::MessagePtr(std::make_shared<NopResponse>()));
      });

  endpoint_->RegisterHandler<LoginRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* login = static_cast<LoginRequest*>(msg.get());
        auto it = luns_.find(login->lun_id);
        if (it == luns_.end()) {
          reply(NotFoundError("no such lun: " + login->lun_id));
          return;
        }
        auto response = std::make_shared<LoginResponse>();
        response->capacity = it->second.spec.length;
        reply(net::MessagePtr(std::move(response)));
      });

  endpoint_->RegisterHandler<IoRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* io = static_cast<IoRequest*>(msg.get());
        auto it = luns_.find(io->lun_id);
        if (it == luns_.end()) {
          reply(NotFoundError("no such lun: " + io->lun_id));
          return;
        }
        const LunSpec& lun = it->second.spec;
        if (io->offset < 0 || io->length <= 0 ||
            io->offset + io->length > lun.length) {
          reply(InvalidArgumentError("io outside lun extent"));
          return;
        }
        // Per-op hot path: the backing disk is cached on the LUN after the
        // first op and only re-resolved after an InvalidateDisk (detach).
        hw::Disk* disk = ResolveDisk(it->second);
        if (disk == nullptr) {
          reply(UnavailableError("disk " + lun.disk_name +
                                 " not attached to this host"));
          return;
        }

        hw::IoRequest request;
        request.size = io->length;
        request.direction =
            io->is_read ? hw::IoDirection::kRead : hw::IoDirection::kWrite;
        request.pattern = io->random ? hw::AccessPattern::kRandom
                                     : hw::AccessPattern::kSequential;
        const Bytes disk_offset = lun.offset + io->offset;
        const bool is_read = io->is_read;
        const Bytes length = io->length;
        const std::uint64_t tag = io->tag;

        obs::Metrics().Increment(is_read ? "iscsi.target.reads"
                                         : "iscsi.target.writes");
        // Adopt the caller's trace context off the RPC envelope; the
        // target span (and through it the disk's io/spin_up spans) joins
        // the client request's causal tree.
        const obs::SpanId span = obs::Tracer().Begin(
            trace_component_, is_read ? "target_read" : "target_write",
            endpoint_->inbound_context(),
            {{"lun", io->lun_id}, {"disk", lun.disk_name}});
        const sim::Time handled_at = sim_->now();

        sim_->Schedule(options_.per_op_overhead, [this, disk, request,
                                                  disk_offset, is_read, length,
                                                  tag, span, handled_at,
                                                  reply] {
          const sim::Time submitted_at = sim_->now();
          sim::Simulator* sim = sim_;
          disk->SubmitIo(
              request,
              [sim, disk, disk_offset, is_read, length, tag, span, handled_at,
               submitted_at, reply](const hw::IoCompletion& completion) {
                const Status& status = completion.status;
                obs::Tracer().End(
                    span,
                    {{"outcome", status.ok() ? "ok" : status.ToString()}});
                if (!status.ok()) {
                  reply(status);
                  return;
                }
                auto response = std::make_shared<IoResponse>();
                if (is_read) {
                  response->tag = disk->ReadFingerprint(disk_offset);
                  response->payload = length;
                } else if (tag != 0) {
                  disk->WriteFingerprint(disk_offset, tag);
                }
                // queue_wait is the exact complement of spin + service
                // within the platter interval, and fabric the complement
                // of the disk phases within the target's handling time —
                // so the reported phases sum to the target's total.
                obs::IoPhases& phases = response->phases;
                phases.spin_up = completion.spin_ns;
                phases.disk_service = completion.service_ns;
                phases.queue_wait = std::max<sim::Duration>(
                    0, (completion.completed_at - submitted_at) -
                           completion.spin_ns - completion.service_ns);
                phases.fabric = std::max<sim::Duration>(
                    0, (sim->now() - handled_at) - phases.queue_wait -
                           phases.spin_up - phases.disk_service);
                reply(net::MessagePtr(std::move(response)));
              },
              obs::Tracer().ContextFor(span));
        });
      });

  endpoint_->RegisterHandler<BatchIoRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* batch = static_cast<BatchIoRequest*>(msg.get());
        auto it = luns_.find(batch->lun_id);
        if (it == luns_.end()) {
          reply(NotFoundError("no such lun: " + batch->lun_id));
          return;
        }
        if (batch->ops.empty()) {
          reply(InvalidArgumentError("empty io batch"));
          return;
        }
        const LunSpec& lun = it->second.spec;
        // Validation is atomic: one op outside the extent rejects the whole
        // batch before anything reaches the disk.
        std::uint64_t reads = 0;
        for (const IoOp& op : batch->ops) {
          if (op.offset < 0 || op.length <= 0 ||
              op.offset + op.length > lun.length) {
            reply(InvalidArgumentError("io outside lun extent"));
            return;
          }
          if (op.is_read) ++reads;
        }
        hw::Disk* disk = ResolveDisk(it->second);
        if (disk == nullptr) {
          reply(UnavailableError("disk " + lun.disk_name +
                                 " not attached to this host"));
          return;
        }

        obs::Metrics().Increment("iscsi.target.reads", reads);
        obs::Metrics().Increment("iscsi.target.writes",
                                 batch->ops.size() - reads);
        obs::Metrics().Increment("iscsi.target.batches");
        const obs::SpanId span = obs::Tracer().Begin(
            trace_component_, "target_batch", endpoint_->inbound_context(),
            {{"lun", batch->lun_id}, {"ops", batch->ops.size()}});
        const sim::Time handled_at = sim_->now();

        const Bytes lun_offset = lun.offset;
        sim::Simulator* sim = sim_;
        // One command-processing overhead for the whole vector — the target
        // parses a single PDU, not ops.size() of them. The wire ops stay
        // alive through `msg`.
        sim_->Schedule(options_.per_op_overhead, [sim, disk, msg, lun_offset,
                                                  span, handled_at, reply] {
          auto* batch = static_cast<BatchIoRequest*>(msg.get());
          std::vector<hw::IoRequest> requests(batch->ops.size());
          for (std::size_t i = 0; i < batch->ops.size(); ++i) {
            const IoOp& op = batch->ops[i];
            requests[i].size = op.length;
            requests[i].direction =
                op.is_read ? hw::IoDirection::kRead : hw::IoDirection::kWrite;
            requests[i].pattern = op.random ? hw::AccessPattern::kRandom
                                            : hw::AccessPattern::kSequential;
          }
          const sim::Time submitted_at = sim->now();
          disk->SubmitBatch(
              requests,
              [sim, disk, msg, lun_offset, span, handled_at, submitted_at,
               reply](std::span<const hw::IoCompletion> completions) {
                auto* batch = static_cast<BatchIoRequest*>(msg.get());
                auto response = std::make_shared<BatchIoResponse>();
                response->results.resize(completions.size());
                bool all_ok = true;
                obs::IoPhases& phases = response->phases;
                sim::Time last_completed = submitted_at;
                for (std::size_t i = 0; i < completions.size(); ++i) {
                  const IoOp& op = batch->ops[i];
                  BatchOpResult& out = response->results[i];
                  out.code = completions[i].status.code();
                  phases.spin_up += completions[i].spin_ns;
                  phases.disk_service += completions[i].service_ns;
                  last_completed =
                      std::max(last_completed, completions[i].completed_at);
                  if (!completions[i].status.ok()) {
                    all_ok = false;
                    continue;
                  }
                  if (op.is_read) {
                    out.tag = disk->ReadFingerprint(lun_offset + op.offset);
                    response->payload += op.length;
                  } else if (op.tag != 0) {
                    disk->WriteFingerprint(lun_offset + op.offset, op.tag);
                  }
                }
                // Aggregate queue_wait as the complement over the whole
                // platter interval: inter-window drain gaps count as
                // queueing. fabric completes the partition of the
                // target's total handling time.
                phases.queue_wait = std::max<sim::Duration>(
                    0, (last_completed - submitted_at) - phases.spin_up -
                           phases.disk_service);
                phases.fabric = std::max<sim::Duration>(
                    0, (sim->now() - handled_at) - phases.queue_wait -
                           phases.spin_up - phases.disk_service);
                obs::Tracer().End(span,
                                  {{"outcome", all_ok ? "ok" : "partial"}});
                reply(net::MessagePtr(std::move(response)));
              },
              obs::Tracer().ContextFor(span));
        });
      });
}

IscsiInitiator::IscsiInitiator(sim::Simulator* sim,
                               net::RpcEndpoint* endpoint, Options options)
    : sim_(sim), endpoint_(endpoint), options_(options), ping_timer_(sim) {}

IscsiInitiator::~IscsiInitiator() { Disconnect(); }

void IscsiInitiator::Connect(const net::NodeId& target,
                             const std::string& lun_id,
                             std::function<void(Result<Bytes>)> done) {
  auto request = std::make_shared<LoginRequest>();
  request->lun_id = lun_id;
  endpoint_->Call(
      target, request, options_.login_timeout,
      [this, target, lun_id, done = std::move(done)](
          Result<net::MessagePtr> result) {
        if (!result.ok()) {
          done(result.status());
          return;
        }
        auto* login = dynamic_cast<LoginResponse*>(result->get());
        if (login == nullptr) {
          done(InternalError("unexpected login response"));
          return;
        }
        connected_ = true;
        target_ = target;
        lun_id_ = lun_id;
        capacity_ = login->capacity;
        ping_failures_ = 0;
        ++session_generation_;
        ping_timer_.StartPeriodic(options_.ping_period,
                                  [this] { SendPing(); });
        done(capacity_);
      });
}

void IscsiInitiator::SendPing() {
  // A NOP can outlive its session: the response (or timeout) may land
  // after a disconnect + reconnect, where acting on it would corrupt the
  // *new* session's failure count — a stale success masks real missed
  // pings, a stale timeout disconnects a healthy session. Capture the
  // generation and drop anything that no longer matches.
  const std::uint64_t generation = session_generation_;
  endpoint_->Call(target_, std::make_shared<NopRequest>(),
                  options_.ping_timeout,
                  [this, generation](Result<net::MessagePtr> result) {
                    if (!connected_ || generation != session_generation_) {
                      return;
                    }
                    if (result.ok()) {
                      ping_failures_ = 0;
                      return;
                    }
                    if (++ping_failures_ >=
                        options_.ping_failures_to_disconnect) {
                      const Status reason = UnavailableError(
                          "target " + target_ + " stopped answering pings");
                      Disconnect();
                      if (on_connection_lost_) on_connection_lost_(reason);
                    }
                  });
}

void IscsiInitiator::Disconnect() {
  ping_timer_.Stop();
  connected_ = false;
  target_.clear();
  lun_id_.clear();
  capacity_ = 0;
  ping_failures_ = 0;
  ++session_generation_;
}

void IscsiInitiator::Read(
    Bytes offset, Bytes length, bool random,
    std::function<void(Result<std::uint64_t>, const obs::IoPhases&)> done,
    obs::TraceContext ctx) {
  if (!connected_) {
    done(FailedPreconditionError("not connected"), obs::IoPhases{});
    return;
  }
  auto request = std::make_shared<IoRequest>();
  request->lun_id = lun_id_;
  request->offset = offset;
  request->length = length;
  request->is_read = true;
  request->random = random;
  endpoint_->Call(
      target_, request, options_.rpc_timeout,
      [done = std::move(done)](Result<net::MessagePtr> result) {
        if (!result.ok()) {
          done(result.status(), obs::IoPhases{});
          return;
        }
        auto* io = dynamic_cast<IoResponse*>(result->get());
        if (io == nullptr) {
          done(InternalError("unexpected io response"), obs::IoPhases{});
          return;
        }
        done(io->tag, io->phases);
      },
      ctx);
}

void IscsiInitiator::Write(Bytes offset, Bytes length, bool random,
                           std::uint64_t tag,
                           std::function<void(Status, const obs::IoPhases&)>
                               done,
                           obs::TraceContext ctx) {
  if (!connected_) {
    done(FailedPreconditionError("not connected"), obs::IoPhases{});
    return;
  }
  auto request = std::make_shared<IoRequest>();
  request->lun_id = lun_id_;
  request->offset = offset;
  request->length = length;
  request->is_read = false;
  request->random = random;
  request->tag = tag;
  endpoint_->Call(
      target_, request, options_.rpc_timeout,
      [done = std::move(done)](Result<net::MessagePtr> result) {
        if (!result.ok()) {
          done(result.status(), obs::IoPhases{});
          return;
        }
        auto* io = dynamic_cast<IoResponse*>(result->get());
        done(Status::Ok(), io != nullptr ? io->phases : obs::IoPhases{});
      },
      ctx);
}

void IscsiInitiator::SubmitBatch(
    std::span<const IoOp> ops,
    std::function<void(Result<std::vector<BatchOpResult>>,
                       const obs::IoPhases&)>
        done,
    obs::TraceContext ctx) {
  if (!connected_) {
    done(FailedPreconditionError("not connected"), obs::IoPhases{});
    return;
  }
  if (ops.empty()) {
    done(std::vector<BatchOpResult>{}, obs::IoPhases{});
    return;
  }
  auto request = std::make_shared<BatchIoRequest>();
  request->lun_id = lun_id_;
  request->ops.assign(ops.begin(), ops.end());
  const std::size_t expected = ops.size();
  endpoint_->Call(
      target_, request, options_.rpc_timeout,
      [done = std::move(done), expected](Result<net::MessagePtr> result) {
        if (!result.ok()) {
          done(result.status(), obs::IoPhases{});
          return;
        }
        auto* batch = dynamic_cast<BatchIoResponse*>(result->get());
        if (batch == nullptr || batch->results.size() != expected) {
          done(InternalError("unexpected batch io response"),
               obs::IoPhases{});
          return;
        }
        done(std::move(batch->results), batch->phases);
      },
      ctx);
}

}  // namespace ustore::iscsi
