#include "core/clientlib.h"

#include <cassert>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::core {

namespace {

// One cached handle per thread serves every ClientLib, as hw/disk.cc's
// do; the bounds apply when the histogram is first created.
thread_local obs::HistogramHandle batch_size_metric{"client.io.batch_size",
                                                    obs::CountBuckets()};

}  // namespace

ClientLib::ClientLib(sim::Simulator* sim, net::Network* network,
                     net::NodeId id, ClientLibOptions options)
    : sim_(sim),
      options_(std::move(options)),
      endpoint_(std::make_unique<net::RpcEndpoint>(sim, network,
                                                   std::move(id))),
      read_phases_("client.read"),
      write_phases_("client.write"),
      batch_phases_("client.batch"),
      retry_rng_(options_.retry_jitter_seed != 0 ? options_.retry_jitter_seed
                                                 : SeedFromId(endpoint_->id())) {
  assert(!options_.masters.empty());
  endpoint_->RegisterNotifyHandler<SpaceMovedMsg>(
      [this](const net::NodeId&, net::MessagePtr msg) {
        auto* moved = static_cast<SpaceMovedMsg*>(msg.get());
        Volume* vol = volume(moved->id);
        if (vol == nullptr) return;
        // Push notification: remount right away instead of waiting for the
        // next I/O to fail.
        vol->space_.host = moved->new_host;
        if (!vol->remounting_) {
          vol->mounted_ = false;
          vol->StartRemount(sim_->now() + options_.remount_deadline);
        }
      });
}

ClientLib::~ClientLib() = default;

void ClientLib::CallMaster(net::MessagePtr request,
                           std::function<void(Result<net::MessagePtr>)> done,
                           int attempt, obs::TraceContext ctx,
                           sim::Duration timeout) {
  if (attempt >= options_.max_master_attempts) {
    done(UnavailableError("no active master reachable"));
    return;
  }
  if (timeout <= 0) timeout = options_.rpc_timeout;
  const int master_index =
      current_master_ % static_cast<int>(options_.masters.size());
  const net::NodeId master = options_.masters[master_index];
  endpoint_->Call(
      master, request, timeout,
      [this, request, done = std::move(done), master_index, attempt, ctx,
       timeout](Result<net::MessagePtr> result) mutable {
        const StatusCode code = result.status().code();
        if (!result.ok() && (code == StatusCode::kUnavailable ||
                             code == StatusCode::kDeadlineExceeded)) {
          // Advance only past the master that just failed. Concurrent calls
          // each rotating the shared cursor blindly would cancel out and
          // pin every retry to the same standby.
          if (current_master_ == master_index) {
            current_master_ = (master_index + 1) %
                              static_cast<int>(options_.masters.size());
          }
          obs::Metrics().Increment("client.master_retries");
          const sim::Duration delay = RetryDelay(attempt);
          sim_->Schedule(delay, [this, request, done = std::move(done),
                                 attempt, delay, ctx, timeout]() mutable {
            // The wait itself becomes a span in the request tree, so the
            // analyzer can attribute it to the retry_backoff phase.
            obs::Tracer().Emit("client", "retry_backoff", sim_->now() - delay,
                               sim_->now(), ctx);
            CallMaster(std::move(request), std::move(done), attempt + 1,
                       ctx, timeout);
          });
          return;
        }
        done(std::move(result));
      },
      ctx);
}

sim::Duration ClientLib::RetryDelay(int attempt) {
  sim::Duration backoff = options_.retry_backoff_base;
  if (backoff <= 0) backoff = 1;
  for (int i = 0; i < attempt && backoff < options_.retry_backoff_cap; ++i) {
    backoff *= 2;
  }
  if (backoff > options_.retry_backoff_cap) {
    backoff = options_.retry_backoff_cap;
  }
  const sim::Duration half = backoff / 2;
  return half + static_cast<sim::Duration>(
                    retry_rng_.NextBelow(static_cast<std::uint64_t>(half) + 1));
}

void ClientLib::AllocateAndMount(
    const std::string& service, Bytes size,
    std::function<void(Result<Volume*>)> done) {
  AllocateAndMountOnDisk(service, size, "", std::move(done));
}

void ClientLib::AllocateAndMountOnDisk(
    const std::string& service, Bytes size, const std::string& disk,
    std::function<void(Result<Volume*>)> done) {
  obs::Metrics().Increment("client.allocations_requested");
  const obs::SpanId span = obs::Tracer().Begin("client", "allocate");
  obs::Tracer().Annotate(span, "service", service);
  auto request = std::make_shared<AllocateRequest>();
  request->service = service;
  request->size = size;
  request->client = id();
  request->locality_host = options_.locality_host;
  request->disk_hint = disk;
  CallMaster(
      request,
      [this, span, done = std::move(done)](Result<net::MessagePtr> result) {
        obs::Tracer().Annotate(span, "outcome",
                               result.ok() ? "ok" : "error");
        obs::Tracer().End(span);
        if (!result.ok()) {
          done(result.status());
          return;
        }
        auto* response = dynamic_cast<AllocateResponse*>(result->get());
        if (response == nullptr) {
          done(InternalError("unexpected allocate response"));
          return;
        }
        Mount(response->space, std::move(done));
      },
      0, obs::Tracer().ContextFor(span));
}

void ClientLib::AllocateStripe(
    const std::string& service, Bytes chunk_size, int data_chunks,
    int parity_chunks, std::function<void(Result<StripeVolumes>)> done) {
  obs::Metrics().Increment("client.stripe_allocations_requested");
  const obs::SpanId span = obs::Tracer().Begin("client", "allocate_stripe");
  obs::Tracer().Annotate(span, "service", service);
  auto request = std::make_shared<AllocateStripeRequest>();
  request->service = service;
  request->chunk_size = chunk_size;
  request->data_chunks = data_chunks;
  request->parity_chunks = parity_chunks;
  request->client = id();
  CallMaster(
      request,
      [this, span, done = std::move(done)](Result<net::MessagePtr> result) {
        obs::Tracer().Annotate(span, "outcome",
                               result.ok() ? "ok" : "error");
        obs::Tracer().End(span);
        if (!result.ok()) {
          done(result.status());
          return;
        }
        auto* response = dynamic_cast<AllocateStripeResponse*>(result->get());
        if (response == nullptr) {
          done(InternalError("unexpected stripe-allocate response"));
          return;
        }
        // Mount chunk by chunk (deterministic order); a mount failure
        // reports the chunk index so callers can tell a control-plane
        // error from a data-path one.
        auto state = std::make_shared<StripeMountState>();
        state->stripe.stripe_id = response->stripe_id;
        state->stripe.domains = response->domains;
        state->spaces = std::move(response->chunks);
        state->done = std::move(done);
        MountStripeChunk(std::move(state), 0);
      },
      0, obs::Tracer().ContextFor(span),
      // One meta persist + expose round per chunk: scale the budget with
      // the stripe width instead of racing the flat per-RPC timeout.
      options_.rpc_timeout * (data_chunks + parity_chunks + 2));
}

void ClientLib::MountStripeChunk(std::shared_ptr<StripeMountState> state,
                                 std::size_t index) {
  if (index >= state->spaces.size()) {
    state->done(state->stripe);
    return;
  }
  const AllocatedSpace& space = state->spaces[index];
  Mount(space, [this, state = std::move(state),
                index](Result<Volume*> volume) mutable {
    if (!volume.ok()) {
      state->done(Status(volume.status().code(),
                         "mounting stripe chunk " + std::to_string(index) +
                             ": " + volume.status().message()));
      return;
    }
    state->stripe.chunks.push_back(*volume);
    MountStripeChunk(std::move(state), index + 1);
  });
}

void ClientLib::Mount(const AllocatedSpace& space,
                      std::function<void(Result<Volume*>)> done) {
  auto vol = std::make_unique<Volume>(this, space);
  Volume* raw = vol.get();
  volumes_[space.id] = std::move(vol);
  SubscribeMoves(space.id);
  raw->Mount([this, raw, id = space.id,
              done = std::move(done)](Status status) {
    if (!status.ok()) {
      volumes_.erase(id);
      done(status);
      return;
    }
    done(raw);
  });
}

ClientLib::Volume* ClientLib::volume(const SpaceId& id) {
  auto it = volumes_.find(id);
  return it == volumes_.end() ? nullptr : it->second.get();
}

void ClientLib::Unmount(const SpaceId& id) { volumes_.erase(id); }

void ClientLib::Lookup(const SpaceId& id,
                       std::function<void(Result<LookupResponse>)> done) {
  auto request = std::make_shared<LookupRequest>();
  request->id = id;
  CallMaster(request, [done = std::move(done)](
                          Result<net::MessagePtr> result) {
    if (!result.ok()) {
      done(result.status());
      return;
    }
    auto* response = dynamic_cast<LookupResponse*>(result->get());
    if (response == nullptr) {
      done(InternalError("unexpected lookup response"));
      return;
    }
    done(*response);
  });
}

void ClientLib::Release(const SpaceId& id, const std::string& service,
                        std::function<void(Status)> done) {
  Unmount(id);
  auto request = std::make_shared<ReleaseRequest>();
  request->id = id;
  request->service = service;
  CallMaster(request,
             [done = std::move(done)](Result<net::MessagePtr> result) {
               done(result.status());
             });
}

void ClientLib::SetDiskPower(const std::string& service,
                             const std::string& disk, DiskPowerAction action,
                             std::function<void(Status)> done) {
  auto request = std::make_shared<DiskPowerRequest>();
  request->service = service;
  request->disk = disk;
  request->action = action;
  CallMaster(request,
             [done = std::move(done)](Result<net::MessagePtr> result) {
               done(result.status());
             });
}

void ClientLib::SubscribeMoves(const SpaceId& id) {
  auto request = std::make_shared<SubscribeRequest>();
  request->id = id;
  request->client = this->id();
  CallMaster(request, [](Result<net::MessagePtr>) {});
}

// --- Volume ---------------------------------------------------------------------

ClientLib::Volume::Volume(ClientLib* owner, AllocatedSpace space)
    : owner_(owner),
      space_(std::move(space)),
      space_name_(space_.id.ToString()),
      initiator_(owner->sim_, owner->endpoint_.get()),
      remount_timer_(owner->sim_) {
  // NOP-ping liveness: a dead target host triggers remount immediately,
  // without waiting for an I/O to time out.
  initiator_.set_connection_lost_listener([this](const Status&) {
    if (remounting_) return;
    mounted_ = false;
    StartRemount(owner_->sim_->now() + owner_->options_.remount_deadline);
  });
}

void ClientLib::Volume::Mount(std::function<void(Status)> done) {
  initiator_.Connect(
      space_.host, space_.id.ToString(),
      [this, done = std::move(done)](Result<Bytes> result) {
        if (!result.ok()) {
          done(result.status());
          return;
        }
        FinishMount(std::move(done));
      });
}

void ClientLib::Volume::FinishMount(std::function<void(Status)> done) {
  // Device scan + filesystem mount processing on the client machine.
  owner_->sim_->Schedule(owner_->options_.mount_delay,
                         [this, done = std::move(done)] {
                           mounted_ = true;
                           remounting_ = false;
                           last_remounted_at_ = owner_->sim_->now();
                           done(Status::Ok());
                         });
}

void ClientLib::Volume::OnIoError(const Status& status) {
  if (remounting_) return;
  if (status.code() != StatusCode::kUnavailable &&
      status.code() != StatusCode::kDeadlineExceeded &&
      status.code() != StatusCode::kNotFound) {
    return;  // logical errors do not indicate a moved disk
  }
  mounted_ = false;
  StartRemount(owner_->sim_->now() + owner_->options_.remount_deadline);
}

void ClientLib::Volume::StartRemount(sim::Time deadline) {
  remounting_ = true;
  ++remount_count_;
  obs::Metrics().Increment("client.remounts");
  USTORE_LOG(Info) << owner_->id() << ": volume " << space_.id.ToString()
                   << " unreachable; remounting";
  PollRemount(deadline);
}

// Polls the Master's directory until the space is available again, then logs
// in to the (possibly new) host. Retries re-arm remount_timer_ in place
// (Timer::Arm reschedules the pending event) instead of allocating a fresh
// self-capturing closure per poll round.
void ClientLib::Volume::PollRemount(sim::Time deadline) {
  if (owner_->sim_->now() >= deadline) {
    USTORE_LOG(Warning) << owner_->id() << ": remount deadline exceeded";
    remounting_ = false;
    return;
  }
  owner_->Lookup(space_.id, [this, deadline](Result<LookupResponse> result) {
    if (result.ok() && result->available) {
      space_.host = result->host;
      initiator_.Disconnect();
      initiator_.Connect(
          space_.host, space_.id.ToString(),
          [this, deadline](Result<Bytes> connect_result) {
            if (!connect_result.ok()) {
              remount_timer_.StartOneShot(owner_->options_.remount_poll,
                                          [this, deadline] {
                                            PollRemount(deadline);
                                          });
              return;
            }
            FinishMount([this](Status) {
              USTORE_LOG(Info)
                  << owner_->id() << ": volume " << space_.id.ToString()
                  << " remounted on " << space_.host;
              if (owner_->on_volume_moved_) {
                owner_->on_volume_moved_(space_.id);
              }
            });
          });
      return;
    }
    remount_timer_.StartOneShot(owner_->options_.remount_poll,
                                [this, deadline] { PollRemount(deadline); });
  });
}

void ClientLib::Volume::Read(
    Bytes offset, Bytes length, bool random,
    std::function<void(Result<std::uint64_t>)> done) {
  if (!mounted_) {
    done(UnavailableError("volume not mounted (failover in progress)"));
    return;
  }
  obs::Metrics().Increment("client.reads");
  const obs::SpanId span = obs::Tracer().Begin(
      "client", "read", {}, {{"space", space_name_}, {"bytes", length}});
  const sim::Time started = owner_->sim_->now();
  initiator_.Read(
      offset, length, random,
      [this, span, started, done = std::move(done)](
          Result<std::uint64_t> result, const obs::IoPhases& phases) {
        const sim::Duration e2e = owner_->sim_->now() - started;
        obs::Metrics().Observe("client.read.latency_us", sim::ToMicros(e2e));
        // Phase attribution only makes sense for requests that reached the
        // disk; error paths report zeroed phases.
        if (result.ok()) owner_->read_phases_.Record(phases, 0, e2e);
        obs::Tracer().End(span, {{"outcome", result.ok() ? "ok" : "error"}});
        if (!result.ok()) OnIoError(result.status());
        done(std::move(result));
      },
      obs::Tracer().ContextFor(span));
}

void ClientLib::Volume::Write(Bytes offset, Bytes length, bool random,
                              std::uint64_t tag,
                              std::function<void(Status)> done) {
  if (!mounted_) {
    done(UnavailableError("volume not mounted (failover in progress)"));
    return;
  }
  obs::Metrics().Increment("client.writes");
  const obs::SpanId span = obs::Tracer().Begin(
      "client", "write", {}, {{"space", space_name_}, {"bytes", length}});
  const sim::Time started = owner_->sim_->now();
  initiator_.Write(
      offset, length, random, tag,
      [this, span, started, done = std::move(done)](
          Status status, const obs::IoPhases& phases) {
        const sim::Duration e2e = owner_->sim_->now() - started;
        obs::Metrics().Observe("client.write.latency_us", sim::ToMicros(e2e));
        if (status.ok()) owner_->write_phases_.Record(phases, 0, e2e);
        obs::Tracer().End(span, {{"outcome", status.ok() ? "ok" : "error"}});
        if (!status.ok()) OnIoError(status);
        done(status);
      },
      obs::Tracer().ContextFor(span));
}

void ClientLib::Volume::SubmitBatch(std::span<const IoOp> ops,
                                    BatchCallback done) {
  if (!mounted_) {
    done(UnavailableError("volume not mounted (failover in progress)"), {});
    return;
  }
  if (ops.empty()) {
    done(Status::Ok(), {});
    return;
  }
  std::uint64_t reads = 0;
  for (const IoOp& op : ops) {
    if (op.is_read) ++reads;
  }
  const std::uint64_t writes = ops.size() - reads;
  obs::Metrics().Increment("client.reads", reads);
  obs::Metrics().Increment("client.writes", writes);
  batch_size_metric.Observe(static_cast<double>(ops.size()));
  const obs::SpanId span = obs::Tracer().Begin(
      "client", "submit_batch", {},
      {{"space", space_name_}, {"ops", ops.size()}});
  const sim::Time started = owner_->sim_->now();

  // The continuation crosses the RPC layer, whose callbacks must be
  // copyable (std::function); the move-only SmallFn rides in a shared_ptr
  // — one allocation per batch, amortized over its ops.
  struct BatchCall {
    BatchCallback done;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
  };
  auto call = std::make_shared<BatchCall>();
  call->done = std::move(done);
  call->reads = reads;
  call->writes = writes;
  initiator_.SubmitBatch(
      ops,
      [this, span, started, call](
          Result<std::vector<iscsi::BatchOpResult>> result,
          const obs::IoPhases& phases) {
        // Each op's client-visible latency IS the batch round trip, so
        // every member lands as its own histogram sample.
        const sim::Duration e2e = owner_->sim_->now() - started;
        const double latency_us = sim::ToMicros(e2e);
        for (std::uint64_t i = 0; i < call->reads; ++i) {
          obs::Metrics().Observe("client.read.latency_us", latency_us);
        }
        for (std::uint64_t i = 0; i < call->writes; ++i) {
          obs::Metrics().Observe("client.write.latency_us", latency_us);
        }
        // One phase sample per batch (client.batch.phase.*_us): the batch
        // shares one round trip, so per-op phase samples would be copies.
        if (result.ok()) owner_->batch_phases_.Record(phases, 0, e2e);
        obs::Tracer().End(span, {{"outcome", result.ok() ? "ok" : "error"}});
        if (!result.ok()) {
          OnIoError(result.status());
          call->done(result.status(), {});
          return;
        }
        // Op-level failures (e.g. the disk losing power mid-batch) surface
        // through the per-op codes; an unavailable member triggers the
        // same remount logic as a failed serial I/O.
        for (const iscsi::BatchOpResult& op : *result) {
          if (op.code == StatusCode::kUnavailable ||
              op.code == StatusCode::kNotFound) {
            OnIoError(Status(op.code, "batched io member failed"));
            break;
          }
        }
        call->done(Status::Ok(),
                   std::span<const IoOpResult>(result->data(),
                                               result->size()));
      },
      obs::Tracer().ContextFor(span));
}

}  // namespace ustore::core
