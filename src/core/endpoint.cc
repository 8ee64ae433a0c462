#include "core/endpoint.h"

#include <cassert>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ustore::core {

EndPoint::EndPoint(sim::Simulator* sim, net::Network* network,
                   int host_index, fabric::FabricManager* manager,
                   std::vector<net::NodeId> master_ids,
                   std::vector<net::NodeId> controller_ids,
                   consensus::MetaClient::Options meta_options,
                   EndPointOptions options)
    : sim_(sim),
      host_index_(host_index),
      manager_(manager),
      master_ids_(std::move(master_ids)),
      controller_ids_(std::move(controller_ids)),
      options_(options),
      endpoint_(std::make_unique<net::RpcEndpoint>(
          sim, network, manager->fabric().hosts.at(host_index))),
      heartbeat_timer_(sim),
      usb_report_timer_(sim) {
  target_ = std::make_unique<iscsi::IscsiTarget>(
      sim, endpoint_.get(),
      [this](const std::string& name) { return ResolveRecognizedDisk(name); },
      options_.target);
  meta_ = std::make_unique<consensus::MetaClient>(
      sim, network, id() + ":meta", std::move(meta_options));
  RegisterHandlers();

  // The USB Monitor reacts to attach/detach events immediately.
  manager_->host_stack(host_index_)
      ->set_attach_listener([this](const std::string&, hw::UsbDeviceStatus) {
        if (!crashed_) SendUsbReport();
      });
  manager_->host_stack(host_index_)
      ->set_detach_listener([this](const std::string& name) {
        // The detached disk may back exposed LUNs: drop their cached
        // backing-disk pointers so the next I/O re-resolves (and fails
        // cleanly if the disk is really gone).
        target_->InvalidateDisk(name);
        if (!crashed_) SendUsbReport();
      });
}

EndPoint::~EndPoint() = default;

hw::Disk* EndPoint::ResolveRecognizedDisk(const std::string& name) {
  if (crashed_) return nullptr;
  if (!manager_->host_stack(host_index_)->IsRecognized(name)) return nullptr;
  return manager_->disk(name);
}

void EndPoint::Start() {
  // First beat after (re)start is always full: the Masters may know
  // nothing about this host.
  force_full_heartbeat_ = true;
  last_sent_disks_.clear();
  heartbeat_seq_ = 0;
  heartbeat_timer_.StartPeriodic(options_.heartbeat_period,
                                 [this] { SendHeartbeat(); });
  usb_report_timer_.StartPeriodic(options_.usb_report_period,
                                  [this] { SendUsbReport(); });
  SendUsbReport();
  // Liveness ephemeral znode (§V-B).
  meta_->Start([this](Status status) {
    if (!status.ok()) {
      USTORE_LOG(Warning) << id() << ": metadata session failed (" << status
                          << "); retrying";
      sim_->Schedule(sim::Seconds(1), [this] {
        if (!crashed_) {
          meta_->Start([](Status) {});  // best-effort; liveness znode only
        }
      });
      return;
    }
    meta_->Create("/ustore/hosts/" + id(), "", /*ephemeral=*/true,
                  [this](Status create_status) {
                    if (!create_status.ok() &&
                        create_status.code() != StatusCode::kAlreadyExists) {
                      USTORE_LOG(Warning)
                          << id() << ": liveness znode: " << create_status;
                    }
                  });
  });
  // Default power policy (§IV-F).
  if (options_.idle_spin_down > 0) {
    for (fabric::NodeIndex node : manager_->topology().Disks()) {
      manager_->disk(node)->SetIdleSpinDown(options_.idle_spin_down);
    }
  }
}

void EndPoint::SendHeartbeat() {
  obs::Metrics().Increment("endpoint.heartbeats_sent");
  auto heartbeat = std::make_shared<HeartbeatMsg>();
  heartbeat->host_index = host_index_;
  heartbeat->host = id();
  std::vector<DiskStatusEntry> disks;
  for (const std::string& device :
       manager_->host_stack(host_index_)->RecognizedDevices()) {
    hw::Disk* disk = manager_->disk(device);
    if (disk == nullptr) continue;  // hubs
    DiskStatusEntry entry;
    entry.name = device;
    entry.recognized = true;
    entry.state = disk->state();
    entry.failed = disk->failed();
    disks.push_back(std::move(entry));
  }
  // Delta encoding: ship the disk list only when it differs from the last
  // full beat, or every k-th beat as a refresh for late-joining Masters.
  ++heartbeat_seq_;
  const bool full =
      force_full_heartbeat_ || disks != last_sent_disks_ ||
      (options_.full_heartbeat_every > 0 &&
       heartbeat_seq_ % options_.full_heartbeat_every == 0);
  heartbeat->full = full;
  if (full) {
    obs::Metrics().Increment("endpoint.heartbeats_full");
    last_sent_disks_ = disks;
    heartbeat->disks = std::move(disks);
    force_full_heartbeat_ = false;
  } else {
    obs::Metrics().Increment("endpoint.heartbeats_delta");
  }
  for (const auto& master : master_ids_) {
    endpoint_->Notify(master, heartbeat);
  }
}

void EndPoint::SendUsbReport() {
  obs::Metrics().Increment("endpoint.usb_reports_sent");
  auto report = std::make_shared<UsbReportMsg>();
  report->host_index = host_index_;
  report->report = manager_->host_stack(host_index_)->TreeReport();
  for (const auto& controller : controller_ids_) {
    endpoint_->Notify(controller, report);
  }
}

void EndPoint::TryExpose(ExposeRequest request,
                         std::function<void(Result<net::MessagePtr>)> reply,
                         sim::Time deadline) {
  if (crashed_) return;
  const std::string lun_id = request.id.ToString();
  if (target_->IsExposed(lun_id)) {
    reply(net::MessagePtr(std::make_shared<AckMsg>()));
    return;
  }
  if (ResolveRecognizedDisk(request.disk) == nullptr) {
    // The disk has not enumerated here yet (it may still be switching
    // over); poll until the deadline.
    if (sim_->now() >= deadline) {
      reply(UnavailableError(id() + ": disk " + request.disk +
                             " never appeared"));
      return;
    }
    sim_->Schedule(options_.expose_retry_poll,
                   [this, request = std::move(request),
                    reply = std::move(reply), deadline]() mutable {
                     TryExpose(std::move(request), std::move(reply),
                               deadline);
                   });
    return;
  }
  iscsi::LunSpec spec{lun_id, request.disk, request.offset, request.length};
  target_->Expose(spec, [this, spec, reply](Status status) {
    if (crashed_) return;
    if (!status.ok()) {
      reply(status);
      return;
    }
    exposed_[spec.lun_id] = spec;
    obs::Metrics().Increment("endpoint.luns_exposed");
    reply(net::MessagePtr(std::make_shared<AckMsg>()));
  });
}

void EndPoint::RegisterHandlers() {
  endpoint_->RegisterHandler<ExposeRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<ExposeRequest*>(msg.get());
        TryExpose(*request, std::move(reply),
                  sim_->now() + options_.expose_retry_deadline);
      });

  endpoint_->RegisterHandler<UnexposeRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<UnexposeRequest*>(msg.get());
        const std::string lun_id = request->id.ToString();
        exposed_.erase(lun_id);
        Status status = target_->Unexpose(lun_id);
        if (status.ok() || status.code() == StatusCode::kNotFound) {
          reply(net::MessagePtr(std::make_shared<AckMsg>()));
        } else {
          reply(status);
        }
      });

  endpoint_->RegisterHandler<SpinRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<SpinRequest*>(msg.get());
        hw::Disk* disk = ResolveRecognizedDisk(request->disk);
        if (disk == nullptr) {
          reply(NotFoundError(id() + ": disk " + request->disk +
                              " not attached here"));
          return;
        }
        if (request->spin_up) {
          disk->SpinUp();
        } else {
          disk->SpinDown();
        }
        reply(net::MessagePtr(std::make_shared<AckMsg>()));
      });
}

void EndPoint::Crash() {
  if (crashed_) return;
  crashed_ = true;
  heartbeat_timer_.Stop();
  usb_report_timer_.Stop();
  target_->UnexposeAll();
  exposed_.clear();
  meta_->Crash();
  endpoint_->Shutdown();
  manager_->CrashHost(host_index_);
}

void EndPoint::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  endpoint_->Reopen();
  RegisterHandlers();
  meta_->Restart();
  manager_->RestartHost(host_index_);
  Start();
}

}  // namespace ustore::core
