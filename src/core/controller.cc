#include "core/controller.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ustore::core {

namespace {

// One cached handle per thread serves every Controller, as hw/disk.cc's
// do; the bounds apply when the histogram is first created.
thread_local obs::HistogramHandle switches_metric{
    "controller.switches_per_command", obs::CountBuckets()};

}  // namespace

Controller::Controller(sim::Simulator* sim, net::Network* network,
                       net::NodeId id, fabric::BuiltFabric wiring,
                       fabric::FabricManager* manager, int mcu_index,
                       ControllerOptions options)
    : sim_(sim),
      endpoint_(std::make_unique<net::RpcEndpoint>(sim, network,
                                                   std::move(id))),
      wiring_(std::move(wiring)),
      manager_(manager),
      mcu_index_(mcu_index),
      options_(options) {
  RegisterHandlers();
}

void Controller::RegisterHandlers() {
  endpoint_->RegisterNotifyHandler<UsbReportMsg>(
      [this](const net::NodeId&, net::MessagePtr msg) {
        auto* report = static_cast<UsbReportMsg*>(msg.get());
        obs::Metrics().Increment("controller.usb_reports_received");
        std::set<std::string>& seen = visible_[report->host_index];
        seen.clear();
        for (const auto& entry : report->report) {
          seen.insert(entry.device);
        }
        ReconcileBeliefs(report->host_index);
      });

  endpoint_->RegisterHandler<ControllerTakeoverRequest>(
      [this](const net::NodeId&, net::MessagePtr,
             std::function<void(Result<net::MessagePtr>)> reply) {
        PowerOnMcu();
        reply(net::MessagePtr(std::make_shared<AckMsg>()));
      });

  endpoint_->RegisterHandler<RelayPowerRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<RelayPowerRequest*>(msg.get());
        auto node = wiring_.topology.Find(request->device);
        if (!node.ok()) {
          reply(node.status());
          return;
        }
        const fabric::NodeKind kind = wiring_.topology.node(*node).kind;
        Status driven;
        if (kind == fabric::NodeKind::kDisk) {
          driven = manager_->DriveDiskPower(mcu_index_, *node, request->on);
        } else if (kind == fabric::NodeKind::kHub) {
          driven = manager_->DriveHubPower(mcu_index_, *node, request->on);
        } else {
          driven = InvalidArgumentError(request->device +
                                        " has no power relay");
        }
        if (driven.ok()) {
          reply(net::MessagePtr(std::make_shared<AckMsg>()));
        } else {
          reply(driven);
        }
      });

  endpoint_->RegisterHandler<ScheduleRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<ScheduleRequest*>(msg.get());
        obs::Metrics().Increment("controller.commands_received");
        queue_.push_back(Command{request->moves, std::move(reply),
                                 endpoint_->inbound_context()});
        MaybeExecuteNext();
      });
}

int Controller::BelievedHostOfDisk(const std::string& disk) const {
  auto node = wiring_.topology.Find(disk);
  if (!node.ok()) return -1;
  return wiring_.HostOfDisk(*node);
}

Result<fabric::NodeIndex> Controller::PortForHost(
    int host_index, fabric::NodeIndex disk) const {
  // Choose a port of the host the disk can actually route to, preferring
  // one already on the disk's potential paths.
  for (fabric::NodeIndex port : wiring_.PortsOfHost(host_index)) {
    if (wiring_.topology.RouteTo(disk, port).ok()) return port;
  }
  return NotFoundError("no usable port of host " +
                       std::to_string(host_index) + " reachable from " +
                       wiring_.topology.node(disk).name);
}

Result<std::vector<fabric::SwitchSetting>> Controller::SwitchesToTurn(
    const std::vector<DiskHostPair>& moves) const {
  const fabric::Topology& topology = wiring_.topology;

  std::set<fabric::NodeIndex> moving;
  for (const auto& move : moves) {
    if (auto node = topology.Find(move.disk); node.ok()) moving.insert(*node);
  }

  // OccupiedSwitches: switches on the current paths of disks NOT in the
  // command (Algorithm 1 lines 4-8).
  std::set<fabric::NodeIndex> occupied;
  for (fabric::NodeIndex disk : topology.Disks()) {
    if (moving.contains(disk)) continue;
    for (fabric::NodeIndex node : topology.ActivePath(disk)) {
      if (topology.node(node).kind == fabric::NodeKind::kSwitch) {
        occupied.insert(node);
      }
    }
  }

  // Lines 9-17: collect the switches each move needs; conflicts arise when
  // a needed *flip* sits on an uninvolved disk's path.
  std::vector<fabric::SwitchSetting> to_turn;
  std::set<fabric::NodeIndex> planned;  // switches already claimed by moves
  for (const auto& move : moves) {
    USTORE_ASSIGN_OR_RETURN(fabric::NodeIndex disk,
                            topology.Find(move.disk));
    USTORE_ASSIGN_OR_RETURN(fabric::NodeIndex port,
                            PortForHost(move.host_index, disk));
    USTORE_ASSIGN_OR_RETURN(std::vector<fabric::SwitchSetting> settings,
                            topology.RouteTo(disk, port));
    for (const auto& setting : settings) {
      const bool current = topology.selected(setting.switch_node);
      if (setting.select == current) {
        planned.insert(setting.switch_node);
        continue;  // already in the desired state
      }
      if (occupied.contains(setting.switch_node)) {
        return ConflictError(
            "turning " + topology.node(setting.switch_node).name +
            " for " + move.disk +
            " would disconnect a disk not in this command");
      }
      if (planned.contains(setting.switch_node)) {
        // Two moves in this command want opposite positions.
        bool contradiction = false;
        for (const auto& prior : to_turn) {
          if (prior.switch_node == setting.switch_node &&
              prior.select != setting.select) {
            contradiction = true;
          }
        }
        if (contradiction) {
          return ConflictError(
              "command is self-conflicting on " +
              topology.node(setting.switch_node).name);
        }
        continue;
      }
      to_turn.push_back(setting);
      planned.insert(setting.switch_node);
    }
  }
  return to_turn;
}

void Controller::ReconcileBeliefs(int host_index) {
  // Never second-guess the fabric while we are mid-command (our own flips
  // race the reports).
  if (executing_) return;
  auto it = visible_.find(host_index);
  if (it == visible_.end()) return;
  for (const std::string& device : it->second) {
    auto node = wiring_.topology.Find(device);
    if (!node.ok() ||
        wiring_.topology.node(*node).kind != fabric::NodeKind::kDisk) {
      continue;
    }
    if (wiring_.HostOfDisk(*node) == host_index) continue;
    // The host sees a disk our model routes elsewhere: adopt the switch
    // settings that would produce the observed attachment.
    auto port = PortForHost(host_index, *node);
    if (!port.ok()) continue;
    auto settings = wiring_.topology.RouteTo(*node, *port);
    if (!settings.ok()) continue;
    for (const auto& setting : *settings) {
      wiring_.topology.SetSwitch(setting.switch_node, setting.select);
    }
  }
}

void Controller::MaybeExecuteNext() {
  if (crashed_ || executing_ || queue_.empty()) return;
  executing_ = true;  // §IV-C step 1: lock the fabric
  Command command = std::move(queue_.front());
  queue_.pop_front();
  Execute(std::move(command));
}

void Controller::Execute(Command command) {
  command.span = obs::Tracer().Begin(id(), "execute", command.ctx);
  obs::Tracer().Annotate(command.span, "moves",
                         std::to_string(command.moves.size()));
  // Step 2: determine the switches to turn.
  auto plan = SwitchesToTurn(command.moves);
  if (!plan.ok()) {
    if (plan.status().code() == StatusCode::kConflict) {
      obs::Metrics().Increment("controller.conflicts");
    }
    FinishCommand(command, plan.status());
    return;
  }
  switches_metric.Observe(static_cast<double>(plan->size()));

  // Step 3: drive the switches through the microcontroller, one by one.
  for (const auto& setting : *plan) {
    Status driven =
        manager_->DriveSwitch(mcu_index_, setting.switch_node,
                              setting.select);
    if (!driven.ok()) {
      // Could not reach the board (e.g. unpowered): undo what we did.
      std::vector<fabric::SwitchSetting> done(
          plan->begin(), plan->begin() + (&setting - plan->data()));
      RollBack(done);
      FinishCommand(command, driven);
      return;
    }
    wiring_.topology.SetSwitch(setting.switch_node, setting.select);
  }

  // Verify through USB reports, with rollback on timeout.
  VerifyLoop(std::move(command), *std::move(plan),
             sim_->now() + options_.verify_timeout);
}

void Controller::VerifyLoop(Command command,
                            std::vector<fabric::SwitchSetting> turned,
                            sim::Time deadline) {
  bool all_visible = true;
  for (const auto& move : command.moves) {
    auto it = visible_.find(move.host_index);
    if (it == visible_.end() || !it->second.contains(move.disk)) {
      all_visible = false;
      break;
    }
  }
  if (all_visible) {
    FinishCommand(command, Status::Ok());
    return;
  }
  if (sim_->now() >= deadline) {
    USTORE_LOG(Warning) << id() << ": verification timed out; rolling back";
    obs::Tracer().Annotate(command.span, "rolled_back", "true");
    RollBack(turned);
    FinishCommand(command,
                  AbortedError("expected connections did not appear; "
                               "command rolled back"));
    return;
  }
  sim_->Schedule(options_.verify_poll,
                 [this, command = std::move(command),
                  turned = std::move(turned), deadline]() mutable {
                   if (crashed_) return;
                   VerifyLoop(std::move(command), std::move(turned),
                              deadline);
                 });
}

void Controller::RollBack(const std::vector<fabric::SwitchSetting>& turned) {
  obs::Metrics().Increment("controller.rollbacks");
  for (auto it = turned.rbegin(); it != turned.rend(); ++it) {
    const bool original = !it->select;
    if (manager_->DriveSwitch(mcu_index_, it->switch_node, original).ok()) {
      wiring_.topology.SetSwitch(it->switch_node, original);
    }
  }
}

void Controller::FinishCommand(Command& command, const Status& status) {
  executing_ = false;
  obs::Metrics().Increment(status.ok() ? "controller.commands_ok"
                                       : "controller.commands_failed");
  if (command.span != obs::kInvalidSpan) {
    obs::Tracer().Annotate(command.span, "status",
                           status.ok() ? "ok" : status.ToString());
    obs::Tracer().End(command.span);
    command.span = obs::kInvalidSpan;
  }
  if (command.reply) {
    if (status.ok()) {
      command.reply(
          net::MessagePtr(std::make_shared<ScheduleResponse>()));
    } else {
      command.reply(status);
    }
  }
  MaybeExecuteNext();
}

void Controller::Crash() {
  if (crashed_) return;
  crashed_ = true;
  executing_ = false;
  queue_.clear();
  visible_.clear();
  endpoint_->Shutdown();
}

void Controller::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  endpoint_->Reopen();
  RegisterHandlers();
}

void Controller::PowerOnMcu() { manager_->mcu(mcu_index_)->PowerOn(); }

}  // namespace ustore::core
