#include "fabric/fabric_manager.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ustore::fabric {

FabricManager::FabricManager(sim::Simulator* sim, BuiltFabric fabric,
                             Options options, Rng rng)
    : sim_(sim),
      fabric_(std::move(fabric)),
      options_(options),
      disk_model_(options_.disk_params, hw::UsbBridgeInterface()),
      rng_(rng),
      // One control line per switch, disk and hub.
      bus_(fabric_.topology.size() -
           static_cast<int>(fabric_.topology.HostPorts().size())) {
  bus_.set_observer([this](int l, bool v) { OnLineChanged(l, v); });
  const int lines = bus_.line_count();
  mcus_.push_back(std::make_unique<hw::Microcontroller>("mcu-0", lines, &bus_));
  mcus_.push_back(std::make_unique<hw::Microcontroller>("mcu-1", lines, &bus_));
  mcus_[0]->PowerOn();  // normal operation: only the primary powered (§III-B)
  if (!options_.disks_start_powered) {
    // Cold unit: the primary board asserts every disk's power-cut line
    // before anything else happens (rolling spin-up then releases them).
    for (NodeIndex node : fabric_.topology.Disks()) {
      Status asserted =
          mcus_[0]->SetOutput(LineOf(node, NodeKind::kDisk), true);
      assert(asserted.ok());
      (void)asserted;
    }
  }

  for (std::size_t h = 0; h < fabric_.hosts.size(); ++h) {
    stacks_.push_back(std::make_unique<hw::UsbHostStack>(
        sim_, fabric_.hosts[h], options_.host_params));
  }

  disks_.reserve(fabric_.topology.Disks().size());
  for (NodeIndex node : fabric_.topology.Disks()) {
    disks_.push_back(std::make_unique<hw::Disk>(
        sim_, fabric_.topology.node(node).name, &disk_model_,
        options_.disks_start_powered));
    if (!options_.disks_start_powered) {
      fabric_.topology.SetPowered(node, false);
    }
  }
  announced_host_.assign(static_cast<std::size_t>(fabric_.topology.size()),
                         -1);

  // Announce the initial attachments.
  RecomputeAttachments();
}

hw::Disk* FabricManager::disk(const std::string& name) {
  Result<NodeIndex> node = fabric_.topology.Find(name);
  return node.ok() ? disk(*node) : nullptr;
}

hw::Disk* FabricManager::disk(NodeIndex node) {
  const int ordinal = fabric_.topology.OrdinalOf(node, NodeKind::kDisk);
  return ordinal < 0 ? nullptr
                     : disks_[static_cast<std::size_t>(ordinal)].get();
}

int FabricManager::LineOf(NodeIndex node, NodeKind kind) const {
  const Topology& t = fabric_.topology;
  const int ordinal = t.OrdinalOf(node, kind);
  if (ordinal < 0) return -1;
  const int switches =
      static_cast<int>(t.NodesOfKind(NodeKind::kSwitch).size());
  const int disks = static_cast<int>(t.Disks().size());
  switch (kind) {
    case NodeKind::kSwitch: return ordinal;
    case NodeKind::kDisk: return switches + ordinal;
    case NodeKind::kHub: return switches + disks + ordinal;
    case NodeKind::kHostPort: break;
  }
  return -1;
}

NodeIndex FabricManager::NodeOfLine(int line) const {
  auto l = static_cast<std::size_t>(line);
  for (NodeKind kind : {NodeKind::kSwitch, NodeKind::kDisk, NodeKind::kHub}) {
    const std::vector<NodeIndex>& nodes = fabric_.topology.NodesOfKind(kind);
    if (l < nodes.size()) return nodes[l];
    l -= nodes.size();
  }
  return kInvalidNode;
}

Status FabricManager::DriveLine(int mcu_index, int line, bool target) {
  hw::Microcontroller* board = mcus_.at(mcu_index).get();
  if (line < 0 || line >= bus_.line_count()) {
    return InvalidArgumentError("line out of range");
  }
  // The board must flip its own output so the XOR-ed line reaches `target`.
  const bool needed = board->output(line) != (bus_.line(line) != target);
  return board->SetOutput(line, needed);
}

Status FabricManager::DriveSwitch(int mcu_index, NodeIndex switch_node,
                                  bool select) {
  const int line = LineOf(switch_node, NodeKind::kSwitch);
  if (line < 0) return InvalidArgumentError("node is not a switch");
  return DriveLine(mcu_index, line, select);
}

Status FabricManager::DriveDiskPower(int mcu_index, NodeIndex disk_node,
                                     bool on) {
  const int line = LineOf(disk_node, NodeKind::kDisk);
  if (line < 0) return InvalidArgumentError("node is not a disk");
  // Relay line semantics: line HIGH = power cut (so the all-zero initial
  // bus state leaves everything powered).
  return DriveLine(mcu_index, line, !on);
}

Status FabricManager::DriveHubPower(int mcu_index, NodeIndex hub_node,
                                    bool on) {
  const int line = LineOf(hub_node, NodeKind::kHub);
  if (line < 0) return InvalidArgumentError("node is not a hub");
  return DriveLine(mcu_index, line, !on);
}

void FabricManager::OnLineChanged(int line, bool value) {
  const NodeIndex node = NodeOfLine(line);
  // Electrical settle, then apply and re-announce attachments.
  sim_->Schedule(options_.switch_settle, [this, node, value] {
    Topology& t = fabric_.topology;
    const Node& n = t.node(node);
    switch (n.kind) {
      case NodeKind::kSwitch:
        t.SetSwitch(node, value);
        break;
      case NodeKind::kDisk: {
        const bool on = !value;
        t.SetPowered(node, on);
        hw::Disk* d = disk(node);
        if (d != nullptr) {
          if (on) {
            d->PowerOn();
            // A power cycle clears the stuck state, and the fresh
            // enumeration that follows it is reliable (§V-B).
            lost_attach_.erase(node);
            power_cycled_.insert(node);
          } else {
            d->PowerOff();
          }
        }
        break;
      }
      case NodeKind::kHub: {
        const bool on = !value;
        t.SetPowered(node, on);
        if (on) {
          // Power-cycling a hub also power-cycles enumeration of its
          // subtree: clear the lost-attach markers of the disks whose
          // upstream chain, under the current switch settings, passes
          // through it.
          std::erase_if(lost_attach_, [&t, node](NodeIndex disk) {
            for (NodeIndex up = t.ActiveUpstream(disk); up != kInvalidNode;
                 up = t.ActiveUpstream(up)) {
              if (up == node) return true;
            }
            return false;
          });
        }
        break;
      }
      case NodeKind::kHostPort:
        break;  // host ports have no control line
    }
    RecomputeAttachments();
  });
}

hw::UsbTreeEntry FabricManager::EntryFor(NodeIndex device,
                                         NodeIndex /*host_port*/) const {
  const Topology& t = fabric_.topology;
  hw::UsbTreeEntry entry;
  entry.device = t.node(device).name;
  entry.is_hub = t.node(device).kind == NodeKind::kHub;
  const NodeIndex parent = t.UsbParentOf(device);
  entry.parent = (parent != kInvalidNode &&
                  t.node(parent).kind == NodeKind::kHub)
                     ? t.node(parent).name
                     : "";
  entry.tier = t.TierOf(device);
  return entry;
}

void FabricManager::RecomputeAttachments() {
  const Topology& t = fabric_.topology;

  // Work over enumerable devices: hubs, then disks.
  for (NodeKind kind : {NodeKind::kHub, NodeKind::kDisk}) {
    for (NodeIndex device : t.NodesOfKind(kind)) {
      const NodeIndex port = t.AttachedHostPort(device);
      int new_host = -1;
      if (port != kInvalidNode) {
        auto it = fabric_.host_of_port.find(port);
        if (it != fabric_.host_of_port.end()) new_host = it->second;
      }
      if (new_host >= 0 && crashed_hosts_.contains(new_host)) {
        new_host = -1;  // a dead host enumerates nothing
      }

      int& announced = announced_host_[static_cast<std::size_t>(device)];
      const int old_host = announced;
      if (old_host == new_host) continue;

      if (old_host >= 0) {
        stacks_[old_host]->OnDeviceDetached(t.node(device).name);
        announced = -1;
      }
      if (new_host >= 0) {
        const bool fresh_power_cycle = power_cycled_.erase(device) > 0;
        if (!fresh_power_cycle && kind == NodeKind::kDisk &&
            options_.attach_loss_probability > 0 &&
            rng_.NextBool(options_.attach_loss_probability)) {
          // §V-B: "sometimes disk switching is not detected reliably by the
          // hosts, forcing us to power cycle the devices."
          lost_attach_.insert(device);
          USTORE_LOG(Warning) << t.node(device).name
                              << ": attach event lost (flaky enumeration)";
          continue;
        }
        if (lost_attach_.contains(device)) continue;
        stacks_[new_host]->OnDeviceAttached(EntryFor(device, port));
        announced = new_host;
      }
    }
  }
}

void FabricManager::CrashHost(int host) {
  if (!crashed_hosts_.insert(host).second) return;
  stacks_[host]->Reset();
  // Devices routed here are no longer announced anywhere.
  std::replace(announced_host_.begin(), announced_host_.end(), host, -1);
}

void FabricManager::RestartHost(int host) {
  if (crashed_hosts_.erase(host) == 0) return;
  RecomputeAttachments();  // re-enumerates everything routed to its ports
}

Status FabricManager::FailUnit(const std::string& node_name) {
  USTORE_ASSIGN_OR_RETURN(NodeIndex node, fabric_.topology.Find(node_name));
  obs::Metrics().Increment("fabric.unit.failed");
  for (NodeIndex member : fabric_.topology.FailureUnitOf(node)) {
    fabric_.topology.SetFailed(member, true);
    if (hw::Disk* d = disk(member); d != nullptr) d->Fail();
  }
  RecomputeAttachments();
  return Status::Ok();
}

Status FabricManager::RepairUnit(const std::string& node_name) {
  USTORE_ASSIGN_OR_RETURN(NodeIndex node, fabric_.topology.Find(node_name));
  obs::Metrics().Increment("fabric.unit.repaired");
  for (NodeIndex member : fabric_.topology.FailureUnitOf(node)) {
    fabric_.topology.SetFailed(member, false);
    if (hw::Disk* d = disk(member); d != nullptr) {
      d->Repair();
      d->SpinUp();
    }
  }
  RecomputeAttachments();
  return Status::Ok();
}

int FabricManager::RoutedHostOfDisk(NodeIndex disk_node) const {
  return fabric_.HostOfDisk(disk_node);
}

int FabricManager::VisibleHostOfDisk(const std::string& disk_name) const {
  for (std::size_t h = 0; h < stacks_.size(); ++h) {
    if (stacks_[h]->IsRecognized(disk_name)) return static_cast<int>(h);
  }
  return -1;
}

Watts FabricManager::HubPower(const HubPowerModel& model,
                              int active_children) {
  if (active_children <= 0) return model.base;
  return model.base + model.first_device +
         (active_children - 1) * model.per_extra_device;
}

Watts FabricManager::FabricPower() const {
  const Topology& t = fabric_.topology;
  const HubPowerModel hub_model;
  Watts total = 0;
  for (NodeIndex hub : t.NodesOfKind(NodeKind::kHub)) {
    if (!t.powered(hub) || t.failed(hub)) continue;
    // Count powered active children (through switches).
    int active = 0;
    for (NodeIndex child : t.ActiveChildren(hub)) {
      NodeIndex leaf = child;
      // A switch child passes through to the component below it.
      if (t.node(leaf).kind == NodeKind::kSwitch) {
        for (NodeIndex j : t.FailureUnitOf(leaf)) {
          if (j != leaf) leaf = j;
        }
      }
      if (t.powered(leaf) && !t.failed(leaf)) ++active;
    }
    total += HubPower(hub_model, active);
  }
  for (NodeIndex sw : t.NodesOfKind(NodeKind::kSwitch)) {
    if (t.powered(sw)) total += kSwitchPower;
  }
  return total;
}

Watts FabricManager::DisksPower() const {
  Watts total = 0;
  for (const auto& d : disks_) total += d->current_power();
  return total;
}

}  // namespace ustore::fabric
