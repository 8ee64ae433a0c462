// Runtime binding of a fabric: topology + control lines + host USB stacks
// + disks + power relays.
//
// The FabricManager is the "physical" deploy unit. It owns:
//   * the Topology and its current switch configuration,
//   * two Microcontrollers on an XOR signal bus driving the switch-select
//     and power-relay lines (§III-B),
//   * one UsbHostStack per host (what each host OS sees),
//   * one hw::Disk per fabric disk node, all sharing one USB-bridge DiskModel.
//
// When a bus line changes, the manager applies the electrical effect after
// a short settle delay, recomputes every device's attachment, and delivers
// attach/detach events to the affected host stacks — from a host's view
// "the USB devices are just inserted to or removed from the host".
//
// The manager also implements the §V-B reliability quirk: with a
// configurable probability, a switched device's attach event is lost and
// the device stays unrecognized until its power is cycled.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"
#include "fabric/builders.h"
#include "fabric/topology.h"
#include "hw/disk.h"
#include "hw/microcontroller.h"
#include "hw/usb.h"
#include "sim/simulator.h"

namespace ustore::fabric {

class FabricManager {
 public:
  struct Options {
    hw::UsbHostControllerParams host_params;
    hw::DiskParams disk_params;
    sim::Duration switch_settle = sim::MillisD(5);
    double attach_loss_probability = 0.0;  // §V-B flaky-switch quirk
    bool disks_start_powered = true;
  };

  FabricManager(sim::Simulator* sim, BuiltFabric fabric, Options options,
                Rng rng);
  FabricManager(const FabricManager&) = delete;
  FabricManager& operator=(const FabricManager&) = delete;

  // --- Structure access ------------------------------------------------------
  const BuiltFabric& fabric() const { return fabric_; }
  const Topology& topology() const { return fabric_.topology; }
  int host_count() const { return static_cast<int>(fabric_.hosts.size()); }
  const hw::DiskModel& disk_model() const { return disk_model_; }

  // A wiring disk's hw::Disk; nullptr for any other node or name.
  hw::Disk* disk(const std::string& name);
  hw::Disk* disk(NodeIndex node);
  hw::UsbHostStack* host_stack(int host) { return stacks_.at(host).get(); }
  hw::Microcontroller* mcu(int which) { return mcus_.at(which).get(); }
  const hw::XorSignalBus& bus() const { return bus_; }

  // --- Control lines -----------------------------------------------------------
  // Lines are numbered by ordinal within each kind: the switches' select
  // lines first, then the disks' power relays, then the hubs' power relays.

  // Drives a bus line to a target effective value through a given board
  // (the board XORs against the other board's contribution).
  Status DriveLine(int mcu_index, int line, bool target);

  // Convenience wrappers used by the Controller.
  Status DriveSwitch(int mcu_index, NodeIndex switch_node, bool select);
  Status DriveDiskPower(int mcu_index, NodeIndex disk_node, bool on);
  Status DriveHubPower(int mcu_index, NodeIndex hub_node, bool on);

  // --- Host lifecycle -----------------------------------------------------------
  // A host crash wipes its USB stack; restart re-enumerates everything
  // currently routed to its ports.
  void CrashHost(int host);
  void RestartHost(int host);
  bool host_alive(int host) const { return !crashed_hosts_.contains(host); }

  // --- Fault injection -----------------------------------------------------------
  // Fails/repairs the whole failure unit containing the named component.
  Status FailUnit(const std::string& node_name);
  Status RepairUnit(const std::string& node_name);

  // --- Queries --------------------------------------------------------------------
  // Host id a disk is currently *routed* to (fabric-level), -1 if none.
  int RoutedHostOfDisk(NodeIndex disk_node) const;
  // Host id where the disk is routed AND recognized by the host stack.
  int VisibleHostOfDisk(const std::string& disk_name) const;

  // --- Power accounting --------------------------------------------------------------
  // Instantaneous fabric power: hubs (Table IV model) + switches.
  Watts FabricPower() const;
  Watts DisksPower() const;  // disks + bridges, by state

  // Hub power model from Table IV: base + first-device + per-extra-device.
  struct HubPowerModel {
    Watts base = 0.21;
    Watts first_device = 0.85;
    Watts per_extra_device = 0.203;
  };
  static Watts HubPower(const HubPowerModel& model, int active_children);
  static constexpr Watts kSwitchPower = 0.06;  // §VII-C

 private:
  // The control line of `node` when it is a node of `kind`; -1 otherwise
  // (host ports have no line).
  int LineOf(NodeIndex node, NodeKind kind) const;
  NodeIndex NodeOfLine(int line) const;
  void OnLineChanged(int line, bool value);
  void RecomputeAttachments();
  hw::UsbTreeEntry EntryFor(NodeIndex device, NodeIndex host_port) const;

  sim::Simulator* sim_;
  BuiltFabric fabric_;
  Options options_;
  hw::DiskModel disk_model_;  // outlives disks_, which borrow it
  Rng rng_;

  hw::XorSignalBus bus_;
  std::vector<std::unique_ptr<hw::Microcontroller>> mcus_;
  std::vector<std::unique_ptr<hw::UsbHostStack>> stacks_;
  std::vector<std::unique_ptr<hw::Disk>> disks_;  // by disk ordinal

  std::set<int> crashed_hosts_;
  // Current visibility, by NodeIndex: the host id a device was announced
  // to, -1 when none.
  std::vector<int> announced_host_;
  // Devices whose attach event was lost (§V-B quirk); cleared by power cycle.
  std::set<NodeIndex> lost_attach_;
  // Disks just power-cycled: their next attach enumerates reliably.
  std::set<NodeIndex> power_cycled_;
};

}  // namespace ustore::fabric
