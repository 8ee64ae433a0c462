// USB 3.0 link parameters and the per-host USB stack (enumeration model).
//
// Link capacities are per the paper's measurements: a root port sustains
// ~300 MB/s in one direction and ~540 MB/s total when reads and writes run
// simultaneously (SuperSpeed is full duplex); small-transfer throughput is
// additionally capped by the host controller's transaction rate, which is
// what makes "the sequential throughput of 8 disks saturate the USB tree"
// in Fig. 5.
//
// UsbHostStack models what the host OS sees: devices appearing and
// disappearing as the fabric is reconfigured. Recognition of newly attached
// devices is serialized per root port (base delay + per-device step), which
// reproduces the growth of Fig. 6's first component with the number of
// disks switched at once. It also enforces the practical limits the paper
// hit: the Intel root-hub ~15-device quirk, the 5-tier depth limit and the
// 127-device bus limit.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace ustore::hw {

struct UsbLinkParams {
  BytesPerSec cap_per_direction = MBps(300);
  BytesPerSec cap_duplex_total = MBps(540);
};

struct UsbHostControllerParams {
  UsbLinkParams root_link;
  Iops transaction_cap = 42000;  // host controller IOPS ceiling
  int max_devices = 15;          // Intel xHCI driver quirk (§V-B); spec: 127
  int max_tiers = 5;             // USB spec tier limit (hubs between root
                                 // and device)
  // Enumeration timing (calibrated to Fig. 6 part 1).
  sim::Duration detach_notice = sim::MillisD(40);
  sim::Duration recognition_base = sim::MillisD(600);
  sim::Duration recognition_serial = sim::MillisD(250);
};

// Status of one device as seen by a host's USB stack.
enum class UsbDeviceStatus {
  kEnumerating,   // attached, not yet recognized
  kRecognized,    // visible to the OS (shows up in lsusb)
  kEnumerationFailed,  // exceeded device limit or tier depth
};

// One row of an "lsusb -t"-style report sent by the EndPoint's USB Monitor
// to the Controller (§IV-B).
struct UsbTreeEntry {
  std::string device;   // fabric node name
  std::string parent;   // parent device name; empty = root port
  int tier = 0;         // hub depth below the root port
  bool is_hub = false;

  friend bool operator==(const UsbTreeEntry&, const UsbTreeEntry&) = default;
};

using UsbTreeReport = std::vector<UsbTreeEntry>;

class UsbHostStack {
 public:
  using AttachListener =
      std::function<void(const std::string& device, UsbDeviceStatus status)>;
  using DetachListener = std::function<void(const std::string& device)>;

  UsbHostStack(sim::Simulator* sim, std::string host_name,
               UsbHostControllerParams params = {});

  const std::string& host_name() const { return host_name_; }
  const UsbHostControllerParams& params() const { return params_; }

  void set_attach_listener(AttachListener listener) {
    attach_listener_ = std::move(listener);
  }
  void set_detach_listener(DetachListener listener) {
    detach_listener_ = std::move(listener);
  }

  // Called by the fabric when reconfiguration routes a device to (or away
  // from) this host's root port. `tier` is hub depth; `tree_entry` describes
  // the device's position for later reports.
  void OnDeviceAttached(const UsbTreeEntry& entry);
  void OnDeviceDetached(const std::string& device);

  // The host crashed / rebooted: all device state is lost instantly.
  void Reset();

  // Devices currently recognized by the OS, name-ordered. These queries
  // cost O(recognized), however many devices are attached.
  std::vector<std::string> RecognizedDevices() const;
  bool IsRecognized(const std::string& device) const {
    return recognized_.contains(device);
  }

  // lsusb -t equivalent over recognized devices.
  UsbTreeReport TreeReport() const;

  int recognized_count() const { return static_cast<int>(recognized_.size()); }

 private:
  struct DeviceState {
    UsbTreeEntry entry;
    UsbDeviceStatus status = UsbDeviceStatus::kEnumerating;
    std::uint64_t generation = 0;  // invalidates in-flight recognitions
  };

  sim::Simulator* sim_;
  std::string host_name_;
  UsbHostControllerParams params_;
  AttachListener attach_listener_;
  DetachListener detach_listener_;
  std::map<std::string, DeviceState> devices_;  // ordered for determinism
  // The kRecognized subset of devices_ with their entries, kept in step
  // with every status change (attach, re-attach, detach, Reset).
  std::map<std::string, UsbTreeEntry> recognized_;
  sim::Time enumeration_busy_until_ = 0;
  std::uint64_t generation_counter_ = 0;
};

}  // namespace ustore::hw
