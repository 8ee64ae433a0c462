#include "power/power_model.h"

#include <cassert>
#include <cmath>

namespace ustore::power {

Watts HubPower(const ComponentPower& c, int attached_devices) {
  if (attached_devices <= 0) return c.hub_base;
  return c.hub_base + c.hub_first_device +
         (attached_devices - 1) * c.hub_per_extra_device;
}

PowerBreakdown UStorePower(int disks, SystemState state,
                           const ComponentPower& c) {
  assert(disks > 0);
  PowerBreakdown out;
  out.system = "UStore";
  out.fans = c.fan * c.fan_count;
  out.adaptors = c.usb_host_adaptor * c.adaptor_count;
  out.psu_efficiency = c.psu_efficiency;

  // Fabric shape: prototype-style, ceil(disks/4) leaf hubs with 4 disks
  // each, one mid hub per group of leaf hubs (1:1 in the 16-disk unit),
  // two switches per group.
  const int leaf_hubs = (disks + 3) / 4;
  const int mid_hubs = leaf_hubs;  // prototype: one per group
  const int switches = 2 * leaf_hubs;

  if (state == SystemState::kSpinning) {
    out.disks = disks * (c.disk_active + c.bridge_active);
    out.interconnect = leaf_hubs * HubPower(c, 4) +
                       mid_hubs * HubPower(c, 1) +
                       switches * c.usb_switch;
  } else {
    // Disks and bridges relay-powered off; fabric idles at hub base draw
    // (the paper measured ~71% reduction of fabric power).
    out.disks = 0;
    out.interconnect =
        (leaf_hubs + mid_hubs) * c.hub_base + switches * c.usb_switch;
  }
  out.total = (out.disks + out.interconnect + out.adaptors + out.fans) /
              out.psu_efficiency;
  return out;
}

PowerBreakdown PergamumPower(int disks, SystemState state,
                             const ComponentPower& c) {
  assert(disks > 0);
  PowerBreakdown out;
  out.system = "Pergamum";
  out.fans = c.fan * c.fan_count;
  out.adaptors = 0;  // tomes attach via Ethernet, no host adaptors
  out.psu_efficiency = c.psu_efficiency;
  if (state == SystemState::kSpinning) {
    out.disks = disks * c.disk_active;  // native SATA, no bridge
    out.interconnect = disks * (c.arm_busy + c.eth_port_active);
  } else {
    out.disks = 0;
    out.interconnect = disks * (c.arm_idle + c.eth_port_idle);
  }
  out.total = (out.disks + out.interconnect + out.adaptors + out.fans) /
              out.psu_efficiency;
  return out;
}

PowerBreakdown Dd860Es30Power(SystemState state) {
  // Quoted measurements (Li et al., FAST'12), as cited by the paper.
  PowerBreakdown out;
  out.system = "DD860/ES30";
  out.total = state == SystemState::kSpinning ? 222.5 : 83.5;
  return out;
}

DiskPowerRow SataDiskPower(const ComponentPower& c) {
  return {c.disk_spun_down, c.disk_idle, c.disk_active};
}

DiskPowerRow UsbDiskPower(const ComponentPower& c) {
  return {c.disk_spun_down + c.bridge_spun_down,
          c.disk_idle + c.bridge_idle, c.disk_active + c.bridge_active};
}

void PowerMeter::Sample(sim::Time now, Watts watts) {
  if (started_) {
    assert(now >= last_);
    energy_ += current_ * sim::ToSeconds(now - last_);
  } else {
    started_ = true;
    first_ = now;
  }
  last_ = now;
  current_ = watts;
}

Watts PowerMeter::average_power() const {
  const sim::Duration window = last_ - first_;
  if (window <= 0) return 0;
  return energy_ / sim::ToSeconds(window);
}

}  // namespace ustore::power
