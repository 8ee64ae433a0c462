// Power models (§VII-C): per-component draw, whole-system estimates for
// UStore / Pergamum / EMC DD860-ES30, and a meter that integrates power
// over simulated time.
//
// Component constants come from the paper's own measurements:
//   * disk + bridge by state — Table III;
//   * hub draw vs attached devices — Table IV;
//   * switch ~0.06 W, fans 1 W x6, USB 3.0 host adaptor 2.5 W x4,
//     90plus power supply (90% efficiency) — §VII-C;
//   * Pergamum tome: ARM 2.5 W busy / 0.8 W idle, Ethernet port 1.5 W
//     active / 0.5 W idle — §VII-C, citing the Cisco data sheet;
//   * DD860/ES30 numbers are quoted from Li et al. (FAST'12) as the paper
//     does.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "sim/time.h"

namespace ustore::power {

// The two archival-system states compared in Table V.
enum class SystemState { kSpinning, kPoweredOff };

struct PowerBreakdown {
  std::string system;
  Watts disks = 0;         // disks incl. bridges (UStore) / bare (Pergamum)
  Watts interconnect = 0;  // USB fabric / ARM+Ethernet / n.a.
  Watts adaptors = 0;      // host-side USB adaptors
  Watts fans = 0;
  double psu_efficiency = 1.0;
  Watts total = 0;         // (sum of above) / psu_efficiency
};

struct ComponentPower {
  // Table III (absolute draw of one disk by state).
  Watts disk_spun_down = 0.05;
  Watts disk_idle = 4.71;
  Watts disk_active = 6.66;
  Watts bridge_spun_down = 1.51;
  Watts bridge_idle = 1.05;
  Watts bridge_active = 0.90;
  // Table IV hub model.
  Watts hub_base = 0.21;
  Watts hub_first_device = 0.85;
  Watts hub_per_extra_device = 0.203;
  Watts usb_switch = 0.06;
  // §VII-C system components.
  Watts fan = 1.0;
  int fan_count = 6;
  Watts usb_host_adaptor = 2.5;
  int adaptor_count = 4;
  double psu_efficiency = 0.90;  // "90plus"
  // Pergamum tome.
  Watts arm_busy = 2.5;
  Watts arm_idle = 0.8;
  Watts eth_port_active = 1.5;
  Watts eth_port_idle = 0.5;
};

Watts HubPower(const ComponentPower& c, int attached_devices);

// Whole-system estimates for an n-disk configuration (Table V uses 16).
PowerBreakdown UStorePower(int disks, SystemState state,
                           const ComponentPower& c = {});
PowerBreakdown PergamumPower(int disks, SystemState state,
                             const ComponentPower& c = {});
// DD860 + one ES30 shelf (15 disks); measured numbers quoted from FAST'12.
PowerBreakdown Dd860Es30Power(SystemState state);

// Table III rows: one disk over {spin-down, idle, read/write}.
struct DiskPowerRow {
  Watts spin_down = 0;
  Watts idle = 0;
  Watts read_write = 0;
};
DiskPowerRow SataDiskPower(const ComponentPower& c = {});
DiskPowerRow UsbDiskPower(const ComponentPower& c = {});

// Integrates instantaneous power samples over simulated time.
class PowerMeter {
 public:
  // Accumulates `watts` held since the previous sample time.
  void Sample(sim::Time now, Watts watts);
  Joules total_energy() const { return energy_; }
  Watts average_power() const;
  sim::Duration observed() const { return last_ - first_; }

 private:
  bool started_ = false;
  sim::Time first_ = 0;
  sim::Time last_ = 0;
  Watts current_ = 0;
  Joules energy_ = 0;
};

}  // namespace ustore::power
