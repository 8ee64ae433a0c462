// Reproduces Table III (§VII-C): power consumption of one disk over SATA
// and behind the USB bridge, in spin-down / idle / read-write states.
// Cross-checked against the live hw::Disk state machine.
#include <cstdio>

#include "bench_util.h"
#include "hw/disk.h"
#include "power/power_model.h"
#include "sim/simulator.h"

int main() {
  using namespace ustore;
  bench::PrintHeader("Table III: power of one disk (watts)");
  bench::PrintRow({"Mode", "Specs", "SATA (paper)", "USB (paper)"}, 20);

  const auto sata = power::SataDiskPower();
  const auto usb = power::UsbDiskPower();
  bench::PrintRow({"Spin Down", "1.0",
                   bench::VsPaper(sata.spin_down, 0.05, 2),
                   bench::VsPaper(usb.spin_down, 1.56, 2)},
                  20);
  bench::PrintRow({"Idle", "5.2", bench::VsPaper(sata.idle, 4.71, 2),
                   bench::VsPaper(usb.idle, 5.76, 2)},
                  20);
  bench::PrintRow({"Read/Write", "6.4",
                   bench::VsPaper(sata.read_write, 6.66, 2),
                   bench::VsPaper(usb.read_write, 7.56, 2)},
                  20);

  // Cross-check against the stateful disk model.
  sim::Simulator sim;
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::Disk disk(&sim, "d", &model);
  std::printf("\nLive hw::Disk (USB bridge): idle %.2f W",
              disk.current_power());
  disk.SubmitIo({MiB(4), hw::IoDirection::kRead,
                 hw::AccessPattern::kSequential},
                [](Status) {});
  sim.RunFor(sim::MillisD(5));
  std::printf(", active %.2f W", disk.current_power());
  sim.Run();
  disk.SpinDown();
  std::printf(", spun down %.2f W\n", disk.current_power());
  return 0;
}
