// Rolling spin-up (§III-B).
//
// "Being able to control power supply enables us to perform rolling
// spin-up at the power-on time, thus avoiding a large number of disks
// spinning up at the same time and overwhelming the power supply."
//
// The PowerSequencer brings a deploy unit's disks up through the
// microcontroller relays with a configurable stagger so that at most
// `max_concurrent_spinups` platters draw their ~24 W surge at once. It is
// used at unit power-on and after a whole-unit power cut.
#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "fabric/fabric_manager.h"
#include "sim/simulator.h"

namespace ustore::core {

struct PowerSequencerOptions {
  int max_concurrent_spinups = 2;
  // Extra settle time after a disk reaches speed before starting the next
  // wave (relay bounce + PSU recovery).
  sim::Duration settle = sim::MillisD(500);
};

class PowerSequencer {
 public:
  PowerSequencer(sim::Simulator* sim, fabric::FabricManager* manager,
                 int mcu_index, PowerSequencerOptions options = {});

  // Powers on every fabric disk (relay + platter spin-up), rolling through
  // them in waves of `max_concurrent_spinups`, each wave one spin-up time
  // of the unit's disks plus `settle` after the last. `done` fires when all
  // disks are spinning. Observed peak power is tracked for verification.
  void PowerOnAll(std::function<void(Status)> done);

  // The naive alternative for comparison: all relays at once; `done` fires
  // one spin-up time plus `settle` later.
  void PowerOnAllAtOnce(std::function<void(Status)> done);

  // Highest instantaneous disk+bridge power observed during the sequence.
  Watts peak_power() const { return peak_power_; }

 private:
  void TrackPeak();

  sim::Simulator* sim_;
  fabric::FabricManager* manager_;
  int mcu_index_;
  PowerSequencerOptions options_;
  Watts peak_power_ = 0;
  sim::Timer sample_timer_;
};

}  // namespace ustore::core
