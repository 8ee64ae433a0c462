// Analytic service-time model of a 7200rpm SATA hard disk behind either a
// native SATA port or a SATA<->USB 3.0 bridge.
//
// The model is calibrated against the paper's own single-disk measurements
// (Table II, TOSHIBA DT01ACA300 behind an SSK HE-G130 bridge) so that the
// simulated prototype reproduces the published throughput table. Per-request
// service time decomposes as
//
//   t = command_overhead(dir)                         // host/bridge protocol
//     + positioning(dir, size)        [random only]   // seek + rotation +
//                                                     //   track switches
//     + size / media_rate(dir)                        // platter transfer
//     + direction_switch_penalty      [when the direction changed]
//
// Mixed read/write streams pay a direction-switch penalty that models head
// turnaround and write-cache interleaving: proportional to transfer time for
// sequential streams and to positioning time for random streams.
//
// The USB bridge adds fixed per-command latency (visible as the ~2.5x small-
// sequential IOPS loss in Table II) but its command queuing and read-ahead
// *overlap* part of the track-switch cost of large random transfers, which
// is why the paper measures USB slightly ahead of SATA for 4MB random I/O.
#pragma once

#include "common/units.h"
#include "sim/time.h"

namespace ustore::hw {

enum class AccessPattern { kSequential, kRandom };
enum class IoDirection { kRead, kWrite };

// One I/O request as issued by a workload generator or the iSCSI target.
struct IoRequest {
  Bytes size = KiB(4);
  IoDirection direction = IoDirection::kRead;
  AccessPattern pattern = AccessPattern::kSequential;
};

// A steady-state workload description, for closed-form evaluation.
struct WorkloadSpec {
  Bytes request_size = KiB(4);
  double read_fraction = 1.0;  // 1.0 = all reads, 0.0 = all writes
  AccessPattern pattern = AccessPattern::kSequential;
};

// Mechanical parameters of the disk itself (interface-independent).
// Defaults reproduce the SATA rows of Table II.
struct DiskParams {
  Bytes capacity = TB(3);
  int rpm = 7200;

  BytesPerSec media_rate_read = MBps(185.3);
  BytesPerSec media_rate_write = MBps(180.7);

  // Random-access positioning: base (seek + rotation at the measured
  // effective queue behaviour) plus a per-byte track-switch term for
  // multi-track transfers.
  sim::Duration positioning_read = sim::MicrosD(5190);
  sim::Duration positioning_write = sim::MicrosD(11460);
  double track_switch_ns_per_byte_read = 1.0944;
  double track_switch_ns_per_byte_write = 9.11;

  // Spin state machine.
  sim::Duration spin_up_time = sim::Seconds(7);
  sim::Duration spin_down_time = sim::Seconds(1);

  // Power draw by state; SATA row of Table III.
  Watts power_spun_down = 0.05;
  Watts power_idle = 4.71;
  Watts power_active = 6.66;
  Watts power_spin_up_surge = 24.0;
};

// Host-interface parameters. Two canonical instances are provided:
// SataInterface() and UsbBridgeInterface().
struct InterfaceParams {
  const char* name = "sata";

  // Fixed per-command protocol overhead.
  sim::Duration cmd_overhead_read = sim::MicrosD(53);
  sim::Duration cmd_overhead_write = sim::MicrosD(68);

  // Direction-switch penalty coefficients (see file comment). The penalty
  // charged when a request's direction differs from its predecessor is
  //   2 * (alpha + delta_transfer*avg_transfer)      for sequential
  //   2 * (alpha + delta_positioning*avg_positioning) for random
  // so a 50/50 stream pays `alpha + delta*X` per request in expectation.
  sim::Duration mixed_alpha = sim::MicrosD(26);
  double mixed_delta_transfer = 0.73;
  double mixed_delta_positioning = 0.12;

  // Fraction of the track-switch cost hidden by bridge read-ahead/write
  // coalescing on large random transfers (0 for native SATA).
  double track_overlap_read = 0.0;
  double track_overlap_write = 0.0;

  // Extra power drawn by the interface electronics, by disk state
  // (Table III: USB row minus SATA row). Zero for native SATA.
  Watts power_spun_down = 0.0;
  Watts power_idle = 0.0;
  Watts power_active = 0.0;
};

InterfaceParams SataInterface();
InterfaceParams UsbBridgeInterface();

// Closed-form and per-request evaluation of the calibrated model. Every
// evaluation is a pure function of its arguments and records nothing, so
// callers may hoist, share or repeat calls freely (hw::DiskStateArray
// evaluates once per range, hw::Disk once per request run).
class DiskModel {
 public:
  DiskModel(DiskParams disk, InterfaceParams iface)
      : disk_(disk), iface_(iface) {}

  const DiskParams& disk() const { return disk_; }
  const InterfaceParams& iface() const { return iface_; }

  // Service time for one request given the direction of the previous
  // request on this spindle (kRead for the first request, by convention).
  sim::Duration ServiceTime(const IoRequest& request,
                            IoDirection previous_direction) const;

  // Steady-state per-request service time for a homogeneous stream: the
  // exact value ServiceTime() returns when the previous request had the
  // same direction (no switch penalty), computed once for a whole run of
  // identical requests. For a pure read/write WorkloadSpec,
  // Evaluate().iops == 1e9 / SteadyStateServiceTime.
  sim::Duration SteadyStateServiceTime(const IoRequest& request) const;

  // Steady-state rates for a single-worker queue-depth-1 stream.
  struct Throughput {
    Iops iops = 0;
    BytesPerSec bytes_per_sec = 0;
  };
  Throughput Evaluate(const WorkloadSpec& spec) const;

 private:
  sim::Duration Positioning(IoDirection dir, Bytes size) const;
  sim::Duration Transfer(IoDirection dir, Bytes size) const;
  sim::Duration Overhead(IoDirection dir) const;
  // Expected penalty per request at the given read fraction.
  sim::Duration ExpectedMixPenalty(const WorkloadSpec& spec) const;
  sim::Duration DirectionSwitchPenalty(AccessPattern pattern,
                                       Bytes size) const;

  DiskParams disk_;
  InterfaceParams iface_;
};

}  // namespace ustore::hw
