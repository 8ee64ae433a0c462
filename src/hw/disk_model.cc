#include "hw/disk_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ustore::hw {

InterfaceParams SataInterface() {
  return InterfaceParams{};  // defaults are the SATA calibration
}

InterfaceParams UsbBridgeInterface() {
  InterfaceParams p;
  p.name = "usb3-bridge";
  p.cmd_overhead_read = sim::MicrosD(164.4);
  p.cmd_overhead_write = sim::MicrosD(139.0);
  p.mixed_alpha = sim::MicrosD(47.8);
  p.mixed_delta_transfer = 0.52;
  p.mixed_delta_positioning = 0.12;
  p.track_overlap_read = 0.92;
  p.track_overlap_write = 0.52;
  // Table III: USB row minus SATA row.
  p.power_spun_down = 1.51;
  p.power_idle = 1.05;
  p.power_active = 0.90;
  return p;
}

sim::Duration DiskModel::Overhead(IoDirection dir) const {
  return dir == IoDirection::kRead ? iface_.cmd_overhead_read
                                   : iface_.cmd_overhead_write;
}

sim::Duration DiskModel::Transfer(IoDirection dir, Bytes size) const {
  const BytesPerSec rate = dir == IoDirection::kRead
                               ? disk_.media_rate_read
                               : disk_.media_rate_write;
  return static_cast<sim::Duration>(1e9 * static_cast<double>(size) / rate);
}

sim::Duration DiskModel::Positioning(IoDirection dir, Bytes size) const {
  const bool read = dir == IoDirection::kRead;
  const sim::Duration base =
      read ? disk_.positioning_read : disk_.positioning_write;
  const double track_ns = read ? disk_.track_switch_ns_per_byte_read
                               : disk_.track_switch_ns_per_byte_write;
  const double overlap =
      read ? iface_.track_overlap_read : iface_.track_overlap_write;
  const auto track = static_cast<sim::Duration>(
      (1.0 - overlap) * track_ns * static_cast<double>(size));
  return base + track;
}

sim::Duration DiskModel::DirectionSwitchPenalty(AccessPattern pattern,
                                                Bytes size) const {
  if (pattern == AccessPattern::kSequential) {
    const sim::Duration avg_transfer =
        (Transfer(IoDirection::kRead, size) +
         Transfer(IoDirection::kWrite, size)) /
        2;
    return 2 * (iface_.mixed_alpha +
                static_cast<sim::Duration>(iface_.mixed_delta_transfer *
                                           static_cast<double>(avg_transfer)));
  }
  const sim::Duration avg_positioning =
      (Positioning(IoDirection::kRead, size) +
       Positioning(IoDirection::kWrite, size)) /
      2;
  return 2 * (iface_.mixed_alpha +
              static_cast<sim::Duration>(iface_.mixed_delta_positioning *
                                         static_cast<double>(avg_positioning)));
}

sim::Duration DiskModel::ServiceTime(const IoRequest& request,
                                     IoDirection previous_direction) const {
  assert(request.size > 0);
  sim::Duration t =
      Overhead(request.direction) + Transfer(request.direction, request.size);
  if (request.pattern == AccessPattern::kRandom) {
    t += Positioning(request.direction, request.size);
  }
  if (request.direction != previous_direction) {
    t += DirectionSwitchPenalty(request.pattern, request.size);
  }
  return t;
}

sim::Duration DiskModel::SteadyStateServiceTime(
    const IoRequest& request) const {
  assert(request.size > 0);
  // Same arithmetic as ServiceTime() with previous_direction ==
  // request.direction, so the returned duration is bit-identical to what
  // per-request stepping would accumulate.
  sim::Duration t =
      Overhead(request.direction) + Transfer(request.direction, request.size);
  if (request.pattern == AccessPattern::kRandom) {
    t += Positioning(request.direction, request.size);
  }
  return t;
}

sim::Duration DiskModel::ExpectedMixPenalty(const WorkloadSpec& spec) const {
  const double p = std::clamp(spec.read_fraction, 0.0, 1.0);
  // Probability that two consecutive i.i.d. requests differ in direction.
  const double switch_probability = 2.0 * p * (1.0 - p);
  if (switch_probability == 0.0) return 0;
  return static_cast<sim::Duration>(
      switch_probability *
      static_cast<double>(
          DirectionSwitchPenalty(spec.pattern, spec.request_size)));
}

DiskModel::Throughput DiskModel::Evaluate(const WorkloadSpec& spec) const {
  const double p = std::clamp(spec.read_fraction, 0.0, 1.0);

  auto service = [&](IoDirection dir) {
    IoRequest req{spec.request_size, dir, spec.pattern};
    return ServiceTime(req, dir);  // same direction: no switch penalty
  };
  const double expected_service =
      p * static_cast<double>(service(IoDirection::kRead)) +
      (1.0 - p) * static_cast<double>(service(IoDirection::kWrite)) +
      static_cast<double>(ExpectedMixPenalty(spec));

  Throughput out;
  out.iops = 1e9 / expected_service;
  out.bytes_per_sec = out.iops * static_cast<double>(spec.request_size);
  return out;
}

}  // namespace ustore::hw
