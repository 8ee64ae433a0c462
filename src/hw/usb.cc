#include "hw/usb.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace ustore::hw {

UsbHostStack::UsbHostStack(sim::Simulator* sim, std::string host_name,
                           UsbHostControllerParams params)
    : sim_(sim), host_name_(std::move(host_name)), params_(params) {}

void UsbHostStack::OnDeviceAttached(const UsbTreeEntry& entry) {
  recognized_.erase(entry.device);  // a re-attach enumerates afresh
  DeviceState& state = devices_[entry.device];
  state.entry = entry;
  state.generation = ++generation_counter_;
  const std::uint64_t generation = state.generation;

  // Hard limits checked at attach time.
  if (entry.tier > params_.max_tiers ||
      static_cast<int>(devices_.size()) > 127) {
    state.status = UsbDeviceStatus::kEnumerationFailed;
    if (attach_listener_) {
      attach_listener_(entry.device, UsbDeviceStatus::kEnumerationFailed);
    }
    return;
  }

  state.status = UsbDeviceStatus::kEnumerating;

  // Recognition is serialized on the root port: the stack works through
  // newly attached devices one at a time after a fixed settle delay.
  const sim::Time start = std::max(
      sim_->now() + params_.recognition_base, enumeration_busy_until_);
  const sim::Time done = start + params_.recognition_serial;
  enumeration_busy_until_ = done;

  sim_->ScheduleAt(done, [this, device = entry.device, generation] {
    auto it = devices_.find(device);
    if (it == devices_.end() || it->second.generation != generation) {
      return;  // detached (or re-attached) while enumerating
    }
    if (it->second.status != UsbDeviceStatus::kEnumerating) return;

    // The ~15 device xHCI quirk: devices beyond the limit fail to enumerate.
    if (recognized_count() >= params_.max_devices) {
      it->second.status = UsbDeviceStatus::kEnumerationFailed;
      USTORE_LOG(Warning) << host_name_ << ": device " << device
                          << " failed enumeration (device limit "
                          << params_.max_devices << ")";
      if (attach_listener_) {
        attach_listener_(device, UsbDeviceStatus::kEnumerationFailed);
      }
      return;
    }
    it->second.status = UsbDeviceStatus::kRecognized;
    recognized_.emplace(device, it->second.entry);
    if (attach_listener_) {
      attach_listener_(device, UsbDeviceStatus::kRecognized);
    }
  });
}

void UsbHostStack::OnDeviceDetached(const std::string& device) {
  auto it = devices_.find(device);
  if (it == devices_.end()) return;
  devices_.erase(it);
  recognized_.erase(device);
  // The OS notices the disappearance after a short delay.
  sim_->Schedule(params_.detach_notice, [this, device] {
    if (detach_listener_) detach_listener_(device);
  });
}

void UsbHostStack::Reset() {
  devices_.clear();
  recognized_.clear();
  enumeration_busy_until_ = 0;
}

std::vector<std::string> UsbHostStack::RecognizedDevices() const {
  std::vector<std::string> out;
  out.reserve(recognized_.size());
  for (const auto& [name, entry] : recognized_) out.push_back(name);
  return out;
}

UsbTreeReport UsbHostStack::TreeReport() const {
  UsbTreeReport report;
  report.reserve(recognized_.size());
  for (const auto& [name, entry] : recognized_) report.push_back(entry);
  return report;
}

}  // namespace ustore::hw
