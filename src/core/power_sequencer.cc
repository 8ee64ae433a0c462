#include "core/power_sequencer.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "hw/disk.h"

namespace ustore::core {

PowerSequencer::PowerSequencer(sim::Simulator* sim,
                               fabric::FabricManager* manager, int mcu_index,
                               PowerSequencerOptions options)
    : sim_(sim),
      manager_(manager),
      mcu_index_(mcu_index),
      options_(options),
      sample_timer_(sim) {}

void PowerSequencer::TrackPeak() {
  peak_power_ = std::max(peak_power_, manager_->DisksPower());
}

void PowerSequencer::PowerOnAll(std::function<void(Status)> done) {
  peak_power_ = 0;
  sample_timer_.StartPeriodic(sim::MillisD(100), [this] { TrackPeak(); });

  const std::vector<fabric::NodeIndex>& disks = manager_->topology().Disks();
  const sim::Duration wave_interval =
      disks.empty()
          ? 0
          : manager_->disk_model().disk().spin_up_time + options_.settle;

  // Weak self-capture: each scheduled wave holds the only strong ref, so
  // the chain is freed after the final wave instead of leaking as a
  // shared_ptr cycle.
  auto wave = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak_wave = wave;
  *wave = [this, &disks, wave_interval, weak_wave,
           done = std::move(done)](std::size_t next) {
    if (next >= disks.size()) {
      // Allow the last wave to finish spinning before reporting.
      sim_->Schedule(wave_interval, [this, done = std::move(done)] {
        TrackPeak();
        sample_timer_.Stop();
        done(Status::Ok());
      });
      return;
    }
    const std::size_t end = std::min(
        next + static_cast<std::size_t>(options_.max_concurrent_spinups),
        disks.size());
    for (std::size_t i = next; i < end; ++i) {
      Status status = manager_->DriveDiskPower(mcu_index_, disks[i], true);
      if (!status.ok()) {
        sample_timer_.Stop();
        done(status);
        return;
      }
    }
    // The relay change settles, then the enclosures auto-spin their
    // platters; schedule the spin-up after the electrical settle.
    sim_->Schedule(sim::MillisD(50), [this, &disks, next, end] {
      for (std::size_t i = next; i < end; ++i) {
        if (hw::Disk* disk = manager_->disk(disks[i]); disk != nullptr) {
          disk->SpinUp();
        }
      }
      TrackPeak();
    });
    auto self = weak_wave.lock();
    sim_->Schedule(wave_interval,
                   [self, end]() mutable { (*self)(end); });
  };
  (*wave)(0);
}

void PowerSequencer::PowerOnAllAtOnce(std::function<void(Status)> done) {
  peak_power_ = 0;
  sample_timer_.StartPeriodic(sim::MillisD(100), [this] { TrackPeak(); });
  const std::vector<fabric::NodeIndex>& disks = manager_->topology().Disks();
  for (fabric::NodeIndex node : disks) {
    Status status = manager_->DriveDiskPower(mcu_index_, node, true);
    if (!status.ok()) {
      sample_timer_.Stop();
      done(status);
      return;
    }
  }
  sim_->Schedule(sim::MillisD(50), [this, &disks] {
    for (fabric::NodeIndex node : disks) {
      if (hw::Disk* disk = manager_->disk(node); disk != nullptr) {
        disk->SpinUp();
      }
    }
    TrackPeak();
  });
  sim_->Schedule(manager_->disk_model().disk().spin_up_time + options_.settle,
                 [this, done = std::move(done)] {
                   TrackPeak();
                   sample_timer_.Stop();
                   done(Status::Ok());
                 });
}

}  // namespace ustore::core
