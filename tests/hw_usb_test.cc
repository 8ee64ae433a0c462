#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/usb.h"
#include "sim/simulator.h"

namespace ustore::hw {
namespace {

UsbTreeEntry DiskEntry(const std::string& name, const std::string& parent,
                       int tier) {
  return UsbTreeEntry{name, parent, tier, /*is_hub=*/false};
}

class UsbHostStackTest : public ::testing::Test {
 protected:
  UsbHostStackTest() : stack_(&sim_, "host-0") {
    stack_.set_attach_listener(
        [this](const std::string& device, UsbDeviceStatus status) {
          attach_events_.emplace_back(device, status);
          recognized_at_[device] = sim_.now();
        });
    stack_.set_detach_listener(
        [this](const std::string& device) { detached_.push_back(device); });
  }

  sim::Simulator sim_;
  UsbHostStack stack_;
  std::vector<std::pair<std::string, UsbDeviceStatus>> attach_events_;
  std::map<std::string, sim::Time> recognized_at_;
  std::vector<std::string> detached_;
};

TEST_F(UsbHostStackTest, SingleDeviceRecognizedAfterBaseDelay) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-0", 2));
  sim_.Run();
  ASSERT_EQ(attach_events_.size(), 1u);
  EXPECT_EQ(attach_events_[0].second, UsbDeviceStatus::kRecognized);
  const auto& p = stack_.params();
  EXPECT_EQ(recognized_at_["disk-0"],
            p.recognition_base + p.recognition_serial);
  EXPECT_TRUE(stack_.IsRecognized("disk-0"));
}

TEST_F(UsbHostStackTest, BatchAttachIsSerialized) {
  // Fig. 6 part 1: recognition time grows with the number of disks switched
  // simultaneously.
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  const auto& p = stack_.params();
  EXPECT_EQ(recognized_at_["disk-3"],
            p.recognition_base + n * p.recognition_serial);
  EXPECT_EQ(stack_.recognized_count(), n);
}

TEST_F(UsbHostStackTest, DetachDuringEnumerationCancelsRecognition) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.RunFor(sim::MillisD(100));
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  EXPECT_FALSE(stack_.IsRecognized("disk-0"));
  for (const auto& [device, status] : attach_events_) {
    EXPECT_NE(status, UsbDeviceStatus::kRecognized);
  }
}

TEST_F(UsbHostStackTest, DetachNotifiesAfterNoticeDelay) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  const sim::Time before = sim_.now();
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  ASSERT_EQ(detached_.size(), 1u);
  EXPECT_EQ(detached_[0], "disk-0");
  EXPECT_EQ(sim_.now() - before, stack_.params().detach_notice);
}

TEST_F(UsbHostStackTest, DeviceLimitQuirk) {
  // The Intel xHCI quirk: only ~15 devices enumerate (§V-B).
  for (int i = 0; i < 20; ++i) {
    stack_.OnDeviceAttached(DiskEntry("disk-" + std::to_string(i), "hub", 2));
  }
  sim_.Run();
  EXPECT_EQ(stack_.recognized_count(), stack_.params().max_devices);
  int failed = 0;
  for (const auto& [device, status] : attach_events_) {
    if (status == UsbDeviceStatus::kEnumerationFailed) ++failed;
  }
  EXPECT_EQ(failed, 20 - stack_.params().max_devices);
}

TEST_F(UsbHostStackTest, TierLimitRejectsDeepDevices) {
  stack_.OnDeviceAttached(DiskEntry("deep", "hub", 6));
  sim_.Run();
  ASSERT_EQ(attach_events_.size(), 1u);
  EXPECT_EQ(attach_events_[0].second, UsbDeviceStatus::kEnumerationFailed);
}

TEST_F(UsbHostStackTest, ReattachAfterDetachWorks) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  stack_.OnDeviceDetached("disk-0");
  sim_.Run();
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  EXPECT_TRUE(stack_.IsRecognized("disk-0"));
}

TEST_F(UsbHostStackTest, ResetClearsEverything) {
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub", 2));
  sim_.Run();
  stack_.Reset();
  EXPECT_EQ(stack_.recognized_count(), 0);
  EXPECT_TRUE(stack_.RecognizedDevices().empty());
}

TEST_F(UsbHostStackTest, TreeReportListsRecognizedDevices) {
  stack_.OnDeviceAttached(UsbTreeEntry{"hub-0", "", 1, true});
  stack_.OnDeviceAttached(DiskEntry("disk-0", "hub-0", 2));
  sim_.Run();
  UsbTreeReport report = stack_.TreeReport();
  ASSERT_EQ(report.size(), 2u);
  // Report is name-ordered (map iteration) for determinism.
  EXPECT_EQ(report[0].device, "disk-0");
  EXPECT_EQ(report[0].parent, "hub-0");
  EXPECT_EQ(report[1].device, "hub-0");
  EXPECT_TRUE(report[1].is_hub);
}

// The recognized views (count, device list, tree report) are kept in step
// with every status change rather than recomputed by a walk over every
// attached device. Drive a seeded random mix of attaches, re-attaches
// during enumeration, detaches, over-limit bursts and resets, and after
// every step compare them — content and name order — with a model built
// from the listener's recognition events.
TEST(UsbHostStackModelTest, RecognizedViewsTrackARandomSequence) {
  sim::Simulator sim;
  UsbHostStack stack(&sim, "host-0");
  Rng rng(2015);
  std::map<std::string, UsbTreeEntry> last_attached;
  std::map<std::string, UsbTreeEntry> model;  // recognized, name-ordered
  int recognitions = 0;
  int failures = 0;
  stack.set_attach_listener(
      [&](const std::string& device, UsbDeviceStatus status) {
        if (status == UsbDeviceStatus::kRecognized) {
          ++recognitions;
          model[device] = last_attached.at(device);
        } else {
          ++failures;
          model.erase(device);
        }
      });

  // More names than the 127-device bus limit, unpadded so name order and
  // numeric order differ ("dev-10" < "dev-9").
  constexpr int kPool = 150;
  auto random_name = [&] {
    return "dev-" + std::to_string(rng.NextBelow(kPool));
  };
  auto attach = [&](const std::string& name) {
    // Tier 6 exceeds the 5-tier limit and fails at attach time.
    const UsbTreeEntry entry{name,
                             "hub-" + std::to_string(rng.NextBelow(4)),
                             1 + static_cast<int>(rng.NextBelow(6)),
                             rng.NextBool(0.2)};
    last_attached[name] = entry;
    model.erase(name);  // not recognized until its new enumeration ends
    stack.OnDeviceAttached(entry);
  };

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.NextBelow(40);
    if (op < 16) {
      attach(random_name());
    } else if (op < 20) {
      // Over-limit burst: past the ~15-device quirk, and (accumulated)
      // past the 127-device bus limit.
      for (int i = 0; i < 24; ++i) attach(random_name());
    } else if (op < 26) {
      // Re-attach while the first enumeration is still in flight.
      const std::string name = random_name();
      attach(name);
      sim.RunFor(sim::Millis(static_cast<std::int64_t>(rng.NextBelow(800))));
      attach(name);
    } else if (op < 38) {
      const std::string name = random_name();
      model.erase(name);
      stack.OnDeviceDetached(name);
    } else if (op < 39) {
      model.clear();
      stack.Reset();
    }
    sim.RunFor(sim::Millis(static_cast<std::int64_t>(rng.NextBelow(2000))));

    ASSERT_EQ(stack.recognized_count(), static_cast<int>(model.size()))
        << "step " << step;
    std::vector<std::string> names;
    UsbTreeReport report;
    for (const auto& [name, entry] : model) {
      names.push_back(name);
      report.push_back(entry);
    }
    ASSERT_EQ(stack.RecognizedDevices(), names) << "step " << step;
    ASSERT_EQ(stack.TreeReport(), report) << "step " << step;
    for (int i = 0; i < kPool; ++i) {
      const std::string name = "dev-" + std::to_string(i);
      ASSERT_EQ(stack.IsRecognized(name), model.contains(name))
          << "step " << step << ", " << name;
    }
  }
  // The sequence reached every path it is meant to cover.
  EXPECT_GT(recognitions, 100);
  EXPECT_GT(failures, 100);
}

TEST_F(UsbHostStackTest, LinkParamDefaults) {
  UsbHostControllerParams p;
  EXPECT_DOUBLE_EQ(ToMBps(p.root_link.cap_per_direction), 300.0);
  EXPECT_DOUBLE_EQ(ToMBps(p.root_link.cap_duplex_total), 540.0);
  EXPECT_EQ(p.max_devices, 15);
  EXPECT_EQ(p.max_tiers, 5);
}

}  // namespace
}  // namespace ustore::hw
