#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "hw/disk.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::hw {
namespace {

class DiskTest : public ::testing::Test {
 protected:
  DiskTest() : disk_(&sim_, "d0", &model_) {}

  Status SubmitAndRun(const IoRequest& req) {
    Status out = InternalError("never completed");
    disk_.SubmitIo(req, [&](Status s) { out = s; });
    sim_.Run();
    return out;
  }

  sim::Simulator sim_;
  const DiskModel model_{DiskParams{}, SataInterface()};
  Disk disk_;
};

TEST_F(DiskTest, StartsIdle) {
  EXPECT_EQ(disk_.state(), DiskState::kIdle);
  EXPECT_EQ(disk_.capacity(), TB(3));
}

TEST_F(DiskTest, CompletesReadAtModelledServiceTime) {
  IoRequest req{KiB(4), IoDirection::kRead, AccessPattern::kSequential};
  EXPECT_TRUE(SubmitAndRun(req).ok());
  const sim::Duration expected =
      disk_.model().ServiceTime(req, IoDirection::kRead);
  EXPECT_EQ(sim_.now(), expected);
  EXPECT_EQ(disk_.ios_completed(), 1u);
  EXPECT_EQ(disk_.bytes_read(), KiB(4));
}

TEST_F(DiskTest, QueueServicesFifo) {
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                   [&, i](Status s) {
                     EXPECT_TRUE(s.ok());
                     order.push_back(i);
                   });
  }
  EXPECT_EQ(disk_.queue_depth(), 5u);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(disk_.ios_completed(), 5u);
}

TEST_F(DiskTest, ActiveWhileServing) {
  disk_.SubmitIo({MiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [](Status) {});
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(disk_.state(), DiskState::kActive);
  sim_.Run();
  EXPECT_EQ(disk_.state(), DiskState::kIdle);
}

TEST_F(DiskTest, SpinDownAndImplicitSpinUp) {
  disk_.SpinDown();
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);

  Status status = InternalError("pending");
  disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [&](Status s) { status = s; });
  EXPECT_EQ(disk_.state(), DiskState::kSpinningUp);
  sim_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_GE(sim_.now(), DiskParams{}.spin_up_time);
  EXPECT_EQ(disk_.spin_cycles(), 1);
}

TEST_F(DiskTest, PowerOffFailsIo) {
  disk_.PowerOff();
  EXPECT_EQ(disk_.state(), DiskState::kPoweredOff);
  Status s = SubmitAndRun({KiB(4), IoDirection::kRead,
                           AccessPattern::kSequential});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST_F(DiskTest, PowerOffMidIoFailsInFlight) {
  Status status;
  disk_.SubmitIo({MiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [&](Status s) { status = s; });
  sim_.Schedule(sim::Millis(1), [&] { disk_.PowerOff(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(DiskTest, PowerOnLeavesSpunDown) {
  disk_.PowerOff();
  disk_.PowerOn();
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);  // rolling spin-up support
}

TEST_F(DiskTest, FailAndRepair) {
  disk_.Fail();
  EXPECT_TRUE(disk_.failed());
  Status s = SubmitAndRun({KiB(4), IoDirection::kRead,
                           AccessPattern::kSequential});
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);

  disk_.Repair();
  EXPECT_FALSE(disk_.failed());
  disk_.SpinUp();
  sim_.Run();
  s = SubmitAndRun({KiB(4), IoDirection::kRead, AccessPattern::kSequential});
  EXPECT_TRUE(s.ok());
}

TEST_F(DiskTest, IdleTimeoutSpinsDown) {
  disk_.SetIdleSpinDown(sim::Seconds(10));
  EXPECT_TRUE(SubmitAndRun({KiB(4), IoDirection::kRead,
                            AccessPattern::kSequential}).ok());
  sim_.RunFor(sim::Seconds(11));
  EXPECT_EQ(disk_.state(), DiskState::kSpunDown);
}

TEST_F(DiskTest, FrequentSpinCyclesBackOffTimeout) {
  disk_.SetIdleSpinDown(sim::Seconds(10));
  const sim::Duration initial = disk_.effective_idle_timeout();
  // Ping the disk immediately after each spin-down, several times: cycles
  // arrive faster than 4x the idle timeout, so the host backs off.
  for (int i = 0; i < 3; ++i) {
    for (int step = 0; step < 10000 && disk_.state() != DiskState::kSpunDown;
         ++step) {
      sim_.RunFor(sim::Seconds(1));
    }
    ASSERT_EQ(disk_.state(), DiskState::kSpunDown);
    Status status;
    disk_.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                   [&](Status s) { status = s; });
    sim_.Run();
    EXPECT_TRUE(status.ok());
  }
  EXPECT_GT(disk_.effective_idle_timeout(), initial);
}

TEST_F(DiskTest, PowerByState) {
  const DiskParams p;
  EXPECT_DOUBLE_EQ(disk_.current_power(), p.power_idle);
  disk_.SpinDown();
  EXPECT_DOUBLE_EQ(disk_.current_power(), p.power_spun_down);
  disk_.PowerOff();
  EXPECT_DOUBLE_EQ(disk_.current_power(), 0.0);
}

TEST_F(DiskTest, UsbBridgePowerAddsToDiskPower) {
  const DiskModel usb(DiskParams{}, UsbBridgeInterface());
  Disk usb_disk(&sim_, "d1", &usb);
  const DiskParams p;
  const InterfaceParams i = UsbBridgeInterface();
  // Table III USB row: idle 5.76 W.
  EXPECT_NEAR(usb_disk.current_power(), p.power_idle + i.power_idle, 1e-9);
  EXPECT_NEAR(usb_disk.current_power(), 5.76, 0.01);
  usb_disk.SpinDown();
  EXPECT_NEAR(usb_disk.current_power(), 1.56, 0.01);
}

TEST_F(DiskTest, FingerprintRoundTrip) {
  disk_.WriteFingerprint(0, 0xABCD);
  disk_.WriteFingerprint(KiB(4), 0x1234);
  EXPECT_EQ(disk_.ReadFingerprint(0), 0xABCDu);
  EXPECT_EQ(disk_.ReadFingerprint(100), 0xABCDu);  // same 4 KiB block
  EXPECT_EQ(disk_.ReadFingerprint(KiB(4)), 0x1234u);
  EXPECT_EQ(disk_.ReadFingerprint(MiB(1)), 0u);  // never written
}

TEST_F(DiskTest, MixedStreamSlowerThanPureStream) {
  // Direction switches should show up in actual queue service, not just the
  // analytic model: alternate read/write vs all-read.
  sim::Time pure_done, mixed_done;
  {
    sim::Simulator sim;
    Disk d(&sim, "p", &model_);
    for (int i = 0; i < 20; ++i) {
      d.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                 [](Status) {});
    }
    sim.Run();
    pure_done = sim.now();
  }
  {
    sim::Simulator sim;
    Disk d(&sim, "m", &model_);
    for (int i = 0; i < 20; ++i) {
      d.SubmitIo({KiB(4),
                  i % 2 == 0 ? IoDirection::kRead : IoDirection::kWrite,
                  AccessPattern::kSequential},
                 [](Status) {});
    }
    sim.Run();
    mixed_done = sim.now();
  }
  EXPECT_GT(mixed_done, pure_done);
}

// A spin-up cut short by PowerOff or Fail never reaches FinishSpinUp: its
// span must still close, with the interruption as its outcome, and a disk
// failed mid-spin-up must not keep drawing the spin-up surge.
TEST(DiskSpinUpTest, InterruptedSpinUpClosesItsSpanAndDropsTheSurge) {
  const DiskModel model(DiskParams{}, SataInterface());
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace(64);
  obs::ScopedObsBinding bind(&metrics, &trace);
  sim::Simulator sim;
  Disk off(&sim, "off", &model);
  Disk failed(&sim, "failed", &model);
  Disk queued(&sim, "queued", &model);
  off.SpinDown();
  failed.SpinDown();
  queued.SpinDown();
  off.SpinUp();
  failed.SpinUp();
  Status queued_status = InternalError("pending");
  queued.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                  [&](Status s) { queued_status = s; });  // implicit spin-up
  ASSERT_EQ(failed.state(), DiskState::kSpinningUp);
  ASSERT_EQ(queued.state(), DiskState::kSpinningUp);

  sim.RunFor(DiskParams{}.spin_up_time / 2);
  off.PowerOff();
  failed.Fail();
  queued.PowerOff();
  EXPECT_EQ(queued_status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(trace.open_count(), 0u);
  std::map<std::string, std::string> outcome;  // by component
  for (const obs::TraceSpan& span : trace.CompletedInOrder()) {
    if (span.name != "spin_up") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "outcome") outcome[span.component] = value;
    }
  }
  EXPECT_EQ(outcome, (std::map<std::string, std::string>{
                         {"disk:failed", "failed"},
                         {"disk:off", "powered-off"},
                         {"disk:queued", "powered-off"}}));

  EXPECT_EQ(failed.state(), DiskState::kSpunDown);
  EXPECT_DOUBLE_EQ(failed.current_power(), DiskParams{}.power_spun_down);
  sim.Run();  // the stopped spin timer must not revive the failed disk
  EXPECT_EQ(failed.state(), DiskState::kSpunDown);

  failed.Repair();
  failed.SpinUp();
  sim.Run();
  EXPECT_EQ(failed.state(), DiskState::kIdle);
  Status status = InternalError("pending");
  failed.SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                  [&](Status s) { status = s; });
  sim.Run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(failed.ios_completed(), 1u);
}

// hw::Disk's metric handles are one set per thread, not per disk; they must
// follow the thread's obs binding exactly as per-disk handles did.
std::uint64_t OpCount(obs::MetricsRegistry& registry) {
  return registry.GetCounter("disk.op.count").value();
}

void ReadOnEach(sim::Simulator& sim, const std::vector<Disk*>& disks) {
  for (Disk* disk : disks) {
    disk->SubmitIo({KiB(4), IoDirection::kRead, AccessPattern::kSequential},
                   [](Status s) { EXPECT_TRUE(s.ok()) << s.ToString(); });
  }
  sim.Run();
}

TEST(DiskMetricHandlesTest, FollowNestedBindings) {
  const DiskModel model(DiskParams{}, SataInterface());
  obs::MetricsRegistry outer;
  obs::MetricsRegistry inner;
  obs::TraceBuffer outer_trace(64);
  obs::TraceBuffer inner_trace(64);
  sim::Simulator sim;
  obs::ScopedObsBinding bind_outer(&outer, &outer_trace);
  Disk a(&sim, "a", &model);
  Disk b(&sim, "b", &model);

  ReadOnEach(sim, {&a, &b});  // two disks, one registry entry
  EXPECT_EQ(OpCount(outer), 2u);
  EXPECT_EQ(outer.GetHistogram("disk.op.service_time_us").count(), 2u);
  {
    obs::ScopedObsBinding bind_inner(&inner, &inner_trace);
    ReadOnEach(sim, {&a, &b});
    EXPECT_EQ(OpCount(inner), 2u);
    EXPECT_EQ(inner.GetHistogram("disk.op.service_time_us").count(), 2u);
    EXPECT_EQ(OpCount(outer), 2u);
  }
  ReadOnEach(sim, {&b});
  EXPECT_EQ(OpCount(outer), 3u);
  EXPECT_EQ(outer.GetHistogram("disk.op.service_time_us").count(), 3u);
  EXPECT_EQ(OpCount(inner), 2u);
}

TEST(DiskMetricHandlesTest, ASecondThreadRecordsOnlyUnderItsOwnBinding) {
  const DiskModel model(DiskParams{}, SataInterface());
  obs::MetricsRegistry main_metrics;
  obs::MetricsRegistry worker_metrics;
  obs::TraceBuffer main_trace(64);
  obs::TraceBuffer worker_trace(64);
  obs::ScopedObsBinding bind(&main_metrics, &main_trace);
  sim::Simulator sim;
  Disk disk(&sim, "main", &model);
  ReadOnEach(sim, {&disk});  // this thread's handles resolve first

  // Both threads drive disks of one model at once, each under its own
  // binding.
  std::thread worker([&] {
    obs::ScopedObsBinding worker_bind(&worker_metrics, &worker_trace);
    sim::Simulator worker_sim;
    Disk a(&worker_sim, "wa", &model);
    Disk b(&worker_sim, "wb", &model);
    for (int i = 0; i < 3; ++i) ReadOnEach(worker_sim, {&a, &b});
  });
  for (int i = 0; i < 3; ++i) ReadOnEach(sim, {&disk});
  worker.join();

  EXPECT_EQ(OpCount(worker_metrics), 6u);
  EXPECT_EQ(OpCount(main_metrics), 4u);
}

}  // namespace
}  // namespace ustore::hw
