// Tests for the paper's optional rolling spin-up (§III-B), plus ClientLib
// edge cases around remounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/cluster.h"
#include "core/power_sequencer.h"

namespace ustore::core {
namespace {

// --- PowerSequencer -----------------------------------------------------------

class PowerSequencerTest : public ::testing::Test {
 protected:
  PowerSequencerTest() {
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    manager_ = std::make_unique<fabric::FabricManager>(
        &sim_, fabric::BuildPrototypeFabric(), options, Rng(3));
    sim_.RunFor(sim::Seconds(1));
  }

  sim::Simulator sim_;
  std::unique_ptr<fabric::FabricManager> manager_;
};

int SpinningUp(fabric::FabricManager& manager) {
  int n = 0;
  for (fabric::NodeIndex node : manager.topology().Disks()) {
    if (manager.disk(node)->state() == hw::DiskState::kSpinningUp) ++n;
  }
  return n;
}

TEST_F(PowerSequencerTest, ColdUnitStartsPoweredOff) {
  for (fabric::NodeIndex node : manager_->topology().Disks()) {
    EXPECT_EQ(manager_->disk(node)->state(), hw::DiskState::kPoweredOff);
  }
  EXPECT_NEAR(manager_->DisksPower(), 0.0, 0.01);
}

TEST_F(PowerSequencerTest, RollingBringsEveryDiskUp) {
  PowerSequencer sequencer(&sim_, manager_.get(), 0, {.max_concurrent_spinups = 4});
  Status status = InternalError("pending");
  sequencer.PowerOnAll([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(120));
  ASSERT_TRUE(status.ok()) << status;
  for (fabric::NodeIndex node : manager_->topology().Disks()) {
    EXPECT_EQ(manager_->disk(node)->state(), hw::DiskState::kIdle);
  }
}

TEST_F(PowerSequencerTest, RollingBoundsPeakPower) {
  PowerSequencer rolling(&sim_, manager_.get(), 0,
                         {.max_concurrent_spinups = 2});
  Status status = InternalError("pending");
  rolling.PowerOnAll([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(200));
  ASSERT_TRUE(status.ok());
  // Peak must stay well under stacking all 16 surges (~25 W each incl.
  // bridge); 2 concurrent surges + idle tail.
  EXPECT_LT(rolling.peak_power(), 200.0);
  EXPECT_GT(rolling.peak_power(), 2 * 20.0);
}

TEST_F(PowerSequencerTest, AllAtOnceStacksSurges) {
  PowerSequencer at_once(&sim_, manager_.get(), 0, {});
  Status status = InternalError("pending");
  at_once.PowerOnAllAtOnce([&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(60));
  ASSERT_TRUE(status.ok());
  EXPECT_GT(at_once.peak_power(), 16 * 20.0);
}

TEST_F(PowerSequencerTest, RollingIsSlowerThanAllAtOnce) {
  sim::Time rolling_done = 0, at_once_done = 0;
  {
    sim::Simulator sim;
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0,
                             {.max_concurrent_spinups = 2});
    bool done = false;
    sequencer.PowerOnAll([&](Status) { done = true; });
    while (!done) sim.RunFor(sim::Seconds(1));
    rolling_done = sim.now();
  }
  {
    sim::Simulator sim;
    fabric::FabricManager::Options options;
    options.disks_start_powered = false;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0, {});
    bool done = false;
    sequencer.PowerOnAllAtOnce([&](Status) { done = true; });
    while (!done) sim.RunFor(sim::Seconds(1));
    at_once_done = sim.now();
  }
  EXPECT_GT(rolling_done, at_once_done);
}

// Both sequences are paced by the unit's own spin-up time, not the default
// disk's: with a 12 s spin-up, rolling waves of two never overlap, and the
// all-at-once sequence reports done only once every platter is up.
TEST_F(PowerSequencerTest, PacesByTheUnitsSpinUpTime) {
  fabric::FabricManager::Options options;
  options.disks_start_powered = false;
  options.disk_params.spin_up_time = sim::Seconds(12);
  {
    sim::Simulator sim;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0,
                             {.max_concurrent_spinups = 2});
    bool done = false;
    sequencer.PowerOnAll([&](Status s) {
      EXPECT_TRUE(s.ok()) << s;
      done = true;
    });
    int peak = 0;
    while (!done) {
      sim.RunFor(sim::MillisD(100));
      peak = std::max(peak, SpinningUp(manager));
    }
    EXPECT_EQ(peak, 2);
    EXPECT_EQ(SpinningUp(manager), 0);
  }
  {
    sim::Simulator sim;
    fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                  options, Rng(3));
    sim.RunFor(sim::Seconds(1));
    PowerSequencer sequencer(&sim, &manager, 0, {});
    int spinning_at_done = -1;
    sequencer.PowerOnAllAtOnce([&](Status s) {
      EXPECT_TRUE(s.ok()) << s;
      spinning_at_done = SpinningUp(manager);
    });
    sim.RunFor(sim::Seconds(60));
    EXPECT_EQ(spinning_at_done, 0);
  }
}

// --- ClientLib edges ------------------------------------------------------------------

class ClientLibEdgeTest : public ::testing::Test {
 protected:
  ClientLibEdgeTest() {
    cluster_.Start();
    client_ = cluster_.MakeClient("edge-client");
    source_ = Allocate("svc-src", 1);
  }

  ClientLib::Volume* Allocate(const std::string& service, int locality) {
    auto client = cluster_.MakeClient(service + "-owner", locality);
    ClientLib::Volume* volume = nullptr;
    client->AllocateAndMount(service, GiB(4),
                             [&](Result<ClientLib::Volume*> r) {
                               if (r.ok()) volume = *r;
                             });
    cluster_.RunFor(sim::Seconds(10));
    owners_.push_back(std::move(client));
    return volume;
  }

  core::Cluster cluster_;
  std::unique_ptr<ClientLib> client_;
  std::vector<std::unique_ptr<ClientLib>> owners_;
  ClientLib::Volume* source_ = nullptr;
};

TEST_F(ClientLibEdgeTest, MountUnknownSpaceFails) {
  AllocatedSpace ghost;
  ghost.id = SpaceId{0, "disk-0", 999};
  ghost.host = "host-0";
  ghost.length = GiB(1);
  Result<ClientLib::Volume*> result = InternalError("pending");
  client_->Mount(ghost, [&](Result<ClientLib::Volume*> r) { result = r; });
  cluster_.RunFor(sim::Seconds(5));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client_->volume(ghost.id), nullptr);
}

TEST_F(ClientLibEdgeTest, UnmountForgetsVolume) {
  ASSERT_NE(source_, nullptr);
  // source_ was mounted by its owner, not client_; mount here too.
  Result<ClientLib::Volume*> mine = InternalError("pending");
  client_->Mount(source_->space(),
                 [&](Result<ClientLib::Volume*> r) { mine = r; });
  cluster_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(mine.ok());
  const SpaceId id = (*mine)->id();
  EXPECT_NE(client_->volume(id), nullptr);
  client_->Unmount(id);
  EXPECT_EQ(client_->volume(id), nullptr);
}

}  // namespace
}  // namespace ustore::core
