#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/fabric_manager.h"
#include "sim/simulator.h"

namespace ustore::fabric {
namespace {

class FabricManagerTest : public ::testing::Test {
 protected:
  FabricManagerTest()
      : manager_(&sim_, BuildPrototypeFabric(), FabricManager::Options{},
                 Rng(7)) {}

  NodeIndex NodeNamed(const std::string& name) {
    auto r = manager_.topology().Find(name);
    EXPECT_TRUE(r.ok());
    return r.value_or(kInvalidNode);
  }

  sim::Simulator sim_;
  FabricManager manager_;
};

TEST_F(FabricManagerTest, InitialEnumerationAnnouncesAllDevices) {
  sim_.RunFor(sim::Seconds(10));
  for (int h = 0; h < 4; ++h) {
    // Each host sees mid hub + leaf hub + 4 disks = 6 devices.
    EXPECT_EQ(manager_.host_stack(h)->recognized_count(), 6) << "host " << h;
  }
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-15"), 3);
}

TEST_F(FabricManagerTest, DriveSwitchMovesDiskGroup) {
  sim_.RunFor(sim::Seconds(10));
  // Flip swl-0: leaf hub 0 (disks 0-3) moves from midhub-0 to midhub-1,
  // i.e. from host 0 to host 1.
  ASSERT_TRUE(manager_.DriveSwitch(0, NodeNamed("swl-0"), true).ok());
  sim_.RunFor(sim::Seconds(10));
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 1);
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-3"), 1);
  EXPECT_EQ(manager_.host_stack(0)->recognized_count(), 1);  // just midhub-0
  EXPECT_EQ(manager_.host_stack(1)->recognized_count(), 11);
}

TEST_F(FabricManagerTest, SwitchBackRestoresOriginal) {
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.DriveSwitch(0, NodeNamed("swl-0"), true).ok());
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.DriveSwitch(0, NodeNamed("swl-0"), false).ok());
  sim_.RunFor(sim::Seconds(10));
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, DiskPowerRelayCutsPowerAndVisibility) {
  sim_.RunFor(sim::Seconds(10));
  const NodeIndex d0 = NodeNamed("disk-0");
  ASSERT_TRUE(manager_.DriveDiskPower(0, d0, false).ok());
  sim_.RunFor(sim::Seconds(5));
  EXPECT_EQ(manager_.disk("disk-0")->state(), hw::DiskState::kPoweredOff);
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), -1);

  ASSERT_TRUE(manager_.DriveDiskPower(0, d0, true).ok());
  sim_.RunFor(sim::Seconds(10));
  EXPECT_EQ(manager_.disk("disk-0")->state(), hw::DiskState::kSpunDown);
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, HubPowerRelayHidesSubtree) {
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.DriveHubPower(0, NodeNamed("leafhub-0"), false).ok());
  sim_.RunFor(sim::Seconds(5));
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(manager_.VisibleHostOfDisk("disk-" + std::to_string(d)), -1);
  }
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-4"), 1);  // other groups fine
}

TEST_F(FabricManagerTest, SecondaryMcuTakeoverPreservesStateThenToggles) {
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.DriveSwitch(0, NodeNamed("swl-0"), true).ok());
  sim_.RunFor(sim::Seconds(10));
  ASSERT_EQ(manager_.VisibleHostOfDisk("disk-0"), 1);

  // Primary's host dies; power on the secondary. No glitch expected.
  manager_.mcu(1)->PowerOn();
  sim_.RunFor(sim::Seconds(5));
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 1);

  // Secondary can now steer the fabric.
  ASSERT_TRUE(manager_.DriveSwitch(1, NodeNamed("swl-0"), false).ok());
  sim_.RunFor(sim::Seconds(10));
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, CrashHostHidesItsDevicesUntilRestart) {
  sim_.RunFor(sim::Seconds(10));
  manager_.CrashHost(0);
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), -1);
  EXPECT_FALSE(manager_.host_alive(0));
  // Fabric-level routing is unchanged — only the OS view is gone.
  EXPECT_EQ(manager_.RoutedHostOfDisk(NodeNamed("disk-0")), 0);

  manager_.RestartHost(0);
  sim_.RunFor(sim::Seconds(10));
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, FailUnitTakesDiskOffline) {
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.FailUnit("disk-0").ok());
  EXPECT_TRUE(manager_.disk("disk-0")->failed());
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), -1);

  ASSERT_TRUE(manager_.RepairUnit("disk-0").ok());
  sim_.RunFor(sim::Seconds(20));
  EXPECT_FALSE(manager_.disk("disk-0")->failed());
  EXPECT_EQ(manager_.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, FailLeafHubTakesGroupOffline) {
  sim_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(manager_.FailUnit("leafhub-0").ok());
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(manager_.VisibleHostOfDisk("disk-" + std::to_string(d)), -1);
  }
}

TEST_F(FabricManagerTest, AttachLossQuirkRequiresPowerCycle) {
  sim::Simulator sim;
  FabricManager::Options options;
  options.attach_loss_probability = 1.0;  // always lose switch attaches
  FabricManager mgr(&sim, BuildPrototypeFabric(), options, Rng(7));
  sim.RunFor(sim::Seconds(10));

  const NodeIndex swl0 = mgr.topology().Find("swl-0").value();
  ASSERT_TRUE(mgr.DriveSwitch(0, swl0, true).ok());
  sim.RunFor(sim::Seconds(10));
  // The disks moved but were never recognized anywhere.
  EXPECT_EQ(mgr.VisibleHostOfDisk("disk-0"), -1);

  // Power-cycling the disk clears the stuck state.
  const NodeIndex d0 = mgr.topology().Find("disk-0").value();
  ASSERT_TRUE(mgr.DriveDiskPower(0, d0, false).ok());
  sim.RunFor(sim::Seconds(2));
  ASSERT_TRUE(mgr.DriveDiskPower(0, d0, true).ok());
  sim.RunFor(sim::Seconds(10));
  EXPECT_EQ(mgr.VisibleHostOfDisk("disk-0"), 1);
}

TEST_F(FabricManagerTest, HubPowerCycleHealsOnlyLostAttachesBeneathIt) {
  // §V-B quirk with a lossy, not certain, enumeration: a disk stuck under
  // leaf hub 0 stays stuck when a *different* leaf hub is power-cycled, and
  // heals when its own hub is.
  sim::Simulator sim;
  FabricManager::Options options;
  options.attach_loss_probability = 0.25;
  FabricManager mgr(&sim, BuildPrototypeFabric(), options, Rng(3));
  sim.RunFor(sim::Seconds(10));
  // Seed 3 loses disk-0's initial attach (leafhub-0 holds disks 0-3).
  ASSERT_EQ(mgr.VisibleHostOfDisk("disk-0"), -1);

  auto power_cycle = [&](const std::string& hub) {
    const NodeIndex node = mgr.topology().Find(hub).value();
    ASSERT_TRUE(mgr.DriveHubPower(0, node, false).ok());
    sim.RunFor(sim::Seconds(2));
    ASSERT_TRUE(mgr.DriveHubPower(0, node, true).ok());
    sim.RunFor(sim::Seconds(10));
  };
  power_cycle("leafhub-2");
  EXPECT_EQ(mgr.VisibleHostOfDisk("disk-0"), -1);
  power_cycle("leafhub-0");
  EXPECT_EQ(mgr.VisibleHostOfDisk("disk-0"), 0);
}

TEST_F(FabricManagerTest, HubPowerModelMatchesTableIV) {
  FabricManager::HubPowerModel model;
  EXPECT_NEAR(FabricManager::HubPower(model, 0), 0.21, 0.01);
  EXPECT_NEAR(FabricManager::HubPower(model, 1), 1.06, 0.01);
  EXPECT_NEAR(FabricManager::HubPower(model, 2), 1.26, 0.04);
  EXPECT_NEAR(FabricManager::HubPower(model, 3), 1.47, 0.04);
  EXPECT_NEAR(FabricManager::HubPower(model, 4), 1.67, 0.01);
}

TEST_F(FabricManagerTest, FabricPowerDropsWhenHubsPoweredOff) {
  sim_.RunFor(sim::Seconds(10));
  const Watts before = manager_.FabricPower();
  EXPECT_GT(before, 5.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        manager_.DriveHubPower(0, NodeNamed("leafhub-" + std::to_string(i)),
                               false).ok());
    ASSERT_TRUE(
        manager_.DriveHubPower(0, NodeNamed("midhub-" + std::to_string(i)),
                               false).ok());
  }
  sim_.RunFor(sim::Seconds(5));
  EXPECT_LT(manager_.FabricPower(), before * 0.3);
}

// The disk table is indexed by ordinal: by name and by node agree on every
// wiring disk, and any other node or name has no disk.
TEST_F(FabricManagerTest, DiskByNameAndByNodeAgree) {
  const Topology& t = manager_.topology();
  for (NodeIndex node : t.Disks()) {
    hw::Disk* by_node = manager_.disk(node);
    ASSERT_NE(by_node, nullptr) << t.node(node).name;
    EXPECT_EQ(by_node->name(), t.node(node).name);
    EXPECT_EQ(manager_.disk(t.node(node).name), by_node);
  }
  const NodeIndex not_disks[] = {NodeNamed("leafhub-0"), NodeNamed("swl-0"),
                                 NodeNamed("host-0:p0"), kInvalidNode,
                                 t.size()};
  for (NodeIndex node : not_disks) {
    EXPECT_EQ(manager_.disk(node), nullptr) << node;
    if (node >= 0 && node < t.size()) {
      EXPECT_EQ(manager_.disk(t.node(node).name), nullptr) << node;
    }
  }
  EXPECT_EQ(manager_.disk("no-such-disk"), nullptr);
}

// Every disk of the unit borrows the FabricManager's one model, built from
// Options::disk_params behind the USB bridge.
TEST_F(FabricManagerTest, EveryDiskBorrowsTheOneModel) {
  FabricManager::Options options;
  options.disk_params.capacity = TB(8);
  options.disk_params.spin_up_time = sim::Seconds(12);
  options.disk_params.power_idle = 5.5;
  FabricManager manager(&sim_, BuildPrototypeFabric(), options, Rng(7));
  const hw::DiskModel& model = manager.disk_model();
  for (NodeIndex node : manager.topology().Disks()) {
    ASSERT_NE(manager.disk(node), nullptr) << node;
    EXPECT_EQ(&manager.disk(node)->model(), &model) << node;
  }
  EXPECT_EQ(model.disk().capacity, options.disk_params.capacity);
  EXPECT_EQ(model.disk().spin_up_time, options.disk_params.spin_up_time);
  EXPECT_EQ(model.disk().power_idle, options.disk_params.power_idle);
  EXPECT_EQ(model.disk().rpm, options.disk_params.rpm);
  EXPECT_STREQ(model.iface().name, hw::UsbBridgeInterface().name);
  EXPECT_EQ(manager.disk("disk-0")->capacity(), TB(8));
}

// Control lines run switches, then disk relays, then hub relays, each in
// ordinal order.
TEST_F(FabricManagerTest, ControlLinesFollowKindThenOrdinal) {
  const Topology& t = manager_.topology();
  const std::vector<NodeIndex>& switch_nodes = t.NodesOfKind(NodeKind::kSwitch);
  const std::vector<NodeIndex>& hub_nodes = t.NodesOfKind(NodeKind::kHub);
  const int switches = static_cast<int>(switch_nodes.size());
  const int disks = static_cast<int>(t.Disks().size());
  ASSERT_EQ(manager_.bus().line_count(),
            switches + disks + static_cast<int>(hub_nodes.size()));
  auto only_high_line = [this] {
    int high = -1;
    for (int line = 0; line < manager_.bus().line_count(); ++line) {
      if (!manager_.bus().line(line)) continue;
      if (high >= 0) return -2;  // more than one line high
      high = line;
    }
    return high;
  };
  const NodeIndex sw = switch_nodes[3];
  ASSERT_TRUE(manager_.DriveSwitch(0, sw, true).ok());
  EXPECT_EQ(only_high_line(), 3);
  ASSERT_TRUE(manager_.DriveSwitch(0, sw, false).ok());
  ASSERT_TRUE(manager_.DriveDiskPower(0, t.Disks()[5], false).ok());
  EXPECT_EQ(only_high_line(), switches + 5);
  ASSERT_TRUE(manager_.DriveDiskPower(0, t.Disks()[5], true).ok());
  ASSERT_TRUE(manager_.DriveHubPower(0, hub_nodes[2], false).ok());
  EXPECT_EQ(only_high_line(), switches + disks + 2);
}

// Each Drive* wrapper rejects a node of another kind and leaves every bus
// line as it was.
TEST_F(FabricManagerTest, WrongKindIsRejectedWithoutTouchingTheBus) {
  auto lines = [this] {
    std::vector<bool> out;
    for (int line = 0; line < manager_.bus().line_count(); ++line) {
      out.push_back(manager_.bus().line(line));
    }
    return out;
  };
  const std::vector<bool> before = lines();
  EXPECT_EQ(manager_.DriveSwitch(0, NodeNamed("disk-0"), true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.DriveDiskPower(0, NodeNamed("leafhub-0"), false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.DriveHubPower(0, NodeNamed("swl-0"), false).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(manager_.DriveSwitch(0, kInvalidNode, true).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(lines(), before);
}

TEST_F(FabricManagerTest, DisksPowerReflectsStates) {
  sim_.RunFor(sim::Seconds(10));
  // 16 idle disks behind bridges: 16 * 5.76 W.
  EXPECT_NEAR(manager_.DisksPower(), 16 * 5.76, 0.5);
  for (int d = 0; d < 16; ++d) {
    manager_.disk("disk-" + std::to_string(d))->SpinDown();
  }
  EXPECT_NEAR(manager_.DisksPower(), 16 * 1.56, 0.5);
}

}  // namespace
}  // namespace ustore::fabric
