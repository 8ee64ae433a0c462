#include <gtest/gtest.h>

#include <set>

#include "fabric/builders.h"

namespace ustore::fabric {
namespace {

// --- Prototype (Fig. 2 right) ---------------------------------------------------

TEST(PrototypeFabricTest, StructureMatchesPaper) {
  BuiltFabric f = BuildPrototypeFabric();
  EXPECT_EQ(f.hosts.size(), 4u);
  const Topology& t = f.topology;
  EXPECT_EQ(t.Disks().size(), 16u);
  EXPECT_EQ(t.NodesOfKind(NodeKind::kHub).size(), 8u);     // 4 leaf + 4 mid
  EXPECT_EQ(t.NodesOfKind(NodeKind::kSwitch).size(), 8u);  // 4 leaf + 4 mid
  EXPECT_EQ(t.HostPorts().size(), 8u);                     // p0 + p1 per host
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
}

TEST(PrototypeFabricTest, DefaultRoutingIsBalanced) {
  BuiltFabric f = BuildPrototypeFabric();
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(f.DisksAttachedToHost(h).size(), 4u) << "host " << h;
  }
}

TEST(PrototypeFabricTest, DiskPathHasTwoHubsTwoSwitches) {
  // §VII-A: "The disk goes through two hubs, two switches and a bridge."
  BuiltFabric f = BuildPrototypeFabric();
  const auto path = f.topology.ActivePath(f.topology.Disks()[0]);
  int hubs = 0, switches = 0;
  for (NodeIndex i : path) {
    if (f.topology.node(i).kind == NodeKind::kHub) ++hubs;
    if (f.topology.node(i).kind == NodeKind::kSwitch) ++switches;
  }
  EXPECT_EQ(hubs, 2);
  EXPECT_EQ(switches, 2);
  EXPECT_EQ(f.topology.TierOf(f.topology.Disks()[0]), 2);
}

TEST(PrototypeFabricTest, EveryDiskCanReachMultipleHosts) {
  BuiltFabric f = BuildPrototypeFabric();
  for (NodeIndex disk : f.topology.Disks()) {
    std::set<int> hosts;
    for (NodeIndex port : f.topology.ReachableHostPorts(disk)) {
      hosts.insert(f.host_of_port.at(port));
    }
    EXPECT_GE(hosts.size(), 2u)
        << "disk " << f.topology.node(disk).name;
  }
}

TEST(PrototypeFabricTest, HostFailureLeavesAllDisksRoutable) {
  // Single host failure tolerance: after failing both ports of any host,
  // every disk still has a route to some live host.
  for (int dead = 0; dead < 4; ++dead) {
    BuiltFabric f = BuildPrototypeFabric();
    for (NodeIndex port : f.PortsOfHost(dead)) {
      f.topology.SetFailed(port, true);
    }
    for (NodeIndex disk : f.topology.Disks()) {
      EXPECT_FALSE(f.topology.ReachableHostPorts(disk).empty())
          << "disk " << f.topology.node(disk).name << " with host " << dead
          << " down";
    }
  }
}

TEST(PrototypeFabricTest, MidHubFailureIsTolerated) {
  BuiltFabric f = BuildPrototypeFabric();
  auto mid = f.topology.Find("midhub-0");
  ASSERT_TRUE(mid.ok());
  f.topology.SetFailed(*mid, true);
  for (NodeIndex disk : f.topology.Disks()) {
    EXPECT_FALSE(f.topology.ReachableHostPorts(disk).empty());
  }
}

TEST(PrototypeFabricTest, LeafHubFailureLosesOnlyItsDisks) {
  // The documented trade-off of the right-hand design (§IV-E).
  BuiltFabric f = BuildPrototypeFabric();
  auto leaf = f.topology.Find("leafhub-0");
  ASSERT_TRUE(leaf.ok());
  f.topology.SetFailed(*leaf, true);
  int unreachable = 0;
  for (NodeIndex disk : f.topology.Disks()) {
    if (f.topology.ReachableHostPorts(disk).empty()) ++unreachable;
  }
  EXPECT_EQ(unreachable, 4);
}

TEST(PrototypeFabricTest, FailoverKeepsDeviceCountUnderQuirkLimit) {
  // After a host failure, the adopting host sees at most 12 devices
  // (2 mid hubs + 2 leaf hubs + 8 disks) — below the 15-device limit.
  BuiltFabric f = BuildPrototypeFabric();
  // Move group 0 to host 1's backup port: flip swm-0.
  auto swm0 = f.topology.Find("swm-0");
  ASSERT_TRUE(swm0.ok());
  f.topology.SetSwitch(*swm0, true);
  // All of group 0 now lands on host 1.
  EXPECT_EQ(f.DisksAttachedToHost(1).size(), 8u);
  int devices_on_host1 = 0;
  for (NodeIndex i = 0; i < f.topology.size(); ++i) {
    const NodeKind kind = f.topology.node(i).kind;
    if (kind != NodeKind::kHub && kind != NodeKind::kDisk) continue;
    const NodeIndex port = f.topology.AttachedHostPort(i);
    if (port != kInvalidNode && f.host_of_port.at(port) == 1) {
      ++devices_on_host1;
    }
  }
  EXPECT_EQ(devices_on_host1, 12);
  EXPECT_LE(devices_on_host1, 15);
}

TEST(PrototypeFabricTest, ScalesToLargerGroups) {
  BuiltFabric f = BuildPrototypeFabric({.groups = 8, .disks_per_leaf = 4});
  EXPECT_EQ(f.topology.Disks().size(), 32u);
  EXPECT_EQ(f.hosts.size(), 8u);
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
  for (int h = 0; h < 8; ++h) {
    EXPECT_EQ(f.DisksAttachedToHost(h).size(), 4u);
  }
}

// --- Leaf-switched (Fig. 2 left) ---------------------------------------------------

TEST(LeafSwitchedFabricTest, Structure) {
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = 16});
  EXPECT_EQ(f.hosts.size(), 2u);
  const Topology& t = f.topology;
  EXPECT_EQ(t.Disks().size(), 16u);
  EXPECT_EQ(t.NodesOfKind(NodeKind::kSwitch).size(), 16u);  // one per disk
  EXPECT_EQ(t.NodesOfKind(NodeKind::kHub).size(), 10u);    // 5 per tree
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
}

TEST(LeafSwitchedFabricTest, DefaultAllOnHostZero) {
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = 16});
  EXPECT_EQ(f.DisksAttachedToHost(0).size(), 16u);
}

TEST(LeafSwitchedFabricTest, AnySingleHubFailureTolerated) {
  // The paper's claim for the left design: "can tolerate not only failures
  // of a single host, but also any single failure of the hubs."
  BuiltFabric base = BuildLeafSwitchedFabric({.disks = 16});
  for (NodeIndex hub : base.topology.NodesOfKind(NodeKind::kHub)) {
    BuiltFabric f = BuildLeafSwitchedFabric({.disks = 16});
    f.topology.SetFailed(hub, true);
    for (NodeIndex disk : f.topology.Disks()) {
      EXPECT_FALSE(f.topology.ReachableHostPorts(disk).empty())
          << "hub " << f.topology.node(hub).name;
    }
  }
}

TEST(LeafSwitchedFabricTest, IndividualDiskSwitching) {
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = 16});
  // Move just disk 5 to host 1.
  auto sw = f.topology.Find("swd-5");
  ASSERT_TRUE(sw.ok());
  f.topology.SetSwitch(*sw, true);
  EXPECT_EQ(f.DisksAttachedToHost(0).size(), 15u);
  EXPECT_EQ(f.DisksAttachedToHost(1).size(), 1u);
}

TEST(LeafSwitchedFabricTest, OddDiskCounts) {
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = 7});
  EXPECT_EQ(f.topology.Disks().size(), 7u);
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
  EXPECT_EQ(f.DisksAttachedToHost(0).size(), 7u);
}

// --- Single-host tree --------------------------------------------------------------

TEST(SingleHostTreeTest, TwelveDisksStayWithinDeviceLimit) {
  BuiltFabric f = BuildSingleHostTree({.disks = 12});
  const std::size_t hubs = f.topology.NodesOfKind(NodeKind::kHub).size();
  EXPECT_EQ(hubs, 3u);
  EXPECT_EQ(f.topology.Disks().size() + hubs, 15u);  // the §V-B boundary
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
  EXPECT_EQ(f.DisksAttachedToHost(0).size(), 12u);
}

TEST(SingleHostTreeTest, NoSwitchesNoFaultTolerance) {
  BuiltFabric f = BuildSingleHostTree({.disks = 8});
  EXPECT_TRUE(f.topology.NodesOfKind(NodeKind::kSwitch).empty());
  auto hub = f.topology.Find("hub-0");
  ASSERT_TRUE(hub.ok());
  f.topology.SetFailed(*hub, true);
  int unreachable = 0;
  for (NodeIndex disk : f.topology.Disks()) {
    if (f.topology.ReachableHostPorts(disk).empty()) ++unreachable;
  }
  EXPECT_EQ(unreachable, 4);
}

// --- Node ordinals ---------------------------------------------------------------------

// Every node's ordinal indexes its kind's list in the built fabric, for all
// three builders: the FabricManager's disk table and control lines and the
// Master's disk handles are addressed by it.
TEST(NodeOrdinalTest, OrdinalIndexesTheKindListForEveryBuilder) {
  const BuiltFabric fabrics[] = {
      BuildPrototypeFabric({.groups = 3, .leaf_hubs_per_group = 2}),
      BuildLeafSwitchedFabric({.disks = 10}),
      BuildSingleHostTree({.disks = 9}),
  };
  for (const BuiltFabric& f : fabrics) {
    for (NodeIndex i = 0; i < f.topology.size(); ++i) {
      const Node& node = f.topology.node(i);
      const std::vector<NodeIndex>& of_kind =
          f.topology.NodesOfKind(node.kind);
      ASSERT_GE(node.ordinal, 0) << node.name;
      ASSERT_LT(node.ordinal, static_cast<int>(of_kind.size())) << node.name;
      EXPECT_EQ(of_kind[static_cast<std::size_t>(node.ordinal)], i)
          << node.name;
    }
  }
}

// --- BOM ----------------------------------------------------------------------------

TEST(BomTest, CountsComponents) {
  FabricBom bom = CountBom(BuildPrototypeFabric());
  EXPECT_EQ(bom.hubs, 8);
  EXPECT_EQ(bom.switches, 8);
  EXPECT_EQ(bom.bridges, 16);
  EXPECT_EQ(bom.host_ports, 8);
}

TEST(BomTest, RightDesignCheaperThanLeft) {
  // The point of Fig. 2 right: fewer switches for the same disks.
  FabricBom right = CountBom(BuildPrototypeFabric());
  FabricBom left = CountBom(BuildLeafSwitchedFabric({.disks = 16}));
  EXPECT_LT(right.switches, left.switches);
}

}  // namespace
}  // namespace ustore::fabric
