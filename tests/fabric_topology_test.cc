#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "fabric/builders.h"
#include "fabric/topology.h"

namespace ustore::fabric {
namespace {

// A tiny hand-built fabric: two hosts, one hub each, one disk switchable
// between them.
//
//   host-a:p0     host-b:p0
//      |             |
//    hub-a         hub-b
//        \         /
//         sw (2:1)
//          |
//        disk-0
class TinyFabricTest : public ::testing::Test {
 protected:
  TinyFabricTest() {
    host_a_ = t_.AddHostPort("host-a:p0");
    host_b_ = t_.AddHostPort("host-b:p0");
    hub_a_ = t_.AddHub("hub-a", host_a_);
    hub_b_ = t_.AddHub("hub-b", host_b_);
    sw_ = t_.AddSwitch("sw", hub_a_, hub_b_);
    disk_ = t_.AddDisk("disk-0", sw_);
  }

  Topology t_;
  NodeIndex host_a_, host_b_, hub_a_, hub_b_, sw_, disk_;
};

TEST_F(TinyFabricTest, Validates) {
  EXPECT_TRUE(t_.Validate(kDefaultHubFanIn).ok());
}

TEST_F(TinyFabricTest, DefaultAttachesToPrimary) {
  EXPECT_EQ(t_.AttachedHostPort(disk_), host_a_);
}

TEST_F(TinyFabricTest, SwitchingMovesAttachment) {
  t_.SetSwitch(sw_, true);
  EXPECT_EQ(t_.AttachedHostPort(disk_), host_b_);
  t_.SetSwitch(sw_, false);
  EXPECT_EQ(t_.AttachedHostPort(disk_), host_a_);
}

TEST_F(TinyFabricTest, ActivePathListsComponentsInOrder) {
  auto path = t_.ActivePath(disk_);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[0], disk_);
  EXPECT_EQ(path[1], sw_);
  EXPECT_EQ(path[2], hub_a_);
  EXPECT_EQ(path[3], host_a_);
}

TEST_F(TinyFabricTest, FailedHubBreaksPath) {
  t_.SetFailed(hub_a_, true);
  EXPECT_EQ(t_.AttachedHostPort(disk_), kInvalidNode);
  EXPECT_TRUE(t_.ActivePath(disk_).empty());
  // But the other tree is still reachable by switching.
  t_.SetSwitch(sw_, true);
  EXPECT_EQ(t_.AttachedHostPort(disk_), host_b_);
}

TEST_F(TinyFabricTest, UnpoweredDiskDetaches) {
  t_.SetPowered(disk_, false);
  EXPECT_EQ(t_.AttachedHostPort(disk_), kInvalidNode);
}

TEST_F(TinyFabricTest, RouteToFindsSwitchSettings) {
  auto route = t_.RouteTo(disk_, host_b_);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->size(), 1u);
  EXPECT_EQ((*route)[0], (SwitchSetting{sw_, true}));

  route = t_.RouteTo(disk_, host_a_);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ((*route)[0], (SwitchSetting{sw_, false}));
}

TEST_F(TinyFabricTest, RouteToFailsThroughFailedComponents) {
  t_.SetFailed(hub_b_, true);
  auto route = t_.RouteTo(disk_, host_b_);
  EXPECT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST_F(TinyFabricTest, RouteToFailedDiskIsUnavailable) {
  t_.SetFailed(disk_, true);
  auto route = t_.RouteTo(disk_, host_a_);
  EXPECT_EQ(route.status().code(), StatusCode::kUnavailable);
}

TEST_F(TinyFabricTest, ReachableHostPorts) {
  auto hosts = t_.ReachableHostPorts(disk_);
  EXPECT_EQ(hosts.size(), 2u);
  t_.SetFailed(hub_b_, true);
  hosts = t_.ReachableHostPorts(disk_);
  ASSERT_EQ(hosts.size(), 1u);
  EXPECT_EQ(hosts[0], host_a_);
}

TEST_F(TinyFabricTest, TierAndUsbParent) {
  EXPECT_EQ(t_.TierOf(disk_), 1);  // one hub above it
  EXPECT_EQ(t_.UsbParentOf(disk_), hub_a_);  // the switch is invisible
  t_.SetSwitch(sw_, true);
  EXPECT_EQ(t_.UsbParentOf(disk_), hub_b_);
}

TEST_F(TinyFabricTest, FailureUnits) {
  // The disk's unit includes the switch below... above it (its uplink
  // switch); the switch's unit includes the disk.
  auto disk_unit = t_.FailureUnitOf(disk_);
  EXPECT_NE(std::find(disk_unit.begin(), disk_unit.end(), sw_),
            disk_unit.end());
  auto switch_unit = t_.FailureUnitOf(sw_);
  EXPECT_NE(std::find(switch_unit.begin(), switch_unit.end(), disk_),
            switch_unit.end());
}

TEST_F(TinyFabricTest, FindByName) {
  auto found = t_.Find("disk-0");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, disk_);
  EXPECT_EQ(t_.Find("nonexistent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t_.Find("").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(Topology().Find("disk-0").status().code(), StatusCode::kNotFound);
}

// --- Name index --------------------------------------------------------------

TEST_F(TinyFabricTest, FindReturnsTheFirstOfDuplicateNames) {
  const NodeIndex second = t_.AddDisk("disk-0", hub_b_);
  EXPECT_NE(second, disk_);
  EXPECT_EQ(t_.Find("disk-0").value_or(kInvalidNode), disk_);
}

TEST_F(TinyFabricTest, AddOnACopyLeavesTheOriginalUnchanged) {
  // Copies share the wiring but not the state: switch, fail and power
  // settings on either side leave the other's state, generation and active
  // paths alone. Both path caches are warm before anything changes.
  const std::vector<NodeIndex> via_a = t_.ActivePath(disk_);
  const std::vector<NodeIndex> via_b{disk_, sw_, hub_b_, host_b_};
  for (const bool copy_moves : {true, false}) {
    Topology copy = t_;
    Topology& moved = copy_moves ? copy : t_;
    const Topology& still = copy_moves ? t_ : copy;
    ASSERT_EQ(copy.ActivePath(disk_), via_a);
    const std::uint64_t generation = still.generation();
    moved.SetSwitch(sw_, true);
    moved.SetFailed(hub_a_, true);
    moved.SetPowered(host_a_, false);

    EXPECT_TRUE(moved.selected(sw_));
    EXPECT_TRUE(moved.failed(hub_a_));
    EXPECT_FALSE(moved.powered(host_a_));
    EXPECT_GT(moved.generation(), generation);
    EXPECT_EQ(moved.ActivePath(disk_), via_b);

    EXPECT_FALSE(still.selected(sw_)) << "copy_moves=" << copy_moves;
    EXPECT_FALSE(still.failed(hub_a_));
    EXPECT_TRUE(still.powered(host_a_));
    EXPECT_EQ(still.generation(), generation);
    EXPECT_EQ(still.ActivePath(disk_), via_a);
  }

  const int size = t_.size();
  Topology copy = t_;
  const NodeIndex added = copy.AddDisk("disk-1", hub_b_);
  EXPECT_EQ(copy.Find("disk-1").value_or(kInvalidNode), added);
  EXPECT_TRUE(copy.powered(added));
  EXPECT_EQ(copy.Disks(), (std::vector<NodeIndex>{disk_, added}));
  EXPECT_EQ(t_.Find("disk-1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t_.size(), size);
  EXPECT_EQ(t_.Disks(), std::vector<NodeIndex>{disk_});

  // Growing the original afterwards leaves the copy alone in turn, even
  // though both now hold a node at the same index.
  const NodeIndex other = t_.AddDisk("disk-2", hub_a_);
  EXPECT_EQ(other, added);
  EXPECT_EQ(t_.Find("disk-2").value_or(kInvalidNode), other);
  EXPECT_EQ(copy.Find("disk-2").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t_.Find("disk-1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t_.Find("disk-0").value_or(kInvalidNode), disk_);
  EXPECT_EQ(copy.Find("disk-0").value_or(kInvalidNode), disk_);
  EXPECT_EQ(t_.node(other).name, "disk-2");
  EXPECT_EQ(copy.node(added).name, "disk-1");
  EXPECT_EQ(copy.size(), t_.size());
  EXPECT_EQ(copy.NodesOfKind(NodeKind::kHub),
            (std::vector<NodeIndex>{hub_a_, hub_b_}));
}

TEST(TopologyNameIndexTest, CopiesOfABuiltFabricFindEveryNode) {
  PrototypeOptions options;
  options.leaf_hubs_per_group = 3;
  const BuiltFabric built = BuildPrototypeFabric(options);
  const BuiltFabric copy = built;
  ASSERT_EQ(copy.topology.size(), built.topology.size());
  for (NodeIndex i = 0; i < built.topology.size(); ++i) {
    const std::string& name = built.topology.node(i).name;
    EXPECT_EQ(copy.topology.Find(name).value_or(kInvalidNode), i) << name;
    EXPECT_EQ(built.topology.Find(name).value_or(kInvalidNode), i) << name;
  }
  EXPECT_EQ(copy.topology.Find("nonexistent").status().code(),
            StatusCode::kNotFound);
}

// --- Generation counter and path cache ---------------------------------------

TEST(TopologyGenerationTest, MutationsBumpGeneration) {
  Topology t;
  const std::uint64_t g0 = t.generation();
  NodeIndex host = t.AddHostPort("h");
  EXPECT_GT(t.generation(), g0);  // construction counts as mutation
  NodeIndex hub = t.AddHub("hub", host);
  NodeIndex hub2 = t.AddHub("hub2", host);
  NodeIndex sw = t.AddSwitch("sw", hub, hub2);
  t.AddDisk("d0", sw);

  std::uint64_t g = t.generation();
  t.SetSwitch(sw, true);
  EXPECT_GT(t.generation(), g);
  g = t.generation();
  t.SetFailed(hub, true);
  EXPECT_GT(t.generation(), g);
  g = t.generation();
  t.SetPowered(hub2, false);
  EXPECT_GT(t.generation(), g);
}

TEST(TopologyGenerationTest, NoOpMutationsKeepGeneration) {
  Topology t;
  NodeIndex host = t.AddHostPort("h");
  NodeIndex hub = t.AddHub("hub", host);
  NodeIndex hub2 = t.AddHub("hub2", host);
  NodeIndex sw = t.AddSwitch("sw", hub, hub2);
  t.SetSwitch(sw, true);
  t.SetFailed(hub, true);

  const std::uint64_t g = t.generation();
  t.SetSwitch(sw, true);    // already selected
  t.SetFailed(hub, true);   // already failed
  t.SetPowered(hub2, true); // already powered
  EXPECT_EQ(t.generation(), g);
}

TEST(TopologyGenerationTest, CachedPathTracksMutations) {
  Topology t;
  NodeIndex host_a = t.AddHostPort("a");
  NodeIndex host_b = t.AddHostPort("b");
  NodeIndex hub_a = t.AddHub("hub-a", host_a);
  NodeIndex hub_b = t.AddHub("hub-b", host_b);
  NodeIndex sw = t.AddSwitch("sw", hub_a, hub_b);
  NodeIndex disk = t.AddDisk("d0", sw);

  // Warm the cache, then mutate and confirm the cached answer follows.
  EXPECT_EQ(t.ActivePath(disk), t.WalkActivePath(disk));
  EXPECT_EQ(t.ActivePath(disk).back(), host_a);
  t.SetSwitch(sw, true);
  EXPECT_EQ(t.ActivePath(disk), t.WalkActivePath(disk));
  EXPECT_EQ(t.ActivePath(disk).back(), host_b);
  t.SetFailed(hub_b, true);
  EXPECT_EQ(t.ActivePath(disk), t.WalkActivePath(disk));
  EXPECT_TRUE(t.ActivePath(disk).empty());
  t.SetFailed(hub_b, false);
  EXPECT_EQ(t.ActivePath(disk).back(), host_b);
  // Cache survives node addition (it is resized, not corrupted).
  NodeIndex disk2 = t.AddDisk("d1", hub_a);
  EXPECT_EQ(t.ActivePath(disk2), t.WalkActivePath(disk2));
  EXPECT_EQ(t.ActivePath(disk), t.WalkActivePath(disk));
}

// --- Validation failures -----------------------------------------------------

TEST(TopologyValidationTest, RejectsIdenticalSwitchUpstreams) {
  Topology t;
  NodeIndex host = t.AddHostPort("h");
  NodeIndex hub = t.AddHub("hub", host);
  t.AddSwitch("sw", hub, hub);
  EXPECT_FALSE(t.Validate(4).ok());
}

TEST(TopologyValidationTest, RejectsExcessFanIn) {
  Topology t;
  NodeIndex host = t.AddHostPort("h");
  NodeIndex hub = t.AddHub("hub", host);
  for (int i = 0; i < 5; ++i) t.AddDisk("d" + std::to_string(i), hub);
  EXPECT_FALSE(t.Validate(4).ok());
  EXPECT_TRUE(t.Validate(5).ok());
}

TEST(TopologyValidationTest, CountsPotentialFanInThroughSwitches) {
  Topology t;
  NodeIndex host_a = t.AddHostPort("a");
  NodeIndex host_b = t.AddHostPort("b");
  NodeIndex hub_a = t.AddHub("hub-a", host_a);
  NodeIndex hub_b = t.AddHub("hub-b", host_b);
  for (int i = 0; i < 4; ++i) {
    NodeIndex sw = t.AddSwitch("sw" + std::to_string(i), hub_a, hub_b);
    t.AddDisk("d" + std::to_string(i), sw);
  }
  EXPECT_TRUE(t.Validate(4).ok());
  // A fifth switchable disk could oversubscribe either hub.
  NodeIndex sw = t.AddSwitch("sw4", hub_a, hub_b);
  t.AddDisk("d4", sw);
  EXPECT_FALSE(t.Validate(4).ok());
}

}  // namespace
}  // namespace ustore::fabric
