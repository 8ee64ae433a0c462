// fabric::ShardPlan: partitioning a fabric by root subtree into logical
// groups, the group -> shard assignment and the lookahead floor (DESIGN.md
// §12).
#include <vector>

#include "fabric/builders.h"
#include "fabric/shard_plan.h"
#include "gtest/gtest.h"

namespace ustore {
namespace {

TEST(ShardPlanTest, PartitionsPrototypeFabricByRootSubtree) {
  fabric::BuiltFabric built = fabric::BuildPrototypeFabric();
  fabric::ShardPlanOptions options;
  options.shards = 3;
  const fabric::ShardPlan plan = fabric::BuildShardPlan(built.topology, options);

  EXPECT_GT(plan.groups(), 0);
  EXPECT_EQ(plan.shards, 3);
  EXPECT_GT(plan.lookahead, 0);

  // Every attached disk belongs to a group and a shard.
  for (const fabric::NodeIndex disk : built.topology.Disks()) {
    EXPECT_GE(plan.GroupOf(disk), 0) << built.topology.node(disk).name;
    EXPECT_GE(plan.ShardOf(disk), 0);
    EXPECT_LT(plan.ShardOf(disk), plan.shards);
  }
  // Host ports belong to no group.
  for (const fabric::NodeIndex port : built.topology.HostPorts()) {
    EXPECT_EQ(plan.GroupOf(port), -1);
  }
  // A node shares its group with its subtree root.
  for (int g = 0; g < plan.groups(); ++g) {
    EXPECT_EQ(plan.GroupOf(plan.group_root[g]), g);
  }
  // Contiguous balanced assignment: non-decreasing, all shards used.
  std::vector<int> used(plan.shards, 0);
  for (int g = 1; g < plan.groups(); ++g) {
    EXPECT_GE(plan.group_shard[g], plan.group_shard[g - 1]);
  }
  for (int g = 0; g < plan.groups(); ++g) ++used[plan.group_shard[g]];
  for (int s = 0; s < plan.shards; ++s) EXPECT_GT(used[s], 0);
}

TEST(ShardPlanTest, DetachedSubtreeGetsNoGroup) {
  fabric::BuiltFabric built = fabric::BuildSingleHostTree({.disks = 8});
  // Fail one root hub: its disks dangle and must be unassigned.
  const fabric::NodeIndex hub =
      built.topology.NodesOfKind(fabric::NodeKind::kHub).front();
  built.topology.SetFailed(hub, true);
  const fabric::ShardPlan plan =
      fabric::BuildShardPlan(built.topology, {.shards = 2});
  int unassigned = 0;
  for (const fabric::NodeIndex disk : built.topology.Disks()) {
    if (plan.GroupOf(disk) < 0) ++unassigned;
  }
  EXPECT_GT(unassigned, 0);
  EXPECT_LT(unassigned, static_cast<int>(built.topology.Disks().size()));
}

TEST(ShardPlanTest, ShardCountClampsToGroups) {
  fabric::BuiltFabric built = fabric::BuildSingleHostTree({.disks = 4});
  const fabric::ShardPlan plan =
      fabric::BuildShardPlan(built.topology, {.shards = 64});
  EXPECT_LE(plan.shards, plan.groups());
  EXPECT_GE(plan.shards, 1);
}

TEST(ShardPlanTest, SingleRootFabricCollapsesToOneGroup) {
  // 4 disks at fan-in 4: one hub on one root port — a single root subtree,
  // so any requested shard count degenerates to serial.
  fabric::BuiltFabric built = fabric::BuildSingleHostTree({.disks = 4});
  const fabric::ShardPlan plan =
      fabric::BuildShardPlan(built.topology, {.shards = 4});
  EXPECT_EQ(plan.groups(), 1);
  EXPECT_EQ(plan.shards, 1);
  for (const fabric::NodeIndex disk : built.topology.Disks()) {
    EXPECT_EQ(plan.GroupOf(disk), 0);
    EXPECT_EQ(plan.ShardOf(disk), 0);
  }
}

TEST(ShardPlanTest, MoreShardsThanGroupsPinsOneGroupPerShard) {
  fabric::BuiltFabric built = fabric::BuildPrototypeFabric();  // 4 subtrees
  const fabric::ShardPlan plan =
      fabric::BuildShardPlan(built.topology, {.shards = 64});
  EXPECT_EQ(plan.shards, plan.groups());
  for (int g = 0; g < plan.groups(); ++g) {
    EXPECT_EQ(plan.group_shard[g], g);
  }
}

TEST(ShardPlanTest, ZeroDelayLinksStillGetPositiveLookahead) {
  // A zero lookahead would let cross-shard deliveries land "now" and break
  // the conservative contract; the plan clamps the floor to 1 ns.
  fabric::BuiltFabric built = fabric::BuildPrototypeFabric();
  fabric::ShardPlanOptions options;
  options.shards = 2;
  options.rpc_floor = 0;
  options.usb_hop = 0;
  const fabric::ShardPlan plan =
      fabric::BuildShardPlan(built.topology, options);
  EXPECT_EQ(plan.lookahead, 1);
  EXPECT_EQ(plan.shards, 2);
}

}  // namespace
}  // namespace ustore
