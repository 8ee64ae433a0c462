// Partitioning a deploy unit's fabric into simulation shards (DESIGN.md
// §12).
//
// The sharded event engine (sim/sharded.h) needs two things from the
// fabric: a partition of the topology into subtrees that share no modelled
// hardware, and a conservative lookahead bound — the minimum simulated
// latency any cross-shard interaction must pay.
//
// Both fall out of the USB tree structure. Every node below a host port
// belongs to exactly one *root subtree* (the subtree hanging off one root
// device on a host port); root subtrees only interact through the host —
// an RPC to the EndPoint/Master plus at least one USB hop — so a message
// between subtrees can never arrive sooner than
//
//     lookahead = rpc_floor + usb_hop
//
// The plan therefore uses root subtrees as *logical groups* and assigns
// groups to shards contiguously. Groups — not shards — are the unit of
// model state: a simulation keyed on groups behaves identically at every
// shard count, which is what makes the sharded engine's bit-exactness
// contract testable (the group structure is fixed; only the shard
// assignment varies).
#pragma once

#include <vector>

#include "fabric/topology.h"
#include "sim/time.h"

namespace ustore::fabric {

struct ShardPlanOptions {
  int shards = 1;
  // Floor of one control-plane RPC between subtrees (net::LinkOptions
  // default latency).
  sim::Duration rpc_floor = sim::Micros(200);
  // Floor of one hub hop on the USB tree.
  sim::Duration usb_hop = sim::Micros(50);
};

struct ShardPlan {
  // Effective shard count: min(requested, groups), at least 1.
  int shards = 1;
  // Conservative lookahead: minimum cross-shard simulated latency.
  sim::Duration lookahead = 0;
  // group -> root node of the subtree (deterministic: node-index order).
  std::vector<NodeIndex> group_root;
  // group -> shard; contiguous balanced assignment. The group's meta lease
  // (DESIGN.md §15) lives on this shard too, so every lease-local decision
  // is shard-local; adding shards moves contiguous runs of groups, never
  // which lease owns which disks.
  std::vector<int> group_shard;
  // topology node -> group; -1 for host ports and unattached nodes.
  std::vector<int> node_group;

  int groups() const { return static_cast<int>(group_root.size()); }
  int GroupOf(NodeIndex node) const {
    return node >= 0 && node < static_cast<NodeIndex>(node_group.size())
               ? node_group[node]
               : -1;
  }
  // -1 for nodes outside every group.
  int ShardOf(NodeIndex node) const {
    const int group = GroupOf(node);
    return group < 0 ? -1 : group_shard[group];
  }
};

// Partitions `topology` by active-path root subtree. Nodes whose active
// path is currently broken are assigned to no group (-1) — a detached disk
// is not being simulated by anyone.
ShardPlan BuildShardPlan(const Topology& topology,
                         const ShardPlanOptions& options = {});

}  // namespace ustore::fabric
