#include "fabric/shard_plan.h"

#include <algorithm>

namespace ustore::fabric {

ShardPlan BuildShardPlan(const Topology& topology,
                         const ShardPlanOptions& options) {
  ShardPlan plan;
  plan.lookahead = std::max<sim::Duration>(
      options.rpc_floor + options.usb_hop, 1);
  plan.node_group.assign(topology.size(), -1);

  // Pass 1: root subtrees in node-index order. A root is any non-host-port
  // node whose active upstream is a host port.
  for (NodeIndex i = 0; i < topology.size(); ++i) {
    if (topology.node(i).kind == NodeKind::kHostPort) continue;
    const NodeIndex up = topology.ActiveUpstream(i);
    if (up == kInvalidNode) continue;
    if (topology.node(up).kind == NodeKind::kHostPort) {
      plan.node_group[i] = static_cast<int>(plan.group_root.size());
      plan.group_root.push_back(i);
    }
  }

  // Pass 2: every attached node inherits the group of the last non-host
  // node on its active path (the subtree root).
  for (NodeIndex i = 0; i < topology.size(); ++i) {
    if (plan.node_group[i] >= 0) continue;
    if (topology.node(i).kind == NodeKind::kHostPort) continue;
    const std::vector<NodeIndex>& path = topology.ActivePathRef(i);
    if (path.size() < 2) continue;  // detached: no group simulates it
    // path = device .. root, host port; the root is the second-to-last.
    plan.node_group[i] = plan.node_group[path[path.size() - 2]];
  }

  const int groups = plan.groups();
  plan.shards = std::clamp(options.shards, 1, std::max(groups, 1));
  plan.group_shard.resize(groups);
  for (int g = 0; g < groups; ++g) {
    // Contiguous balanced assignment; stable for a fixed group count.
    plan.group_shard[g] = static_cast<int>(
        (static_cast<long long>(g) * plan.shards) / std::max(groups, 1));
  }
  return plan;
}

}  // namespace ustore::fabric
