#include "fabric/topology.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

namespace ustore::fabric {

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kHostPort: return "host-port";
    case NodeKind::kHub: return "hub";
    case NodeKind::kSwitch: return "switch";
    case NodeKind::kDisk: return "disk";
  }
  return "?";
}

NodeIndex Topology::Add(Node node) {
  if (wiring_.use_count() > 1) wiring_ = std::make_shared<Wiring>(*wiring_);
  const auto i = static_cast<NodeIndex>(wiring_->nodes.size());
  wiring_->index.try_emplace(node.name, i);
  auto& of_kind = wiring_->of_kind[static_cast<std::size_t>(node.kind)];
  node.ordinal = static_cast<int>(of_kind.size());
  of_kind.push_back(i);
  wiring_->nodes.push_back(std::move(node));
  state_.emplace_back();
  ++generation_;
  return i;
}

NodeIndex Topology::AddHostPort(std::string name) {
  return Add(Node{NodeKind::kHostPort, std::move(name)});
}

NodeIndex Topology::AddHub(std::string name, NodeIndex upstream) {
  assert(upstream >= 0 && upstream < size());
  Node n{NodeKind::kHub, std::move(name)};
  n.up_primary = upstream;
  return Add(n);
}

NodeIndex Topology::AddSwitch(std::string name, NodeIndex up_primary,
                              NodeIndex up_secondary) {
  assert(up_primary >= 0 && up_primary < size());
  assert(up_secondary >= 0 && up_secondary < size());
  Node n{NodeKind::kSwitch, std::move(name)};
  n.up_primary = up_primary;
  n.up_secondary = up_secondary;
  return Add(n);
}

NodeIndex Topology::AddDisk(std::string name, NodeIndex upstream) {
  assert(upstream >= 0 && upstream < size());
  Node n{NodeKind::kDisk, std::move(name)};
  n.up_primary = upstream;
  return Add(n);
}

Result<NodeIndex> Topology::Find(const std::string& name) const {
  const auto it = wiring_->index.find(name);
  if (it != wiring_->index.end()) return it->second;
  return NotFoundError("no fabric node named " + name);
}

NodeIndex Topology::ActiveUpstream(NodeIndex i) const {
  const Node& n = nodes().at(i);
  if (n.kind == NodeKind::kHostPort) return kInvalidNode;
  if (n.kind == NodeKind::kSwitch) {
    return state_[i].select ? n.up_secondary : n.up_primary;
  }
  return n.up_primary;
}

std::vector<NodeIndex> Topology::ActiveChildren(NodeIndex i) const {
  std::vector<NodeIndex> out;
  for (NodeIndex j = 0; j < size(); ++j) {
    if (j != i && ActiveUpstream(j) == i) out.push_back(j);
  }
  return out;
}

void Topology::SetSwitch(NodeIndex switch_node, bool select) {
  assert(node(switch_node).kind == NodeKind::kSwitch);
  NodeState& s = state_.at(switch_node);
  if (s.select == select) return;
  s.select = select;
  ++generation_;
}

void Topology::SetFailed(NodeIndex i, bool failed) {
  NodeState& s = state_.at(i);
  if (s.failed == failed) return;
  s.failed = failed;
  ++generation_;
}

void Topology::SetPowered(NodeIndex i, bool powered) {
  NodeState& s = state_.at(i);
  if (s.powered == powered) return;
  s.powered = powered;
  ++generation_;
}

const std::vector<NodeIndex>& Topology::ActivePathRef(
    NodeIndex device) const {
  if (path_cache_.size() != nodes().size()) {
    path_cache_.assign(nodes().size(), PathCacheEntry{});
  }
  PathCacheEntry& entry = path_cache_.at(static_cast<std::size_t>(device));
  if (entry.gen != generation_) {
    entry.path = WalkActivePath(device);
    entry.gen = generation_;
  }
  return entry.path;
}

std::vector<NodeIndex> Topology::WalkActivePath(NodeIndex device) const {
  std::vector<NodeIndex> path;
  NodeIndex cur = device;
  while (cur != kInvalidNode) {
    if (!Usable(cur)) return {};
    path.push_back(cur);
    // Guard against configuration cycles (should not happen in validated
    // fabrics, but a half-applied switch change must not hang us).
    if (path.size() > nodes().size()) return {};
    const Node& n = nodes()[cur];
    if (n.kind == NodeKind::kHostPort) return path;
    cur = ActiveUpstream(cur);
  }
  return {};
}

NodeIndex Topology::AttachedHostPort(NodeIndex device) const {
  const std::vector<NodeIndex>& path = ActivePathRef(device);
  if (path.empty()) return kInvalidNode;
  return path.back();
}

Result<std::vector<SwitchSetting>> Topology::RouteTo(NodeIndex disk,
                                                     NodeIndex host) const {
  assert(nodes().at(disk).kind == NodeKind::kDisk);
  assert(nodes().at(host).kind == NodeKind::kHostPort);
  if (!Usable(disk)) {
    return UnavailableError(nodes()[disk].name + " is failed or unpowered");
  }
  if (!Usable(host)) {
    return UnavailableError(nodes()[host].name + " is failed or unpowered");
  }

  // Depth-first search upward, choosing switch branches. The fabric above a
  // disk is small (a handful of levels), so recursion is fine.
  std::vector<SwitchSetting> settings;
  std::function<bool(NodeIndex, int)> dfs = [&](NodeIndex cur,
                                                int depth) -> bool {
    if (depth > size()) return false;  // cycle guard
    if (!Usable(cur)) return false;
    if (cur == host) return true;
    const Node& n = nodes()[cur];
    if (n.kind == NodeKind::kHostPort) return false;  // wrong root
    if (n.kind == NodeKind::kSwitch) {
      for (bool select : {false, true}) {
        const NodeIndex up = select ? n.up_secondary : n.up_primary;
        settings.push_back(SwitchSetting{cur, select});
        if (up != kInvalidNode && dfs(up, depth + 1)) return true;
        settings.pop_back();
      }
      return false;
    }
    return n.up_primary != kInvalidNode && dfs(n.up_primary, depth + 1);
  };

  if (!dfs(disk, 0)) {
    return NotFoundError("no usable path from " + nodes()[disk].name + " to " +
                         nodes()[host].name);
  }
  return settings;
}

std::vector<NodeIndex> Topology::ReachableHostPorts(NodeIndex disk) const {
  std::vector<NodeIndex> out;
  for (NodeIndex host : HostPorts()) {
    if (RouteTo(disk, host).ok()) out.push_back(host);
  }
  return out;
}

int Topology::TierOf(NodeIndex device) const {
  int hubs = 0;
  for (NodeIndex i : ActivePathRef(device)) {
    if (i != device && nodes()[i].kind == NodeKind::kHub) ++hubs;
  }
  return hubs;
}

NodeIndex Topology::UsbParentOf(NodeIndex device) const {
  const std::vector<NodeIndex>& path = ActivePathRef(device);
  for (std::size_t i = 1; i < path.size(); ++i) {
    const NodeKind kind = nodes()[path[i]].kind;
    if (kind == NodeKind::kHub || kind == NodeKind::kHostPort) {
      return path[i];
    }
  }
  return kInvalidNode;
}

std::vector<NodeIndex> Topology::FailureUnitOf(NodeIndex i) const {
  std::vector<NodeIndex> unit{i};
  const Node& n = nodes().at(i);
  if (n.kind == NodeKind::kSwitch) {
    // A switch belongs to the unit of the component below it.
    for (NodeIndex j = 0; j < size(); ++j) {
      if (nodes()[j].kind != NodeKind::kSwitch && nodes()[j].up_primary == i) {
        unit.push_back(j);
      }
    }
    return unit;
  }
  // The switch this component's uplink feeds into (if its direct upstream
  // is a switch) shares its fate: they are physically packaged together.
  if (n.up_primary != kInvalidNode &&
      nodes()[n.up_primary].kind == NodeKind::kSwitch) {
    unit.push_back(n.up_primary);
  }
  return unit;
}

Status Topology::Validate(int hub_fan_in) const {
  // Upstream references must point "backwards" is not required, but the
  // graph must be acyclic following all possible upstreams.
  for (NodeIndex i = 0; i < size(); ++i) {
    const Node& n = nodes()[i];
    switch (n.kind) {
      case NodeKind::kHostPort:
        if (n.up_primary != kInvalidNode) {
          return InternalError(n.name + ": host port with an upstream");
        }
        break;
      case NodeKind::kSwitch:
        if (n.up_primary == kInvalidNode || n.up_secondary == kInvalidNode) {
          return InternalError(n.name + ": switch missing an upstream");
        }
        if (n.up_primary == n.up_secondary) {
          return InternalError(n.name + ": switch upstreams identical");
        }
        break;
      default:
        if (n.up_primary == kInvalidNode) {
          return InternalError(n.name + ": dangling component");
        }
    }
  }

  // Hub fan-in: count *potential* children (any node that can select this
  // hub as upstream).
  std::map<NodeIndex, int> fan_in;
  for (NodeIndex i = 0; i < size(); ++i) {
    const Node& n = nodes()[i];
    for (NodeIndex up : {n.up_primary, n.up_secondary}) {
      if (up != kInvalidNode && nodes()[up].kind == NodeKind::kHub) {
        ++fan_in[up];
      }
    }
  }
  for (const auto& [hub, count] : fan_in) {
    if (count > hub_fan_in) {
      return InternalError(nodes()[hub].name + ": fan-in " +
                           std::to_string(count) + " exceeds " +
                           std::to_string(hub_fan_in));
    }
  }

  // Acyclicity over the full upstream relation (both switch branches).
  enum class Mark { kWhite, kGrey, kBlack };
  std::vector<Mark> marks(nodes().size(), Mark::kWhite);
  std::function<bool(NodeIndex)> has_cycle = [&](NodeIndex i) -> bool {
    if (marks[i] == Mark::kGrey) return true;
    if (marks[i] == Mark::kBlack) return false;
    marks[i] = Mark::kGrey;
    const Node& n = nodes()[i];
    for (NodeIndex up : {n.up_primary, n.up_secondary}) {
      if (up != kInvalidNode && has_cycle(up)) return true;
    }
    marks[i] = Mark::kBlack;
    return false;
  };
  for (NodeIndex i = 0; i < size(); ++i) {
    if (has_cycle(i)) return InternalError("fabric graph has a cycle");
  }
  return Status::Ok();
}

}  // namespace ustore::fabric
