// The interconnect-fabric graph (§III).
//
// A fabric is a DAG of host ports, hubs, 2:1 switches and disks (each disk
// includes its SATA<->USB bridge — the paper treats {disk, bridge, switch}
// as one failure unit). Hubs and disks have exactly one upstream link;
// switches have two candidate upstreams and a select line. For any switch
// configuration, following active upstream links from a disk either reaches
// exactly one host port (the disk's current attachment) or dead-ends in a
// failed/unpowered component.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace ustore::fabric {

using NodeIndex = int;
inline constexpr NodeIndex kInvalidNode = -1;

enum class NodeKind { kHostPort, kHub, kSwitch, kDisk };

std::string_view NodeKindName(NodeKind kind);

// One node of the static wiring; switch, fail and power state are per copy.
struct Node {
  NodeKind kind;
  std::string name;
  NodeIndex up_primary = kInvalidNode;    // all non-root nodes
  NodeIndex up_secondary = kInvalidNode;  // switches only
  // Rank among the nodes of this kind, in creation order: a disk's ordinal
  // is its index in Topology::Disks() and its one in-process identity.
  int ordinal = -1;
};

// One required switch setting on a route (GETSWITCH output).
struct SwitchSetting {
  NodeIndex switch_node;
  bool select;

  friend bool operator==(const SwitchSetting&, const SwitchSetting&) = default;
};

class Topology {
 public:
  // --- Construction ---------------------------------------------------------
  NodeIndex AddHostPort(std::string name);
  NodeIndex AddHub(std::string name, NodeIndex upstream);
  NodeIndex AddSwitch(std::string name, NodeIndex up_primary,
                      NodeIndex up_secondary);
  NodeIndex AddDisk(std::string name, NodeIndex upstream);

  // Structural checks: acyclic, switch wiring sane, hub fan-in respected.
  Status Validate(int hub_fan_in) const;

  // --- Accessors -------------------------------------------------------------
  int size() const { return static_cast<int>(nodes().size()); }
  const Node& node(NodeIndex i) const { return nodes().at(i); }
  // O(1) by name; for a duplicate name, the first node added wins.
  Result<NodeIndex> Find(const std::string& name) const;
  // The ordinal of node `i` when it is a node of `kind`; -1 otherwise,
  // including for an index outside the topology.
  int OrdinalOf(NodeIndex i, NodeKind kind) const {
    return i >= 0 && i < size() && nodes()[i].kind == kind ? nodes()[i].ordinal
                                                            : -1;
  }

  // The nodes of `kind` in creation order (so index == ordinal). The
  // reference is valid until the next node addition.
  const std::vector<NodeIndex>& NodesOfKind(NodeKind kind) const {
    return wiring_->of_kind[static_cast<std::size_t>(kind)];
  }
  const std::vector<NodeIndex>& Disks() const {
    return NodesOfKind(NodeKind::kDisk);
  }
  const std::vector<NodeIndex>& HostPorts() const {
    return NodesOfKind(NodeKind::kHostPort);
  }

  // Downstream neighbours whose *active* upstream is `i` (switch selects
  // considered).
  std::vector<NodeIndex> ActiveChildren(NodeIndex i) const;

  // --- Switch and component state, this copy's own ----------------------------
  void SetSwitch(NodeIndex switch_node, bool select);
  void SetFailed(NodeIndex i, bool failed);
  void SetPowered(NodeIndex i, bool powered);
  // A switch's select line: false -> up_primary, true -> up_secondary.
  bool selected(NodeIndex i) const { return state_.at(i).select; }
  bool failed(NodeIndex i) const { return state_.at(i).failed; }
  bool powered(NodeIndex i) const { return state_.at(i).powered; }

  // Monotonic configuration version: bumped by every mutation that can
  // change an active path (construction, switch flips, fail/power changes).
  // No-op mutations (setting a switch to its current position, re-failing a
  // failed node) keep the generation — and therefore the path cache — warm.
  std::uint64_t generation() const { return generation_; }

  // --- Connectivity queries -----------------------------------------------------
  // The upstream a node currently feeds into (switch select applied);
  // kInvalidNode for host ports.
  NodeIndex ActiveUpstream(NodeIndex i) const;

  // Host port a device currently reaches, or kInvalidNode if the active
  // path is broken (failed/unpowered component on it, including the device).
  NodeIndex AttachedHostPort(NodeIndex device) const;

  // The nodes on the active path, device first, host port last. Empty if
  // the path is broken. Memoized per device and invalidated by
  // generation(), so repeated queries on an unchanged fabric are O(1).
  std::vector<NodeIndex> ActivePath(NodeIndex device) const {
    return ActivePathRef(device);
  }

  // Allocation-free variant: the returned reference is valid until the next
  // topology mutation or node addition.
  const std::vector<NodeIndex>& ActivePathRef(NodeIndex device) const;

  // Uncached walk — the reference the memoized path is checked against in
  // the property tests.
  std::vector<NodeIndex> WalkActivePath(NodeIndex device) const;

  // GETSWITCH (Algorithm 1): the switch settings that connect `disk` to
  // `host`, ignoring current switch positions but honouring failed and
  // unpowered components. kNotFound if no such path exists.
  Result<std::vector<SwitchSetting>> RouteTo(NodeIndex disk,
                                             NodeIndex host) const;

  // All host ports reachable from `disk` under some switch configuration.
  std::vector<NodeIndex> ReachableHostPorts(NodeIndex disk) const;

  // Number of hubs on the active path above `device` (USB tier depth).
  int TierOf(NodeIndex device) const;

  // Nearest upstream hub (or host port) on the active path: the parent as
  // the USB tree sees it — switches and bridges are invisible (§IV-E).
  NodeIndex UsbParentOf(NodeIndex device) const;

  // The failure unit containing `i` (§IV-E): a component plus the invisible
  // switch attached to it. For a disk: {disk, its downstream switch if the
  // disk feeds one}. For a hub: {hub, the switch its uplink feeds}.
  std::vector<NodeIndex> FailureUnitOf(NodeIndex i) const;

 private:
  NodeIndex Add(Node node);
  const std::vector<Node>& nodes() const { return wiring_->nodes; }
  bool Usable(NodeIndex i) const {
    const NodeState& s = state_[i];
    return !s.failed && s.powered;
  }

  // Nothing in the static wiring changes after Add, so copies share it; Add
  // clones a shared Wiring first, so growing one copy never changes another.
  struct Wiring {
    std::vector<Node> nodes;
    std::unordered_map<std::string, NodeIndex> index;  // name -> first node
    std::array<std::vector<NodeIndex>, 4> of_kind;  // by NodeKind
  };
  struct NodeState {
    bool failed = false;
    bool powered = true;
    bool select = false;  // switches only
  };
  struct PathCacheEntry {
    std::uint64_t gen = 0;  // generation the cached path was walked at
    std::vector<NodeIndex> path;
  };

  std::shared_ptr<Wiring> wiring_ = std::make_shared<Wiring>();
  std::vector<NodeState> state_;  // this copy's own, by NodeIndex
  std::uint64_t generation_ = 1;
  mutable std::vector<PathCacheEntry> path_cache_;  // indexed by device
};

}  // namespace ustore::fabric
