// Canonical fabric topologies.
//
// Three builders cover the paper's designs:
//
//  * BuildPrototypeFabric — the right-hand design of Fig. 2 (switches placed
//    high in the tree), as used by the 16-disk / 4-host prototype (§V-B).
//    Per group i: four disks -> leaf hub L_i -> switch SL_i selecting
//    between mid hubs {M_i, M_(i+1)}; mid hub M_i -> switch SM_i selecting
//    between host ports {host_i:p0, host_(i+1):p1}. A disk therefore passes
//    "two hubs, two switches and a bridge" exactly as the paper states, any
//    disk group can fail over to the next host, and a mid-hub failure can
//    be routed around. The trade-off (called out in §IV-E) is that a leaf
//    hub failure takes its disks offline until repair.
//
//  * BuildLeafSwitchedFabric — the left-hand design of Fig. 2: two
//    independent full hub trees, each rooted at its own host, with a 2:1
//    switch under every disk. Tolerates any single hub failure as well as a
//    host failure, at higher per-disk switch cost.
//
//  * BuildSingleHostTree — a plain (switchless) hub tree under one host,
//    used for the Fig. 5 scaling experiments and as the single-point-of-
//    failure baseline. Hubs sit on separate root ports of the same host
//    controller, matching the prototype's 12-disk configuration
//    (12 disks + 3 hubs = 15 devices, the xHCI limit of §V-B).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "fabric/topology.h"

namespace ustore::fabric {

inline constexpr int kDefaultHubFanIn = 4;  // UNITEK Y-3044 4-port hubs

// A built fabric plus its naming/host metadata. Per-kind node lists come
// from the topology (Disks(), NodesOfKind(), HostPorts()).
struct BuiltFabric {
  Topology topology;
  std::vector<std::string> hosts;          // host names, index = host id
  std::map<NodeIndex, int> host_of_port;   // host port node -> host id

  // Convenience: host ports belonging to host `h`.
  std::vector<NodeIndex> PortsOfHost(int h) const;
  // Disks currently attached (active path) to any port of host `h`.
  std::vector<NodeIndex> DisksAttachedToHost(int h) const;
  int HostOfDisk(NodeIndex disk) const;  // -1 if detached
};

struct PrototypeOptions {
  int groups = 4;           // == number of hosts
  int disks_per_leaf = 4;   // <= hub fan-in
  int hub_fan_in = kDefaultHubFanIn;
  // Leaf hubs hanging off each group's mid hub, each behind its own
  // uplink switch. 1 reproduces the paper's 16-disk prototype exactly;
  // larger values scale one deploy unit to bench sizes (100k disks on 8
  // hosts) without multiplying hosts. For physical realism keep it within
  // the mid hub's fan-in.
  int leaf_hubs_per_group = 1;
};

BuiltFabric BuildPrototypeFabric(const PrototypeOptions& options = {});

struct LeafSwitchedOptions {
  int disks = 16;
  int hub_fan_in = kDefaultHubFanIn;
};

BuiltFabric BuildLeafSwitchedFabric(const LeafSwitchedOptions& options = {});

struct SingleHostTreeOptions {
  int disks = 4;
  int hub_fan_in = kDefaultHubFanIn;
};

BuiltFabric BuildSingleHostTree(const SingleHostTreeOptions& options = {});

// Component counts for the cost model (Table I / ablation A1).
struct FabricBom {
  int hubs = 0;
  int switches = 0;
  int bridges = 0;  // one per disk
  int host_ports = 0;
};

FabricBom CountBom(const BuiltFabric& fabric);

}  // namespace ustore::fabric
