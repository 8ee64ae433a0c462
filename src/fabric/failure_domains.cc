#include "fabric/failure_domains.h"

#include <algorithm>
#include <map>

namespace ustore::fabric {

namespace {

// First hub reached from `disk` following static primary wiring (switches
// are pass-through: a switch is its own failure unit but shares fate with
// the single disk below it, not across disks). kInvalidNode when the disk
// dangles straight off a host port.
NodeIndex WiringHubOf(const Topology& topology, NodeIndex disk) {
  NodeIndex up = topology.node(disk).up_primary;
  while (up != kInvalidNode) {
    const Node& node = topology.node(up);
    if (node.kind == NodeKind::kHub) return up;
    if (node.kind == NodeKind::kHostPort) return kInvalidNode;
    up = node.up_primary;  // switches: primary leg is the home wiring
  }
  return kInvalidNode;
}

}  // namespace

FailureDomainMap EnumerateFailureDomains(const BuiltFabric& fabric) {
  FailureDomainMap map;

  // hub -> disks, ordered by hub node index for determinism. Disks with no
  // wiring hub (single-disk-on-port fabrics) each get a singleton domain
  // keyed on the disk itself.
  std::map<NodeIndex, std::vector<NodeIndex>> by_hub;
  for (NodeIndex disk : fabric.topology.Disks()) {
    NodeIndex hub = WiringHubOf(fabric.topology, disk);
    by_hub[hub == kInvalidNode ? disk : hub].push_back(disk);
  }
  for (auto& [hub, disks] : by_hub) {
    std::sort(disks.begin(), disks.end());
    FailureDomain domain;
    domain.hub = hub;
    domain.disks = disks;
    map.domains.push_back(std::move(domain));
  }
  return map;
}

}  // namespace ustore::fabric
