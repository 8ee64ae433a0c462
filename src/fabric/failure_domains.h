// Failure-domain enumeration for the redundancy layer.
//
// A *failure domain* is the largest set of disks the fabric can lose to
// one component fault below the host: every disk hanging off one leaf hub
// (the paper's §IV-E caveat — "a leaf hub failure takes its disks offline
// until repair"). Stripe placement must never put two chunks of the same
// stripe into one domain, or a single hub fault costs the stripe two
// chunks at once.
//
// Unlike fabric::ShardPlan groups — which follow the *active* path and
// therefore move with failover — failure domains are a property of the
// static wiring: a disk stays in its leaf hub's domain no matter which
// host currently exposes it, because the hub is what fails with it. That
// makes the domain partition stable input for a reallocation-free
// placement function (fabric::DeclusteredPlacement).
#pragma once

#include <vector>

#include "fabric/builders.h"
#include "fabric/topology.h"

namespace ustore::fabric {

struct FailureDomain {
  NodeIndex hub = kInvalidNode;        // the shared leaf component
  std::vector<NodeIndex> disks;        // member disks, node-index order
};

struct FailureDomainMap {
  std::vector<FailureDomain> domains;  // ordered by hub node index

  int size() const { return static_cast<int>(domains.size()); }
};

// Partitions `fabric`'s disks by static wiring: two disks share a domain
// iff they share their first upstream hub (walking up_primary past any
// switches — the wiring parent, not the active path). Deterministic:
// domains are ordered by hub node index, disks within a domain by node
// index.
FailureDomainMap EnumerateFailureDomains(const BuiltFabric& fabric);

}  // namespace ustore::fabric
