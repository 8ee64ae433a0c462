#include "fabric/builders.h"

#include <cassert>
#include <cmath>

namespace ustore::fabric {
namespace {

std::string Name(const std::string& prefix, int i) {
  return prefix + std::to_string(i);
}

}  // namespace

std::vector<NodeIndex> BuiltFabric::PortsOfHost(int h) const {
  std::vector<NodeIndex> out;
  for (const auto& [port, host] : host_of_port) {
    if (host == h) out.push_back(port);
  }
  return out;
}

std::vector<NodeIndex> BuiltFabric::DisksAttachedToHost(int h) const {
  std::vector<NodeIndex> out;
  for (NodeIndex disk : topology.Disks()) {
    if (HostOfDisk(disk) == h) out.push_back(disk);
  }
  return out;
}

int BuiltFabric::HostOfDisk(NodeIndex disk) const {
  const NodeIndex port = topology.AttachedHostPort(disk);
  if (port == kInvalidNode) return -1;
  auto it = host_of_port.find(port);
  return it == host_of_port.end() ? -1 : it->second;
}

BuiltFabric BuildPrototypeFabric(const PrototypeOptions& options) {
  assert(options.groups >= 2);
  assert(options.disks_per_leaf >= 1 &&
         options.disks_per_leaf <= options.hub_fan_in);
  assert(options.leaf_hubs_per_group >= 1);
  BuiltFabric f;
  Topology& t = f.topology;
  const int g = options.groups;

  // Hosts, each contributing a primary port (p0) and a backup port (p1).
  std::vector<NodeIndex> p0(g), p1(g);
  for (int i = 0; i < g; ++i) {
    f.hosts.push_back(Name("host-", i));
    p0[i] = t.AddHostPort(Name("host-", i) + ":p0");
    p1[i] = t.AddHostPort(Name("host-", i) + ":p1");
    f.host_of_port[p0[i]] = i;
    f.host_of_port[p1[i]] = i;
  }

  // Mid hubs behind their uplink switches: SM_i selects between this
  // host's primary port and the *next* host's backup port (ring).
  std::vector<NodeIndex> mid(g);
  for (int i = 0; i < g; ++i) {
    const NodeIndex sm = t.AddSwitch(Name("swm-", i), p0[i], p1[(i + 1) % g]);
    mid[i] = t.AddHub(Name("midhub-", i), sm);
  }

  // Leaf hubs behind their uplink switches: SL_i selects between mid hubs
  // {M_i, M_(i+1)} (ring), then the disks. With leaf_hubs_per_group == 1
  // this is exactly the paper's prototype; larger values repeat the
  // leaf-hub tier under each mid hub, keeping names and disk numbering
  // identical in the == 1 case.
  const int leaves = options.leaf_hubs_per_group;
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < leaves; ++j) {
      const int leaf_index = i * leaves + j;
      const NodeIndex sl =
          t.AddSwitch(Name("swl-", leaf_index), mid[i], mid[(i + 1) % g]);
      const NodeIndex leaf = t.AddHub(Name("leafhub-", leaf_index), sl);
      for (int d = 0; d < options.disks_per_leaf; ++d) {
        t.AddDisk(Name("disk-", leaf_index * options.disks_per_leaf + d),
                  leaf);
      }
    }
  }

  return f;
}

BuiltFabric BuildLeafSwitchedFabric(const LeafSwitchedOptions& options) {
  assert(options.disks >= 1);
  assert(options.hub_fan_in >= 2);
  BuiltFabric f;
  Topology& t = f.topology;
  const int k = options.hub_fan_in;
  const int leaves = (options.disks + k - 1) / k;

  // Two independent full k-ary hub trees, one per host.
  // BuildTreeLevel returns the leaf hubs of one tree.
  auto build_tree = [&](int tree_id, NodeIndex root_port) {
    // Bottom-up would be natural, but upstreams must exist first, so build
    // top-down: compute the number of levels needed.
    // Hub level widths, bottom-up: the leaf level has `leaves` hubs and
    // each level above aggregates k below it, ending in a single root hub
    // (a host port accepts exactly one downstream device).
    std::vector<int> widths;
    for (int w = leaves;; w = (w + k - 1) / k) {
      widths.push_back(w);
      if (w == 1) break;
    }
    std::vector<NodeIndex> parents{root_port};
    int hub_counter = 0;
    for (auto it = widths.rbegin(); it != widths.rend(); ++it) {
      std::vector<NodeIndex> next;
      for (int i = 0; i < *it; ++i) {
        const NodeIndex parent = parents[i / k];
        next.push_back(t.AddHub(
            "t" + std::to_string(tree_id) + "-hub-" +
                std::to_string(hub_counter++),
            parent));
      }
      parents = next;
    }
    return parents;  // the leaf hubs
  };

  f.hosts = {"host-0", "host-1"};
  const NodeIndex port_a = t.AddHostPort("host-0:p0");
  const NodeIndex port_b = t.AddHostPort("host-1:p0");
  f.host_of_port[port_a] = 0;
  f.host_of_port[port_b] = 1;

  const std::vector<NodeIndex> leaves_a = build_tree(0, port_a);
  const std::vector<NodeIndex> leaves_b = build_tree(1, port_b);
  assert(leaves_a.size() == leaves_b.size());

  for (int d = 0; d < options.disks; ++d) {
    const NodeIndex sw = t.AddSwitch(Name("swd-", d), leaves_a[d / k],
                                     leaves_b[d / k]);
    t.AddDisk(Name("disk-", d), sw);
  }

  return f;
}

BuiltFabric BuildSingleHostTree(const SingleHostTreeOptions& options) {
  assert(options.disks >= 1);
  BuiltFabric f;
  Topology& t = f.topology;
  f.hosts = {"host-0"};
  const int k = options.hub_fan_in;
  const int n_hubs = (options.disks + k - 1) / k;

  // One hub per root port of the same controller; all ports share the host
  // controller's bandwidth and transaction budget (see bandwidth.h).
  for (int h = 0; h < n_hubs; ++h) {
    const NodeIndex port = t.AddHostPort("host-0:p" + std::to_string(h));
    f.host_of_port[port] = 0;
    const NodeIndex hub = t.AddHub(Name("hub-", h), port);
    for (int d = h * k; d < std::min(options.disks, (h + 1) * k); ++d) {
      t.AddDisk(Name("disk-", d), hub);
    }
  }

  return f;
}

FabricBom CountBom(const BuiltFabric& fabric) {
  const Topology& t = fabric.topology;
  FabricBom bom;
  bom.hubs = static_cast<int>(t.NodesOfKind(NodeKind::kHub).size());
  bom.switches = static_cast<int>(t.NodesOfKind(NodeKind::kSwitch).size());
  bom.bridges = static_cast<int>(t.Disks().size());
  bom.host_ports = static_cast<int>(t.HostPorts().size());
  return bom;
}

}  // namespace ustore::fabric
