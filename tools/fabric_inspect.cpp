// fabric_inspect — command-line explorer for UStore interconnect designs.
//
// Prints the topology, bill of materials, estimated fabric cost, per-disk
// reachability and exhaustive single-fault coverage for a chosen fabric
// design, so an operator can size a deploy unit before building it.
//
// Usage:
//   fabric_inspect [prototype|leaf|plain] [disks]
//     prototype  Fig. 2 right (default), disks rounded to groups of 4
//     leaf       Fig. 2 left (per-disk switches, 2 hosts)
//     plain      switchless hub tree (1 host)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "baselines/baselines.h"
#include "cost/cost_model.h"
#include "fabric/builders.h"

using namespace ustore;

namespace {

void PrintTree(const fabric::BuiltFabric& f) {
  const fabric::Topology& t = f.topology;
  std::printf("\nTopology (%d nodes):\n", t.size());
  // Print each host port and its active subtree.
  std::function<void(fabric::NodeIndex, int)> recurse =
      [&](fabric::NodeIndex node, int depth) {
        std::printf("%*s%s [%s]\n", depth * 2, "",
                    t.node(node).name.c_str(),
                    std::string(NodeKindName(t.node(node).kind)).c_str());
        for (fabric::NodeIndex child : t.ActiveChildren(node)) {
          recurse(child, depth + 1);
        }
      };
  for (fabric::NodeIndex port : f.topology.HostPorts()) {
    recurse(port, 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string design = argc > 1 ? argv[1] : "prototype";
  const int disks = argc > 2 ? std::atoi(argv[2]) : 16;
  if (disks <= 0 || disks > 1024) {
    std::fprintf(stderr, "disks must be in 1..1024\n");
    return 2;
  }

  std::function<fabric::BuiltFabric()> make;
  if (design == "prototype") {
    const int groups = std::max(2, (disks + 3) / 4);
    make = [groups] {
      return fabric::BuildPrototypeFabric({.groups = groups});
    };
  } else if (design == "leaf") {
    make = [disks] {
      return fabric::BuildLeafSwitchedFabric({.disks = disks});
    };
  } else if (design == "plain") {
    make = [disks] {
      return fabric::BuildSingleHostTree({.disks = disks});
    };
  } else {
    std::fprintf(stderr, "unknown design '%s' (prototype|leaf|plain)\n",
                 design.c_str());
    return 2;
  }

  fabric::BuiltFabric f = make();
  const std::vector<fabric::NodeIndex>& disk_nodes = f.topology.Disks();
  Status valid = f.topology.Validate(fabric::kDefaultHubFanIn);
  std::printf("design: %s | disks: %zu | hosts: %zu | valid: %s\n",
              design.c_str(), disk_nodes.size(), f.hosts.size(),
              valid.ToString().c_str());

  const fabric::FabricBom bom = fabric::CountBom(f);
  std::printf("BOM: %d hubs, %d switches, %d bridges, %d host ports\n",
              bom.hubs, bom.switches, bom.bridges, bom.host_ports);
  std::printf("fabric cost estimate: $%.0f (ICs x2 markup + PCB)\n",
              cost::FabricCost(bom));

  std::printf("\nReachability:\n");
  for (fabric::NodeIndex disk : disk_nodes) {
    const auto ports = f.topology.ReachableHostPorts(disk);
    std::printf("  %-10s -> %zu host port(s)\n",
                f.topology.node(disk).name.c_str(), ports.size());
    if (disk_nodes.size() > 16 && disk == disk_nodes[15]) {
      std::printf("  ... (%zu more)\n", disk_nodes.size() - 16);
      break;
    }
  }

  const auto coverage = baselines::AnalyzeSingleFaultCoverage(make);
  std::printf(
      "\nSingle-fault coverage: %d/%zu scenarios fully tolerated, worst "
      "case loses %d/%d disks\n",
      coverage.fully_tolerated, coverage.scenarios.size(),
      coverage.worst_case_lost, coverage.disks_total);

  if (disk_nodes.size() <= 32) PrintTree(f);
  return valid.ok() ? 0 : 1;
}
