// Ablation A1: the Fig. 2 design choice — leaf-switched full trees (left)
// vs switching higher in the tree (right, the prototype). Compares parts
// count, fabric cost, fault coverage and aggregate duplex throughput for
// 16..64-disk deploy units.
#include <cstdio>
#include <vector>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "cost/cost_model.h"
#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "hw/disk_model.h"

namespace {

using namespace ustore;

double DuplexThroughput(const fabric::BuiltFabric& f) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  std::vector<fabric::FlowDemand> demands;
  const std::vector<fabric::NodeIndex>& disks = f.topology.Disks();
  for (std::size_t i = 0; i < disks.size(); ++i) {
    hw::WorkloadSpec spec{MiB(4), i % 2 == 0 ? 1.0 : 0.0,
                          hw::AccessPattern::kSequential};
    demands.push_back(fabric::FlowDemand{
        disks[i], model.Evaluate(spec).bytes_per_sec, spec.read_fraction,
        spec.request_size});
  }
  auto result = fabric::SolveMaxMinFair(
      f, demands, hw::UsbHostControllerParams{}, hw::UsbLinkParams{});
  return ToMBps(result.total);
}

void Report(const char* name,
            const std::function<fabric::BuiltFabric()>& make) {
  fabric::BuiltFabric f = make();
  const fabric::FabricBom bom = fabric::CountBom(f);
  const auto coverage = baselines::AnalyzeSingleFaultCoverage(make);
  bench::PrintRow(
      {name, std::to_string(f.topology.Disks().size()),
       std::to_string(f.hosts.size()), std::to_string(bom.hubs),
       std::to_string(bom.switches),
       bench::Fmt(cost::FabricCost(bom), 0),
       std::to_string(coverage.fully_tolerated) + "/" +
           std::to_string(coverage.scenarios.size()),
       std::to_string(coverage.worst_case_lost),
       bench::Fmt(DuplexThroughput(f), 0)},
      12);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ablation A1: Fig. 2 left (leaf-switched) vs right (high-level)");
  bench::PrintRow({"Design", "Disks", "Hosts", "Hubs", "Switches",
                   "Fabric $", "Tolerated", "WorstLoss", "Duplex MB/s"},
                  12);

  for (int disks : {16, 32, 64}) {
    const int groups = disks / 4;
    Report(("right-" + std::to_string(disks)).c_str(), [groups] {
      return fabric::BuildPrototypeFabric(
          {.groups = groups, .disks_per_leaf = 4});
    });
    Report(("left-" + std::to_string(disks)).c_str(), [disks] {
      // Balance the two trees: odd disks switch to host 1.
      fabric::BuiltFabric f =
          fabric::BuildLeafSwitchedFabric({.disks = disks});
      for (int d = 1; d < disks; d += 2) {
        auto sw = f.topology.Find("swd-" + std::to_string(d));
        if (sw.ok()) f.topology.SetSwitch(*sw, true);
      }
      return f;
    });
    Report(("plain-" + std::to_string(disks)).c_str(), [disks] {
      return fabric::BuildSingleHostTree({.disks = disks});
    });
  }

  std::printf(
      "\nTrade-off (§III-A/§IV-E): the right-hand design needs far fewer\n"
      "switches (cost) and spreads disks over more hosts (throughput), but\n"
      "a leaf-hub failure strands its 4 disks; the left-hand design\n"
      "tolerates every single hub failure at higher part count and only 2\n"
      "root hosts; the plain tree is cheapest and tolerates nothing.\n");
  return 0;
}
