#include "baselines/baselines.h"

#include <algorithm>

namespace ustore::baselines {

BytesPerSec BackblazePodModel::AggregateThroughput(
    const hw::DiskModel& disk, const hw::WorkloadSpec& spec,
    int active) const {
  const int workers = std::min(active, disks);
  const BytesPerSec demand =
      workers * disk.Evaluate(spec).bytes_per_sec;
  return std::min(demand, nic_bandwidth);
}

BytesPerSec PergamumTomeModel::TomeThroughput(
    const hw::DiskModel& disk, const hw::WorkloadSpec& spec) const {
  return std::min(disk.Evaluate(spec).bytes_per_sec,
                  std::min(cpu_limit, nic_bandwidth));
}

BytesPerSec PergamumTomeModel::AggregateThroughput(
    const hw::DiskModel& disk, const hw::WorkloadSpec& spec,
    int tomes) const {
  // Tomes are independent: aggregate scales linearly (the data-center
  // network core is assumed provisioned).
  return tomes * TomeThroughput(disk, spec);
}

FaultCoverage AnalyzeSingleFaultCoverage(
    const std::function<fabric::BuiltFabric()>& make) {
  FaultCoverage out;
  const fabric::BuiltFabric reference = make();
  out.disks_total = static_cast<int>(reference.topology.Disks().size());

  auto run_scenario = [&](const std::string& name,
                          const std::function<void(fabric::BuiltFabric&)>&
                              inject) {
    fabric::BuiltFabric f = make();
    inject(f);
    FaultScenario scenario;
    scenario.failed_component = name;
    for (fabric::NodeIndex disk : f.topology.Disks()) {
      if (f.topology.ReachableHostPorts(disk).empty()) {
        ++scenario.disks_unreachable;
      }
    }
    if (scenario.disks_unreachable == 0) ++out.fully_tolerated;
    out.worst_case_lost =
        std::max(out.worst_case_lost, scenario.disks_unreachable);
    out.average_lost += scenario.disks_unreachable;
    out.scenarios.push_back(std::move(scenario));
  };

  // Host failures: all ports of one host fail together.
  for (std::size_t h = 0; h < reference.hosts.size(); ++h) {
    run_scenario(reference.hosts[h], [h](fabric::BuiltFabric& f) {
      for (fabric::NodeIndex port : f.PortsOfHost(static_cast<int>(h))) {
        f.topology.SetFailed(port, true);
      }
    });
  }
  // Hub failures: the hub plus its failure-unit switch.
  for (fabric::NodeIndex hub :
       reference.topology.NodesOfKind(fabric::NodeKind::kHub)) {
    const std::string name = reference.topology.node(hub).name;
    run_scenario(name, [hub](fabric::BuiltFabric& f) {
      for (fabric::NodeIndex member : f.topology.FailureUnitOf(hub)) {
        f.topology.SetFailed(member, true);
      }
    });
  }

  if (!out.scenarios.empty()) {
    out.average_lost /= static_cast<double>(out.scenarios.size());
  }
  return out;
}

}  // namespace ustore::baselines
