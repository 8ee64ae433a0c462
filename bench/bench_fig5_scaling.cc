// Reproduces Fig. 5 (§VII-A): total throughput of multiple disks attached
// to a single host through the prototype fabric, for 1/2/4/8/12 disks, and
// the duplex experiment (half readers + half writers -> 540 MB/s per root,
// 2160 MB/s across the 4-host prototype).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "hw/disk_model.h"

namespace {

using namespace ustore;

double TotalMBps(int disks, const hw::WorkloadSpec& spec) {
  fabric::BuiltFabric f =
      fabric::BuildSingleHostTree({.disks = disks});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  std::vector<fabric::FlowDemand> demands;
  for (int i = 0; i < disks; ++i) {
    demands.push_back(fabric::FlowDemand{
        f.topology.Disks()[i], model.Evaluate(spec).bytes_per_sec,
        spec.read_fraction, spec.request_size});
  }
  auto result = fabric::SolveMaxMinFair(f, demands,
                                        hw::UsbHostControllerParams{},
                                        hw::UsbLinkParams{});
  return ToMBps(result.total);
}

}  // namespace

int main() {
  struct Workload {
    const char* name;  // paper naming: size + S/R + R/W
    hw::WorkloadSpec spec;
  };
  const Workload workloads[] = {
      {"4K-S-R", {KiB(4), 1.0, hw::AccessPattern::kSequential}},
      {"4K-S-W", {KiB(4), 0.0, hw::AccessPattern::kSequential}},
      {"4K-R-R", {KiB(4), 1.0, hw::AccessPattern::kRandom}},
      {"4K-R-W", {KiB(4), 0.0, hw::AccessPattern::kRandom}},
      {"4M-S-R", {MiB(4), 1.0, hw::AccessPattern::kSequential}},
      {"4M-S-W", {MiB(4), 0.0, hw::AccessPattern::kSequential}},
      {"4M-R-R", {MiB(4), 1.0, hw::AccessPattern::kRandom}},
      {"4M-R-W", {MiB(4), 0.0, hw::AccessPattern::kRandom}},
  };
  const int disk_counts[] = {1, 2, 4, 8, 12};

  bench::PrintHeader(
      "Fig. 5: total throughput (MB/s) vs number of disks on one host");
  std::vector<std::string> header{"Workload"};
  for (int n : disk_counts) header.push_back(std::to_string(n) + " disks");
  bench::PrintRow(header, 12);
  for (const auto& workload : workloads) {
    std::vector<std::string> row{workload.name};
    for (int n : disk_counts) {
      row.push_back(bench::Fmt(TotalMBps(n, workload.spec)));
    }
    bench::PrintRow(row, 12);
  }

  std::printf(
      "\nPaper shape checks:\n"
      "  - small transfers scale with disk count; 8 disks saturate the\n"
      "    tree for 4KB sequential (transaction cap);\n"
      "  - 2 disks fill the ~300 MB/s root bandwidth for 4MB transfers;\n"
      "  - bandwidth is shared evenly among disks (max-min fairness).\n");

  // --- Duplex experiment ----------------------------------------------------
  bench::PrintHeader("Duplex: half readers + half writers, 4MB sequential");
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  {
    fabric::BuiltFabric f = fabric::BuildSingleHostTree({.disks = 4});
    std::vector<fabric::FlowDemand> demands;
    for (int i = 0; i < 4; ++i) {
      hw::WorkloadSpec spec{MiB(4), i < 2 ? 1.0 : 0.0,
                            hw::AccessPattern::kSequential};
      demands.push_back(fabric::FlowDemand{
          f.topology.Disks()[i], model.Evaluate(spec).bytes_per_sec,
          spec.read_fraction, spec.request_size});
    }
    auto result = fabric::SolveMaxMinFair(
        f, demands, hw::UsbHostControllerParams{}, hw::UsbLinkParams{});
    std::printf("one root port: %s MB/s total (paper: 540)\n",
                bench::VsPaper(ToMBps(result.total), 540.0).c_str());
  }
  {
    fabric::BuiltFabric f = fabric::BuildPrototypeFabric();
    std::vector<fabric::FlowDemand> demands;
    for (std::size_t i = 0; i < f.topology.Disks().size(); ++i) {
      hw::WorkloadSpec spec{MiB(4), i % 2 == 0 ? 1.0 : 0.0,
                            hw::AccessPattern::kSequential};
      demands.push_back(fabric::FlowDemand{
          f.topology.Disks()[i], model.Evaluate(spec).bytes_per_sec,
          spec.read_fraction, spec.request_size});
    }
    auto result = fabric::SolveMaxMinFair(
        f, demands, hw::UsbHostControllerParams{}, hw::UsbLinkParams{});
    std::printf(
        "16-disk / 4-host prototype: %s MB/s total (paper: 2160)\n",
        bench::VsPaper(ToMBps(result.total), 2160.0).c_str());
  }
  return 0;
}
