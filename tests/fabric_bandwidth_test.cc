// Bandwidth-solver tests: reproduces the Fig. 5 shapes analytically and
// checks max-min fairness properties.
#include <gtest/gtest.h>

#include <vector>

#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "hw/disk_model.h"

namespace ustore::fabric {
namespace {

hw::DiskModel UsbDiskModel() {
  return hw::DiskModel(hw::DiskParams{}, hw::UsbBridgeInterface());
}

// Builds N identical demands for disks of a single-host tree.
std::vector<FlowDemand> UniformDemands(const BuiltFabric& f, int n,
                                       const hw::WorkloadSpec& spec) {
  const auto standalone = UsbDiskModel().Evaluate(spec);
  std::vector<FlowDemand> demands;
  for (int i = 0; i < n; ++i) {
    demands.push_back(FlowDemand{f.topology.Disks()[i],
                                 standalone.bytes_per_sec, spec.read_fraction,
                                 spec.request_size});
  }
  return demands;
}

BandwidthResult Solve(const BuiltFabric& f,
                      const std::vector<FlowDemand>& demands) {
  return SolveMaxMinFair(f, demands, hw::UsbHostControllerParams{},
                         hw::UsbLinkParams{});
}

TEST(BandwidthTest, SingleDiskGetsItsDemand) {
  BuiltFabric f = BuildSingleHostTree({.disks = 1});
  hw::WorkloadSpec spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
  auto result = Solve(f, UniformDemands(f, 1, spec));
  EXPECT_NEAR(ToMBps(result.total), 185.8, 4.0);  // Table II single disk
}

TEST(BandwidthTest, TwoLargeReadersFillRootBandwidth) {
  // §VII-A: "For large transfers, two disks are enough to fill up the root
  // hub's bandwidth, which is around 300MB/s."
  BuiltFabric f = BuildSingleHostTree({.disks = 2});
  hw::WorkloadSpec spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
  auto result = Solve(f, UniformDemands(f, 2, spec));
  EXPECT_NEAR(ToMBps(result.total), 300.0, 1.0);
  // Shared evenly.
  EXPECT_NEAR(ToMBps(result.flows[0].rate), 150.0, 1.0);
  EXPECT_NEAR(ToMBps(result.flows[1].rate), 150.0, 1.0);
}

TEST(BandwidthTest, LargeTransfersStayAtRootCapAsDisksGrow) {
  for (int n : {4, 8, 12}) {
    BuiltFabric f = BuildSingleHostTree({.disks = n});
    hw::WorkloadSpec spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
    auto result = Solve(f, UniformDemands(f, n, spec));
    EXPECT_NEAR(ToMBps(result.total), 300.0, 1.0) << n << " disks";
  }
}

TEST(BandwidthTest, SmallSequentialScalesThenSaturatesAtEightDisks) {
  // §VII-A: "The sequential throughput of 8 disks can saturate the USB
  // tree" — small transfers are transaction-limited, not bandwidth-limited.
  hw::WorkloadSpec spec{KiB(4), 1.0, hw::AccessPattern::kSequential};
  const double single =
      ToMBps(UsbDiskModel().Evaluate(spec).bytes_per_sec);

  double prev_total = 0;
  for (int n : {1, 2, 4}) {
    BuiltFabric f = BuildSingleHostTree({.disks = n});
    auto result = Solve(f, UniformDemands(f, n, spec));
    EXPECT_NEAR(ToMBps(result.total), n * single, 0.5) << n << " disks";
    EXPECT_GT(ToMBps(result.total), prev_total);
    prev_total = ToMBps(result.total);
  }
  // At 8 and 12 disks the transaction cap binds: total stops growing.
  BuiltFabric f8 = BuildSingleHostTree({.disks = 8});
  auto r8 = Solve(f8, UniformDemands(f8, 8, spec));
  BuiltFabric f12 = BuildSingleHostTree({.disks = 12});
  auto r12 = Solve(f12, UniformDemands(f12, 12, spec));
  const double cap_mbps =
      ToMBps(hw::UsbHostControllerParams{}.transaction_cap * 4096.0);
  EXPECT_NEAR(ToMBps(r8.total), cap_mbps, 2.0);
  EXPECT_NEAR(ToMBps(r12.total), cap_mbps, 2.0);
  EXPECT_LT(ToMBps(r8.total), 8 * single);
}

TEST(BandwidthTest, SmallRandomScalesLinearlyThroughTwelveDisks) {
  // Random 4KB is seek-bound (~190 IO/s/disk) — nowhere near any fabric cap.
  hw::WorkloadSpec spec{KiB(4), 1.0, hw::AccessPattern::kRandom};
  const double single =
      ToMBps(UsbDiskModel().Evaluate(spec).bytes_per_sec);
  BuiltFabric f = BuildSingleHostTree({.disks = 12});
  auto result = Solve(f, UniformDemands(f, 12, spec));
  EXPECT_NEAR(ToMBps(result.total), 12 * single, 0.2);
}

TEST(BandwidthTest, DuplexDoublesThroughput) {
  // §VII-A: half readers + half writers reach ~540 MB/s on one root.
  BuiltFabric f = BuildSingleHostTree({.disks = 4});
  hw::WorkloadSpec read_spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
  hw::WorkloadSpec write_spec{MiB(4), 0.0, hw::AccessPattern::kSequential};
  std::vector<FlowDemand> demands;
  for (int i = 0; i < 4; ++i) {
    const auto& spec = i < 2 ? read_spec : write_spec;
    demands.push_back(FlowDemand{f.topology.Disks()[i],
                                 UsbDiskModel().Evaluate(spec).bytes_per_sec,
                                 spec.read_fraction, spec.request_size});
  }
  auto result = Solve(f, demands);
  EXPECT_NEAR(ToMBps(result.total), 540.0, 2.0);
  EXPECT_NEAR(ToMBps(result.total_read), 270.0, 2.0);
  EXPECT_NEAR(ToMBps(result.total_write), 270.0, 2.0);
}

TEST(BandwidthTest, PrototypeFourHostsSustain2160) {
  // The headline number: 4 hosts x 540 MB/s duplex = 2160 MB/s.
  BuiltFabric f = BuildPrototypeFabric();
  std::vector<FlowDemand> demands;
  const std::vector<NodeIndex>& disks = f.topology.Disks();
  for (std::size_t i = 0; i < disks.size(); ++i) {
    hw::WorkloadSpec spec{MiB(4), i % 2 == 0 ? 1.0 : 0.0,
                          hw::AccessPattern::kSequential};
    demands.push_back(FlowDemand{disks[i],
                                 UsbDiskModel().Evaluate(spec).bytes_per_sec,
                                 spec.read_fraction, spec.request_size});
  }
  auto result = Solve(f, demands);
  EXPECT_NEAR(ToMBps(result.total), 2160.0, 10.0);
}

TEST(BandwidthTest, DetachedDiskGetsZero) {
  BuiltFabric f = BuildSingleHostTree({.disks = 2});
  f.topology.SetFailed(f.topology.Disks()[1], true);
  hw::WorkloadSpec spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
  auto result = Solve(f, UniformDemands(f, 2, spec));
  EXPECT_TRUE(result.flows[0].attached);
  EXPECT_FALSE(result.flows[1].attached);
  EXPECT_DOUBLE_EQ(result.flows[1].rate, 0.0);
  EXPECT_NEAR(ToMBps(result.total), 185.8, 4.0);
}

TEST(BandwidthTest, MaxMinProtectsSmallFlows) {
  // A disk with a tiny demand keeps it; big flows split the rest.
  BuiltFabric f = BuildSingleHostTree({.disks = 3});
  hw::WorkloadSpec big{MiB(4), 1.0, hw::AccessPattern::kSequential};
  std::vector<FlowDemand> demands = UniformDemands(f, 3, big);
  demands[2].demand = MBps(10);  // small flow
  auto result = Solve(f, demands);
  EXPECT_NEAR(ToMBps(result.flows[2].rate), 10.0, 0.1);
  EXPECT_NEAR(ToMBps(result.flows[0].rate), 145.0, 1.0);
  EXPECT_NEAR(ToMBps(result.flows[1].rate), 145.0, 1.0);
}

TEST(BandwidthTest, HubUplinkIsItsOwnBottleneck) {
  // 4 disks behind ONE hub whose uplink duplex-caps at 540: readers on the
  // same hub cannot exceed 300 MB/s even if the host could take more.
  BuiltFabric f = BuildSingleHostTree({.disks = 8});
  hw::WorkloadSpec spec{MiB(4), 1.0, hw::AccessPattern::kSequential};
  // Only load the 4 disks of hub-0.
  auto demands = UniformDemands(f, 4, spec);
  auto result = Solve(f, demands);
  EXPECT_NEAR(ToMBps(result.total), 300.0, 1.0);
}

TEST(BandwidthTest, AllocationNeverExceedsDemand) {
  BuiltFabric f = BuildSingleHostTree({.disks = 12});
  for (double rf : {1.0, 0.5, 0.0}) {
    hw::WorkloadSpec spec{KiB(4), rf, hw::AccessPattern::kSequential};
    auto demands = UniformDemands(f, 12, spec);
    auto result = Solve(f, demands);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_LE(result.flows[i].rate, demands[i].demand * (1 + 1e-6));
    }
  }
}

TEST(BandwidthTest, EmptyDemandsYieldEmptyResult) {
  BuiltFabric f = BuildSingleHostTree({.disks = 1});
  auto result = Solve(f, {});
  EXPECT_DOUBLE_EQ(result.total, 0.0);
  EXPECT_TRUE(result.flows.empty());
}

}  // namespace
}  // namespace ustore::fabric
