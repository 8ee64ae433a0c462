// Property tests for the incremental sparse max-min solver and the memoized
// active-path cache: against randomized fabrics and mutation sequences, the
// persistent BandwidthSolver must allocate identically (within tolerance) to
// the retained dense reference implementation, and Topology::ActivePath must
// match an uncached walk after every mutation.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "fabric/topology.h"
#include "hw/usb.h"

namespace ustore::fabric {
namespace {

// Allocation rates are in bytes/sec (1e6..1e9 magnitude), so a relative
// tolerance with an absolute floor absorbs FP summation-order differences
// between the incremental and re-summed formulations.
double Tol(double reference) {
  const double rel = (reference < 0 ? -reference : reference) * 1e-6;
  return rel > 1.0 ? rel : 1.0;
}

void ExpectSameAllocation(const BandwidthResult& got,
                          const BandwidthResult& want, const char* context) {
  ASSERT_EQ(got.flows.size(), want.flows.size()) << context;
  for (std::size_t i = 0; i < want.flows.size(); ++i) {
    SCOPED_TRACE(testing::Message() << context << " flow " << i);
    EXPECT_EQ(got.flows[i].attached, want.flows[i].attached);
    EXPECT_NEAR(got.flows[i].rate, want.flows[i].rate, Tol(want.flows[i].rate));
    EXPECT_NEAR(got.flows[i].read_rate, want.flows[i].read_rate,
                Tol(want.flows[i].read_rate));
    EXPECT_NEAR(got.flows[i].write_rate, want.flows[i].write_rate,
                Tol(want.flows[i].write_rate));
  }
  EXPECT_NEAR(got.total, want.total, Tol(want.total)) << context;
  EXPECT_NEAR(got.total_read, want.total_read, Tol(want.total_read)) << context;
  EXPECT_NEAR(got.total_write, want.total_write, Tol(want.total_write))
      << context;
}

void ExpectPathCacheMatchesWalk(const Topology& topology) {
  for (NodeIndex i = 0; i < topology.size(); ++i) {
    EXPECT_EQ(topology.ActivePath(i), topology.WalkActivePath(i))
        << "node " << i << " (" << topology.node(i).name << ")";
  }
}

std::vector<FlowDemand> RandomDemands(const BuiltFabric& f, Rng& rng) {
  static constexpr Bytes kSizes[] = {KiB(4), KiB(64), MiB(1)};
  std::vector<FlowDemand> demands;
  for (NodeIndex disk : f.topology.Disks()) {
    if (rng.NextBool(0.15)) continue;  // some disks idle
    FlowDemand d;
    d.disk = disk;
    d.demand = 1e6 * rng.NextInRange(1, 400);  // 1..400 MB/s
    d.read_fraction = rng.NextDouble();
    d.request_size = kSizes[rng.NextBelow(3)];
    demands.push_back(d);
  }
  return demands;
}

// Applies one random mutation; returns whether anything may have changed.
void RandomMutation(Topology& topology, Rng& rng) {
  const std::vector<NodeIndex> switches =
      topology.NodesOfKind(NodeKind::kSwitch);
  const NodeIndex victim = static_cast<NodeIndex>(
      rng.NextBelow(static_cast<std::uint64_t>(topology.size())));
  switch (rng.NextBelow(switches.empty() ? 2 : 3)) {
    case 0:
      topology.SetFailed(victim, rng.NextBool(0.5));
      break;
    case 1:
      topology.SetPowered(victim, rng.NextBool(0.8));
      break;
    default:
      topology.SetSwitch(
          static_cast<NodeIndex>(switches[rng.NextBelow(switches.size())]),
          rng.NextBool(0.5));
      break;
  }
}

void RunEquivalenceTrial(BuiltFabric f, std::uint64_t seed) {
  Rng rng(seed);
  const hw::UsbHostControllerParams host_params{};
  const hw::UsbLinkParams hub_link{};
  BandwidthSolver solver(&f, host_params, hub_link);

  std::vector<FlowDemand> demands = RandomDemands(f, rng);
  for (int step = 0; step < 60; ++step) {
    if (rng.NextBool(0.4)) {
      RandomMutation(f.topology, rng);
      ExpectPathCacheMatchesWalk(f.topology);
    }
    if (rng.NextBool(0.3)) {
      demands = RandomDemands(f, rng);  // new shape: forces a rebuild
    } else {
      for (FlowDemand& d : demands) {  // same shape, new values: no rebuild
        d.demand = 1e6 * rng.NextInRange(1, 400);
      }
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step);
    ExpectSameAllocation(
        solver.Solve(demands),
        SolveMaxMinFairReference(f, demands, host_params, hub_link), "solve");
  }
}

TEST(SolverEquivalenceTest, PrototypeFabricRandomized) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng shape(seed * 977);
    PrototypeOptions options;
    options.groups = static_cast<int>(2 + shape.NextBelow(4));
    options.disks_per_leaf = static_cast<int>(2 + shape.NextBelow(3));
    RunEquivalenceTrial(BuildPrototypeFabric(options), seed);
  }
}

TEST(SolverEquivalenceTest, SingleHostTreeRandomized) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng shape(seed * 1471);
    SingleHostTreeOptions options;
    options.disks = static_cast<int>(2 + shape.NextBelow(11));
    RunEquivalenceTrial(BuildSingleHostTree(options), seed);
  }
}

TEST(SolverEquivalenceTest, LeafSwitchedFabricRandomized) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng shape(seed * 31337);
    LeafSwitchedOptions options;
    options.disks = static_cast<int>(4 + 4 * shape.NextBelow(4));
    RunEquivalenceTrial(BuildLeafSwitchedFabric(options), seed);
  }
}

TEST(SolverEquivalenceTest, RepeatedSolvesWithoutMutationDoNotRebuild) {
  BuiltFabric f = BuildPrototypeFabric({.groups = 4});
  BandwidthSolver solver(&f, hw::UsbHostControllerParams{},
                         hw::UsbLinkParams{});
  Rng rng(7);
  std::vector<FlowDemand> demands = RandomDemands(f, rng);
  solver.Solve(demands);
  EXPECT_EQ(solver.rebuild_count(), 1u);
  for (int i = 0; i < 20; ++i) {
    for (FlowDemand& d : demands) {
      d.demand = 1e6 * rng.NextInRange(1, 400);
    }
    solver.Solve(demands);
  }
  EXPECT_EQ(solver.solve_count(), 21u);
  EXPECT_EQ(solver.rebuild_count(), 1u);  // demand values alone never rebuild

  const NodeIndex sw = f.topology.NodesOfKind(NodeKind::kSwitch)[0];
  f.topology.SetSwitch(sw, !f.topology.selected(sw));
  solver.Solve(demands);
  EXPECT_EQ(solver.rebuild_count(), 2u);  // topology mutation rebuilds once
  solver.Solve(demands);
  EXPECT_EQ(solver.rebuild_count(), 2u);
}

TEST(SolverEquivalenceTest, WrapperMatchesReference) {
  BuiltFabric f = BuildSingleHostTree({.disks = 8});
  Rng rng(11);
  const std::vector<FlowDemand> demands = RandomDemands(f, rng);
  const hw::UsbHostControllerParams host_params{};
  const hw::UsbLinkParams hub_link{};
  ExpectSameAllocation(
      SolveMaxMinFair(f, demands, host_params, hub_link),
      SolveMaxMinFairReference(f, demands, host_params, hub_link), "wrapper");
}

}  // namespace
}  // namespace ustore::fabric
