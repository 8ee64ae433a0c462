// Property-style sweeps over fabric sizes and switch configurations:
// structural validity, reachability invariants, fault-tolerance claims and
// bandwidth-cap safety, parameterized over deploy-unit shapes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "hw/disk_model.h"

namespace ustore::fabric {
namespace {

// --- Prototype-shape sweep ------------------------------------------------------

class PrototypeShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(PrototypeShapeTest, ValidatesAtEveryScale) {
  const int groups = GetParam();
  BuiltFabric f = BuildPrototypeFabric({.groups = groups});
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
  EXPECT_EQ(f.topology.Disks().size(), static_cast<std::size_t>(groups * 4));
}

TEST_P(PrototypeShapeTest, EveryDiskAttachedExactlyOnceInAnyConfig) {
  // Under random switch settings, the active-attachment relation must be a
  // function: every disk reaches zero or one host ports, never more (a
  // valid partition of the fabric, §III-A).
  const int groups = GetParam();
  Rng rng(groups * 7919);
  for (int trial = 0; trial < 20; ++trial) {
    BuiltFabric f = BuildPrototypeFabric({.groups = groups});
    for (NodeIndex sw : f.topology.NodesOfKind(NodeKind::kSwitch)) {
      f.topology.SetSwitch(sw, rng.NextBool(0.5));
    }
    for (NodeIndex disk : f.topology.Disks()) {
      // AttachedHostPort is deterministic per config — call twice.
      EXPECT_EQ(f.topology.AttachedHostPort(disk),
                f.topology.AttachedHostPort(disk));
    }
    // No two disks' active paths may disagree about a shared switch —
    // trivially true since paths read global switch state; instead check
    // tree-ness: each node has at most one active parent by construction,
    // so any reached host port set sizes sum consistently.
    std::set<NodeIndex> reached;
    for (NodeIndex disk : f.topology.Disks()) {
      const NodeIndex port = f.topology.AttachedHostPort(disk);
      if (port != kInvalidNode) reached.insert(port);
    }
    EXPECT_LE(reached.size(), f.topology.HostPorts().size());
  }
}

TEST_P(PrototypeShapeTest, HostFailureToleratedAtEveryScale) {
  const int groups = GetParam();
  for (int dead = 0; dead < groups; ++dead) {
    BuiltFabric f = BuildPrototypeFabric({.groups = groups});
    for (NodeIndex port : f.PortsOfHost(dead)) {
      f.topology.SetFailed(port, true);
    }
    for (NodeIndex disk : f.topology.Disks()) {
      EXPECT_FALSE(f.topology.ReachableHostPorts(disk).empty())
          << "groups=" << groups << " dead host=" << dead;
    }
  }
}

TEST_P(PrototypeShapeTest, GroupMoveIsAlwaysConflictFreeToNeighbour) {
  // Moving a whole group to the next host in the ring must never require
  // flipping a switch on another group's path.
  const int groups = GetParam();
  BuiltFabric f = BuildPrototypeFabric({.groups = groups});
  for (int g = 0; g < groups; ++g) {
    const int target = (g + 1) % groups;
    // Flip this group's leaf switch and check only its own disks moved.
    auto swl = f.topology.Find("swl-" + std::to_string(g));
    ASSERT_TRUE(swl.ok());
    f.topology.SetSwitch(*swl, true);
    for (NodeIndex disk : f.topology.Disks()) {
      const int host = f.HostOfDisk(disk);
      const int disk_index = disk;  // not meaningful; use name
      (void)disk_index;
      const std::string& name = f.topology.node(disk).name;
      const int disk_group = std::stoi(name.substr(5)) / 4;
      if (disk_group == g) {
        EXPECT_EQ(host, target) << name;
      } else {
        EXPECT_EQ(host, disk_group) << name;
      }
    }
    f.topology.SetSwitch(*swl, false);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, PrototypeShapeTest,
                         ::testing::Values(2, 3, 4, 6, 8, 16));

// --- Leaf-switched sweep -----------------------------------------------------------

class LeafSwitchedShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(LeafSwitchedShapeTest, ValidatesAndBalances) {
  const int disks = GetParam();
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = disks});
  EXPECT_TRUE(f.topology.Validate(kDefaultHubFanIn).ok());
  // Every disk independently reaches both hosts.
  for (NodeIndex disk : f.topology.Disks()) {
    EXPECT_EQ(f.topology.ReachableHostPorts(disk).size(), 2u);
  }
  // Arbitrary subsets can be split across hosts.
  Rng rng(disks);
  int on_b = 0;
  for (int d = 0; d < disks; ++d) {
    if (rng.NextBool(0.5)) {
      auto sw = f.topology.Find("swd-" + std::to_string(d));
      ASSERT_TRUE(sw.ok());
      f.topology.SetSwitch(*sw, true);
      ++on_b;
    }
  }
  EXPECT_EQ(f.DisksAttachedToHost(1).size(), static_cast<std::size_t>(on_b));
  EXPECT_EQ(f.DisksAttachedToHost(0).size(),
            static_cast<std::size_t>(disks - on_b));
}

TEST_P(LeafSwitchedShapeTest, TierDepthWithinUsbLimit) {
  const int disks = GetParam();
  BuiltFabric f = BuildLeafSwitchedFabric({.disks = disks});
  for (NodeIndex disk : f.topology.Disks()) {
    EXPECT_LE(f.topology.TierOf(disk), 5) << "USB tier limit";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LeafSwitchedShapeTest,
                         ::testing::Values(1, 4, 16, 48, 64));

// --- Bandwidth-cap safety ------------------------------------------------------------

struct CapCase {
  int disks;
  double read_fraction;
  Bytes request_size;
  hw::AccessPattern pattern;
};

class BandwidthCapTest : public ::testing::TestWithParam<CapCase> {};

TEST_P(BandwidthCapTest, AllocationNeverViolatesAnyCap) {
  const CapCase& c = GetParam();
  BuiltFabric f = BuildSingleHostTree({.disks = c.disks});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{c.request_size, c.read_fraction, c.pattern};
  std::vector<FlowDemand> demands;
  for (int i = 0; i < c.disks; ++i) {
    demands.push_back(FlowDemand{f.topology.Disks()[i],
                                 model.Evaluate(spec).bytes_per_sec,
                                 c.read_fraction, c.request_size});
  }
  const hw::UsbHostControllerParams host;
  auto result = SolveMaxMinFair(f, demands, host, hw::UsbLinkParams{});

  const double tolerance = 1.0 + 1e-6;
  EXPECT_LE(result.total_read, host.root_link.cap_per_direction * tolerance);
  EXPECT_LE(result.total_write,
            host.root_link.cap_per_direction * tolerance);
  EXPECT_LE(result.total, host.root_link.cap_duplex_total * tolerance);
  double iops = 0;
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    iops += result.flows[i].rate / static_cast<double>(c.request_size);
    EXPECT_LE(result.flows[i].rate, demands[i].demand * tolerance);
    EXPECT_GE(result.flows[i].rate, 0.0);
  }
  EXPECT_LE(iops, host.transaction_cap * tolerance);

  // Max-min fairness for identical demands: all attached flows equal.
  for (std::size_t i = 1; i < result.flows.size(); ++i) {
    EXPECT_NEAR(result.flows[i].rate, result.flows[0].rate,
                result.flows[0].rate * 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BandwidthCapTest,
    ::testing::Values(CapCase{1, 1.0, KiB(4), hw::AccessPattern::kSequential},
                      CapCase{4, 0.5, KiB(4), hw::AccessPattern::kSequential},
                      CapCase{8, 1.0, KiB(4), hw::AccessPattern::kSequential},
                      CapCase{12, 0.0, KiB(4), hw::AccessPattern::kSequential},
                      CapCase{12, 1.0, KiB(4), hw::AccessPattern::kRandom},
                      CapCase{2, 1.0, MiB(4), hw::AccessPattern::kSequential},
                      CapCase{8, 0.5, MiB(4), hw::AccessPattern::kSequential},
                      CapCase{12, 0.0, MiB(4), hw::AccessPattern::kRandom},
                      CapCase{16, 0.5, MiB(1), hw::AccessPattern::kRandom},
                      CapCase{48, 1.0, KiB(64),
                              hw::AccessPattern::kSequential}));

TEST(BandwidthMonotonicityTest, MoreDisksNeverLessTotal) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  for (double rf : {1.0, 0.5}) {
    hw::WorkloadSpec spec{MiB(4), rf, hw::AccessPattern::kSequential};
    double prev = 0;
    for (int n = 1; n <= 16; ++n) {
      BuiltFabric f = BuildSingleHostTree({.disks = n});
      std::vector<FlowDemand> demands;
      for (int i = 0; i < n; ++i) {
        demands.push_back(FlowDemand{f.topology.Disks()[i],
                                     model.Evaluate(spec).bytes_per_sec, rf,
                                     MiB(4)});
      }
      auto result = SolveMaxMinFair(f, demands,
                                    hw::UsbHostControllerParams{},
                                    hw::UsbLinkParams{});
      EXPECT_GE(result.total, prev - 1.0) << n << " disks, rf=" << rf;
      prev = result.total;
    }
  }
}

}  // namespace
}  // namespace ustore::fabric
