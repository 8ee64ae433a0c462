// Determinism and behaviour tests for the real Cluster on the sharded
// engine (DESIGN.md §13, core/cluster_sharded.h).
//
// The central claim under test: running the live core::Cluster — Master,
// meta quorum, Controllers, EndPoints, real hw::Disk objects — under the
// sharded conservative-lookahead engine is bit-identical to the serial
// single-queue oracle at every shard/thread count, with and without chaos
// fault injection. "Bit-identical" means the full canonical report JSON
// (which embeds per-group metric snapshots and trace digests, the master's
// allocation-table digest and the pumped cluster simulator's event count
// and final clock), its FNV digest, and the engine event count.
#include "core/cluster_sharded.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/master_shard.h"
#include "fabric/topology.h"
#include "gtest/gtest.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ustore {
namespace {

// A small prototype deployment (4 hosts, 4 groups, 2 leaf hubs per group =
// 32 disks) tuned so 1.5 simulated seconds exercise every path: vectorized
// sweeps, spin-down/spin-up cycles with the §IV-F back-off, master
// directives, and — under chaos — fault toggles and the fallback-to-Disk
// route through the control pump.
core::ShardedClusterOptions FuzzOptions(std::uint64_t seed, bool chaos) {
  core::ShardedClusterOptions options;
  options.cluster.seed = seed;
  options.cluster.fabric.leaf_hubs_per_group = 2;
  options.cluster.fabric_manager.disk_params.spin_up_time = sim::Millis(500);
  options.cluster.endpoint.idle_spin_down = sim::Millis(400);
  options.duration = sim::Millis(1500);
  options.burst_period = sim::Millis(50);
  options.burst_ops = 16;
  options.request_size = KiB(256);
  options.sweep_width = 4;
  options.directive_every_ops = 1024;
  options.idle_timeout = sim::Millis(50);
  options.fault_probability = chaos ? 0.08 : 0.0;
  return options;
}

// The fabric inputs of the determinism matrices: the 4-group prototype,
// where 8 shards clamp to the 4 subtrees, and an 8-group fabric, where
// 8 shards run one group each.
struct FabricInput {
  int groups;
  std::vector<int> shards;
};

const std::vector<FabricInput>& FabricInputs() {
  static const std::vector<FabricInput> inputs = {{4, {1, 2, 4, 8}},
                                                  {8, {2, 8}}};
  return inputs;
}

TEST(ShardedClusterDeterminismTest, BitIdenticalAcrossShardAndThreadCounts) {
  for (const FabricInput& input : FabricInputs()) {
    for (const bool chaos : {false, true}) {
      core::ShardedClusterOptions options = FuzzOptions(7, chaos);
      options.cluster.fabric.groups = input.groups;
      options.shards = 1;
      const core::ShardedClusterReport oracle =
          core::RunShardedCluster(options, /*use_sharded=*/false);
      const std::string oracle_json = oracle.ToJson();
      ASSERT_GT(oracle.events_processed, 100u);
      ASSERT_EQ(oracle.groups, input.groups);

      for (const int shards : input.shards) {
        for (const int threads : {1, 4}) {
          core::ShardedClusterOptions run = options;
          run.shards = shards;
          run.threads = threads;
          const core::ShardedClusterReport sharded =
              core::RunShardedCluster(run, /*use_sharded=*/true);
          EXPECT_EQ(sharded.ToJson(), oracle_json)
              << "groups=" << input.groups << " chaos=" << chaos
              << " shards=" << shards << " threads=" << threads;
          EXPECT_EQ(sharded.Digest(), oracle.Digest());
          EXPECT_EQ(sharded.events_processed, oracle.events_processed);
          EXPECT_EQ(sharded.cluster_events, oracle.cluster_events);
          EXPECT_EQ(sharded.control_trace_digest, oracle.control_trace_digest);
          for (int g = 0; g < oracle.groups; ++g) {
            EXPECT_EQ(sharded.per_group[g].trace_digest,
                      oracle.per_group[g].trace_digest)
                << "group " << g;
          }
        }
      }
    }
  }
}

TEST(ShardedClusterDeterminismTest, SecondSeedMatchesUnderChaos) {
  // A second seed at the widest configuration, to catch schedule-dependent
  // luck in the first one.
  core::ShardedClusterOptions options = FuzzOptions(99, true);
  options.shards = 1;
  const core::ShardedClusterReport oracle =
      core::RunShardedCluster(options, false);
  core::ShardedClusterOptions run = FuzzOptions(99, true);
  run.shards = 4;
  run.threads = 4;
  const core::ShardedClusterReport sharded =
      core::RunShardedCluster(run, true);
  EXPECT_EQ(sharded.ToJson(), oracle.ToJson());
  EXPECT_EQ(sharded.events_processed, oracle.events_processed);
}

TEST(ShardedClusterDeterminismTest, OracleMatchesItselfAtEmulatedShards) {
  // The single-queue oracle emulates any shard count; the report must not
  // depend on the emulated count either.
  core::ShardedClusterOptions options = FuzzOptions(5, true);
  options.shards = 1;
  const std::string one = core::RunShardedCluster(options, false).ToJson();
  options.shards = 4;
  EXPECT_EQ(core::RunShardedCluster(options, false).ToJson(), one);
}

// A pinned digest for bursts whose SoA runs drain at different times:
// narrow sweep ranges, a 50 ms idle spin-down and 500 ms spin-ups leave
// some disks of a range spun down while others are mid-drain, and fault
// chaos splits ranges around fallback disks. The per-disk SubmitBatch
// reference path gives this same digest, so the pin holds a mixed burst's
// per-run sweeps to it: drain instant, spin-ups and rejections. (The
// KiloDisk pin's ranges stay uniform: every disk of a range is mid-drain.)
TEST(ShardedClusterDeterminismTest, MixedBurstChaosDigestIsPinned) {
  core::ShardedClusterOptions options = FuzzOptions(1, /*chaos=*/true);
  options.sweep_width = 8;
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, /*use_sharded=*/false);
  std::uint64_t mixed_bursts = 0;
  std::uint64_t spin_cycles = 0;
  for (const core::ShardedClusterGroupReport& group : report.per_group) {
    mixed_bursts += group.mixed_bursts;
    spin_cycles += group.spin_cycles;
  }
  EXPECT_GT(mixed_bursts, 0u);
  EXPECT_GT(spin_cycles, 0u);
  EXPECT_EQ(report.events_processed, 804u);
  EXPECT_EQ(report.Digest(), 0x5914ad99e69b6060ULL);
}

TEST(ShardedClusterTest, ClusterExposesShardPlanForItsFabric) {
  // The plan a ShardedCluster partitions by, built for a plain Cluster.
  core::ClusterOptions options;
  core::Cluster cluster(options);
  const fabric::ShardPlan plan = cluster.BuildShardPlan(2);
  EXPECT_GE(plan.groups(), 1);
  EXPECT_LE(plan.shards, std::max(plan.groups(), 1));
  EXPECT_GT(plan.lookahead, sim::Micros(200));  // rpc floor + usb hop
}

TEST(ShardedClusterTest, WorkloadExercisesTheRealCluster) {
  core::ShardedClusterOptions options = FuzzOptions(11, true);
  options.shards = 4;
  options.threads = 2;
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, true);

  EXPECT_EQ(report.groups, 4);
  std::uint64_t ops = 0, range_bursts = 0, spin_downs = 0, spin_cycles = 0;
  std::uint64_t faults = 0, acks = 0, fallback_ops = 0, directives = 0;
  for (const auto& grp : report.per_group) {
    EXPECT_EQ(grp.disks, 8);
    EXPECT_GE(grp.host, 0);
    EXPECT_GT(grp.bursts, 0u);
    EXPECT_GT(grp.reports_sent, 0u);
    EXPECT_NE(grp.trace_digest, 0u);
    ops += grp.ops;
    range_bursts += grp.range_bursts;
    spin_downs += grp.spin_downs;
    spin_cycles += grp.spin_cycles;
    faults += grp.faults_requested;
    acks += grp.fault_acks;
    fallback_ops += grp.fallback_ops;
    directives += grp.directives;
  }
  EXPECT_GT(ops, 0u);
  EXPECT_GT(range_bursts, 0u);   // the vectorized fast path ran
  EXPECT_GT(spin_downs, 0u);     // idle spin-down engaged
  EXPECT_GT(spin_cycles, 0u);    // and disks spun back up
  EXPECT_GT(faults, 0u);         // chaos injection ran
  EXPECT_GT(acks, 0u);           // the pump toggled real disks and acked
  EXPECT_GT(fallback_ops, 0u);   // I/O flowed through real hw::Disk objects
  EXPECT_GT(directives, 0u);     // master -> group control traffic
  EXPECT_EQ(report.master_directives, directives);

  // The real control plane stayed live and sane under the pump.
  EXPECT_GT(report.pumps, 0u);
  EXPECT_GE(report.active_master, 0);
  EXPECT_TRUE(report.master_index_ok);
  EXPECT_NE(report.allocations_digest, 0u);
  EXPECT_GT(report.cluster_events, 0u);
}

// ---------------------------------------------------------------------------
// Sharded Master: per-group meta leases (DESIGN.md §15).

// FuzzOptions with the sharded Master on: two meta lookups on every burst
// and — under chaos — host crashes driving the lease revoke / park /
// re-grant path on top of the fault toggles.
core::ShardedClusterOptions ShardedMasterOptions(std::uint64_t seed,
                                                 bool chaos) {
  core::ShardedClusterOptions options = FuzzOptions(seed, chaos);
  options.sharded_master = true;
  options.meta_lookups_per_burst = 2;
  if (chaos) {
    options.host_crash_probability = 0.04;
    options.host_crash_downtime = sim::Millis(250);
  }
  return options;
}

TEST(ShardedMasterDeterminismTest, BitIdenticalAcrossShardAndThreadCounts) {
  for (const FabricInput& input : FabricInputs()) {
    for (const bool chaos : {false, true}) {
      core::ShardedClusterOptions options = ShardedMasterOptions(7, chaos);
      options.cluster.fabric.groups = input.groups;
      options.shards = 1;
      const core::ShardedClusterReport oracle =
          core::RunShardedCluster(options, /*use_sharded=*/false);
      const std::string oracle_json = oracle.ToJson();
      ASSERT_GT(oracle.events_processed, 100u);
      ASSERT_EQ(oracle.groups, input.groups);

      for (const int shards : input.shards) {
        for (const int threads : {1, 4}) {
          core::ShardedClusterOptions run = options;
          run.shards = shards;
          run.threads = threads;
          const core::ShardedClusterReport sharded =
              core::RunShardedCluster(run, /*use_sharded=*/true);
          EXPECT_EQ(sharded.ToJson(), oracle_json)
              << "groups=" << input.groups << " chaos=" << chaos
              << " shards=" << shards << " threads=" << threads;
          EXPECT_EQ(sharded.Digest(), oracle.Digest());
          EXPECT_EQ(sharded.events_processed, oracle.events_processed);
        }
      }
    }
  }
}

TEST(ShardedMasterDeterminismTest, FuzzedSeedsMatchUnderCrashChaos) {
  // More seeds at the widest configuration: the lease grant/revoke timing
  // interleaves with crash windows differently per seed, which is exactly
  // the schedule space the digest must be independent of.
  for (const std::uint64_t seed : {23u, 57u, 121u}) {
    core::ShardedClusterOptions options = ShardedMasterOptions(seed, true);
    options.shards = 1;
    const core::ShardedClusterReport oracle =
        core::RunShardedCluster(options, false);
    core::ShardedClusterOptions run = ShardedMasterOptions(seed, true);
    run.shards = 4;
    run.threads = 4;
    const core::ShardedClusterReport sharded =
        core::RunShardedCluster(run, true);
    EXPECT_EQ(sharded.ToJson(), oracle.ToJson()) << "seed=" << seed;
    EXPECT_EQ(sharded.events_processed, oracle.events_processed);
  }
}

// A pinned digest: a 1,024-disk unit with the sharded Master under fault
// and host-crash chaos. The determinism tests above compare engines with
// each other; this one fixes the behaviour itself, so a refactor that
// claims to keep the simulated behaviour must keep this value.
TEST(ShardedMasterDeterminismTest, KiloDiskChaosDigestIsPinned) {
  core::ShardedClusterOptions options;
  options.cluster.seed = 42;
  options.cluster.fabric.groups = 8;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group = 32;
  options.duration = sim::Seconds(1);
  options.burst_period = sim::Millis(5);
  options.burst_ops = 32;
  options.request_size = KiB(512);
  options.sweep_width = 256;
  options.idle_timeout = sim::Millis(100);
  options.directive_every_ops = 1024 * 64;
  options.fault_probability = 0.01;
  options.sharded_master = true;
  options.host_crash_probability = 0.002;
  options.host_crash_downtime = sim::Millis(300);
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, /*use_sharded=*/false);
  std::uint64_t faults = 0;
  std::uint64_t mixed_bursts = 0;
  std::uint64_t fallback_submits = 0;
  for (const core::ShardedClusterGroupReport& group : report.per_group) {
    faults += group.faults_requested;
    mixed_bursts += group.mixed_bursts;
    fallback_submits += group.fallback_submits;
  }
  // The chaos reached both the fabric and the lease protocol.
  EXPECT_GT(faults, 0u);
  // And the SoA range path split around fallback disks, so the pin covers
  // the per-run sweeps of mixed bursts.
  EXPECT_GT(mixed_bursts, 0u);
  EXPECT_GT(fallback_submits, 0u);
  // A fault-acked disk is refused inside its group's own sweep; the pump
  // carries I/O only while a toggle is in flight. So the group sweeps
  // refuse more ops than the fallback path carries.
  const auto rejected = report.merged.counters.find("cluster.unit.io.rejected");
  ASSERT_NE(rejected, report.merged.counters.end());
  EXPECT_GT(rejected->second, fallback_submits * options.burst_ops);
  EXPECT_GT(report.host_crashes, 0u);
  EXPECT_GT(report.lease_revokes, 0u);
  EXPECT_TRUE(report.master_index_ok);
  EXPECT_EQ(report.events_processed, 4484u);
  EXPECT_EQ(report.Digest(), 0x8fb933485e1cec68ULL);
}

TEST(ShardedMasterTest, LeasesMoveMetaDecisionsOffThePump) {
  // Same deployment with and without the sharded Master: leases must move
  // the meta traffic from pump round-trips to shard-local decisions.
  core::ShardedClusterOptions central = FuzzOptions(31, false);
  central.meta_lookups_per_burst = 2;
  central.shards = 4;
  const core::ShardedClusterReport before =
      core::RunShardedCluster(central, true);

  core::ShardedClusterOptions leased = ShardedMasterOptions(31, false);
  leased.shards = 4;
  const core::ShardedClusterReport after =
      core::RunShardedCluster(leased, true);

  // Central mode: every lookup is a pump round-trip, nothing is local.
  std::uint64_t central_lookups = 0;
  for (const auto& grp : before.per_group) {
    EXPECT_EQ(grp.meta_lookups_local, 0u);
    EXPECT_EQ(grp.meta_lookup_acks, grp.meta_lookups);
    EXPECT_EQ(grp.lease_grants, 0u);
    EXPECT_EQ(grp.local_decisions, 0u);
    central_lookups += grp.meta_lookups;
  }
  EXPECT_GT(central_lookups, 0u);
  EXPECT_EQ(before.central_meta_lookups, central_lookups);
  EXPECT_EQ(before.lease_grants, 0u);

  // Leased mode: every group holds a lease, and the overwhelming share of
  // lookups/heartbeats/directives resolve on the group's own shard.
  EXPECT_EQ(after.lease_grants, static_cast<std::uint64_t>(after.groups));
  EXPECT_EQ(after.lease_revokes, 0u);  // no chaos: nothing revokes
  std::uint64_t local = 0, escalated = 0, local_directives = 0;
  for (const auto& grp : after.per_group) {
    EXPECT_EQ(grp.lease_grants, 1u);
    EXPECT_EQ(grp.lease_stale_rejects, 0u);
    EXPECT_EQ(grp.meta_lookups, grp.meta_lookups_local + grp.meta_lookup_acks);
    EXPECT_GT(grp.meta_lookups_local, grp.meta_lookup_acks);
    EXPECT_GT(grp.local_decisions, 0u);
    local += grp.meta_lookups_local;
    escalated += grp.meta_lookup_acks;
    local_directives += grp.local_directives;
  }
  EXPECT_GT(local, escalated);
  EXPECT_EQ(after.central_meta_lookups, escalated);
  // Steady-state directives are decided locally once leases are held; the
  // central pump only directed the pre-grant window.
  EXPECT_GT(local_directives, 0u);
  EXPECT_LT(after.master_directives, before.master_directives);
}

TEST(ShardedMasterTest, HostCrashRevokesParksAndRegrants) {
  core::ShardedClusterOptions options = ShardedMasterOptions(43, true);
  options.shards = 4;
  options.threads = 2;
  // Crash hard enough that several grant->revoke->re-grant round trips
  // happen inside the horizon.
  options.host_crash_probability = 0.10;
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, true);

  EXPECT_GT(report.host_crashes, 0u);
  EXPECT_GT(report.host_restarts, 0u);
  EXPECT_GT(report.lease_revokes, 0u);
  // Every revoke was re-granted after the host restarted (plus the initial
  // grant per group), so grants strictly exceed revokes.
  EXPECT_GT(report.lease_grants, report.lease_revokes);
  EXPECT_GE(report.lease_grants,
            static_cast<std::uint64_t>(report.groups));
  std::uint64_t crash_requests = 0;
  for (const auto& grp : report.per_group) {
    crash_requests += grp.host_crashes_requested;
    // Epoch discipline held: nothing stale was ever applied (the pump's
    // source-FIFO posts arrive in order; the guard is belt-and-braces).
    EXPECT_EQ(grp.lease_stale_rejects, 0u);
  }
  EXPECT_GE(crash_requests, report.host_crashes);  // dedup'd by the pump
  EXPECT_TRUE(report.master_index_ok);
}

// ---------------------------------------------------------------------------
// core::MasterShard unit behaviour.

TEST(MasterShardTest, GrantRevokeEpochDiscipline) {
  core::MasterShard shard(/*directive_every_ops=*/100);
  EXPECT_FALSE(shard.lease_held());
  EXPECT_FALSE(shard.OnReport(10).local);  // leaseless: escalate

  core::MetaLeaseIndex index;
  index.disk_host = {3, 3, 5};
  index.disk_failed = {0, 0, 1};
  index.ops_baseline = 250;
  ASSERT_TRUE(shard.Grant(1, index));
  EXPECT_TRUE(shard.lease_held());
  EXPECT_EQ(shard.lease_epoch(), 1u);

  // Stale epochs (<= last applied) are rejected and counted, whether they
  // are grants or revokes.
  EXPECT_FALSE(shard.Grant(1, index));
  EXPECT_FALSE(shard.Revoke(0));
  EXPECT_EQ(shard.stale_rejected(), 2u);
  EXPECT_TRUE(shard.lease_held());

  // A fresh-epoch revoke takes effect; a re-grant needs a newer epoch yet.
  ASSERT_TRUE(shard.Revoke(2));
  EXPECT_FALSE(shard.lease_held());
  EXPECT_FALSE(shard.Grant(2, index));
  EXPECT_EQ(shard.stale_rejected(), 3u);
  ASSERT_TRUE(shard.Grant(3, index));
  EXPECT_TRUE(shard.lease_held());
  EXPECT_EQ(shard.lease_epoch(), 3u);
  // Neither grants nor revokes are decisions held under the lease.
  EXPECT_EQ(shard.local_decisions(), 0u);
}

TEST(MasterShardTest, LookupHonorsMirrorAndBounds) {
  core::MasterShard shard(/*directive_every_ops=*/0);
  core::MetaLeaseIndex index;
  index.disk_host = {7, 8};
  index.disk_failed = {0, 1};
  ASSERT_TRUE(shard.Grant(1, index));
  EXPECT_EQ(shard.LookupHost(0), 7);
  EXPECT_EQ(shard.LookupHost(1), -1);  // failed in the mirror
  EXPECT_EQ(shard.LookupHost(2), -1);  // out of range
  EXPECT_EQ(shard.LookupHost(-1), -1);
  EXPECT_EQ(shard.local_decisions(), 4u);  // every lookup is one decision

  // Mirror maintenance: heal disk 1, fail disk 0.
  shard.NoteFault(1, false);
  shard.NoteFault(0, true);
  EXPECT_EQ(shard.LookupHost(1), 8);
  EXPECT_EQ(shard.LookupHost(0), -1);
  EXPECT_EQ(shard.local_decisions(), 6u);  // mirror upkeep decides nothing
  EXPECT_TRUE(shard.ReadmitAfterHeal(0, true));
  EXPECT_EQ(shard.local_decisions(), 7u);  // a readmit is one decision
  EXPECT_EQ(shard.LookupHost(0), 7);
  EXPECT_FALSE(shard.ReadmitAfterHeal(0, false));  // decision == eligibility
  EXPECT_EQ(shard.local_decisions(), 9u);
}

TEST(MasterShardTest, DirectiveFlipsResumeFromBaselineAndSyncCadenceHolds) {
  core::MasterShard shard(/*directive_every_ops=*/100);
  core::MetaLeaseIndex index;
  index.ops_baseline = 250;  // the pump already directed up to 250
  ASSERT_TRUE(shard.Grant(1, index));
  EXPECT_EQ(shard.directed_at(), 250u);

  // 320 ops: not yet 100 past the baseline — no flip re-issued.
  auto d = shard.OnReport(320);
  EXPECT_TRUE(d.local);
  EXPECT_EQ(d.directives, 0);
  EXPECT_FALSE(d.sync_due);

  // 561 ops: three flips due (350, 450, 550); cursor parks at 550.
  d = shard.OnReport(561);
  EXPECT_EQ(d.directives, 3);
  EXPECT_EQ(shard.directed_at(), 550u);

  // Reports are monotonic: a stale/duplicate total never rolls back.
  d = shard.OnReport(400);
  EXPECT_EQ(d.directives, 0);
  EXPECT_EQ(shard.directed_at(), 550u);
  EXPECT_FALSE(d.sync_due);

  // The sync escalates on every kSyncEvery-th held report, and only then.
  static_assert(core::MasterShard::kSyncEvery > 3);
  for (std::uint64_t report = 4; report <= 2 * core::MasterShard::kSyncEvery;
       ++report) {
    d = shard.OnReport(561);
    EXPECT_TRUE(d.local);
    EXPECT_EQ(d.directives, 0);
    EXPECT_EQ(d.sync_due, report % core::MasterShard::kSyncEvery == 0)
        << "report " << report;
  }
  // Every held report is one local decision; the flips are counted apart.
  EXPECT_EQ(shard.local_decisions(), 2 * core::MasterShard::kSyncEvery);
  EXPECT_EQ(shard.local_directives(), 3u);

  // A re-grant restarts the cadence from the new baseline.
  ASSERT_TRUE(shard.Revoke(2));
  EXPECT_FALSE(shard.OnReport(900).local);
  index.ops_baseline = 600;
  ASSERT_TRUE(shard.Grant(3, index));
  EXPECT_EQ(shard.directed_at(), 600u);
  for (std::uint64_t report = 1; report < core::MasterShard::kSyncEvery;
       ++report) {
    EXPECT_FALSE(shard.OnReport(600).sync_due) << "report " << report;
  }
  EXPECT_TRUE(shard.OnReport(600).sync_due);
}

TEST(ShardedClusterTest, FaultFreeRunKeepsEveryDiskOnTheSoaPath) {
  core::ShardedClusterOptions options = FuzzOptions(3, false);
  options.shards = 2;
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, true);
  for (const auto& grp : report.per_group) {
    EXPECT_EQ(grp.mixed_bursts, 0u);
    EXPECT_EQ(grp.fallback_submits, 0u);
    EXPECT_EQ(grp.faults_requested, 0u);
    EXPECT_EQ(grp.bursts, grp.range_bursts);
  }
}

// A count the report holds as a typed field is not recorded again as a
// registry counter: none of these names appears in any snapshot, even with
// leases, fault chaos and host crashes driving every field they twinned.
TEST(ShardedClusterTest, ReportKeepsEachCountOnce) {
  core::ShardedClusterOptions options = ShardedMasterOptions(43, true);
  options.host_crash_probability = 0.10;
  const core::ShardedClusterReport report =
      core::RunShardedCluster(options, /*use_sharded=*/false);

  std::uint64_t faults = 0, acks = 0, fallback_submits = 0, grants = 0;
  std::uint64_t revokes = 0, crash_requests = 0;
  for (const core::ShardedClusterGroupReport& grp : report.per_group) {
    faults += grp.faults_requested;
    acks += grp.fault_acks;
    fallback_submits += grp.fallback_submits;
    grants += grp.lease_grants;
    revokes += grp.lease_revokes;
    crash_requests += grp.host_crashes_requested;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(acks, 0u);
  EXPECT_GT(fallback_submits, 0u);
  EXPECT_GT(grants, 0u);
  EXPECT_GT(revokes, 0u);
  EXPECT_GT(crash_requests, 0u);
  EXPECT_GT(report.pumps, 0u);
  EXPECT_GT(report.lease_grants, 0u);
  EXPECT_GT(report.lease_revokes, 0u);
  EXPECT_GT(report.host_crashes, 0u);
  EXPECT_GT(report.host_restarts, 0u);

  const std::vector<std::string> twins = {
      "cluster.unit.fault.requested",       "cluster.unit.host_crash.requested",
      "cluster.unit.meta_lookup.local",     "cluster.unit.meta_lookup.escalated",
      "cluster.unit.fallback.submitted",    "cluster.unit.io.ops",
      "cluster.unit.io.drained",            "cluster.unit.spin.down",
      "cluster.unit.report.sent",           "cluster.unit.directive.local",
      "cluster.unit.lease.sync",            "cluster.unit.fault.acks",
      "cluster.unit.lease.granted",         "cluster.unit.lease.revoked",
      "cluster.unit.meta_lookup.ack",       "cluster.unit.directive.received",
      "master_shard.local_decisions",       "master_shard.local_directives",
      "master_shard.stale_rejects",         "cluster.control.pumps",
      "cluster.control.lease_grants",       "cluster.control.lease_revokes",
      "cluster.control.host_crashes",       "cluster.control.host_restarts"};
  std::vector<const obs::MetricsSnapshot*> snapshots = {
      &report.control_metrics, &report.merged};
  for (const core::ShardedClusterGroupReport& grp : report.per_group) {
    snapshots.push_back(&grp.metrics);
  }
  for (const obs::MetricsSnapshot* snapshot : snapshots) {
    for (const std::string& name : twins) {
      EXPECT_EQ(snapshot->counters.count(name), 0u) << name;
    }
  }
}

// Per-disk state lives in the SoA and the Master, not in the metrics: no
// metric name in any snapshot of the report names a disk, even after chaos
// has driven the real hw::Disk objects through fault toggles and
// fallback I/O.
TEST(ShardedClusterTest, NoMetricNameNamesADisk) {
  const core::ShardedClusterOptions options = ShardedMasterOptions(7, true);
  core::ShardedCluster unit(options);
  sim::Simulator sim;
  sim::SingleQueueEngine engine(&sim, unit.plan().shards,
                                unit.plan().lookahead);
  const core::ShardedClusterReport report = unit.Run(engine);
  std::uint64_t acks = 0;
  for (const core::ShardedClusterGroupReport& grp : report.per_group) {
    acks += grp.fault_acks;
  }
  ASSERT_GT(acks, 0u);  // the pump toggled real disks

  const fabric::Topology& topology = unit.cluster().fabric().topology();
  std::vector<const obs::MetricsSnapshot*> snapshots = {
      &report.control_metrics, &report.merged};
  for (const core::ShardedClusterGroupReport& grp : report.per_group) {
    snapshots.push_back(&grp.metrics);
  }
  auto expect_no_disk = [&](const std::string& metric) {
    for (const fabric::NodeIndex disk : topology.Disks()) {
      const std::string& name = topology.node(disk).name;
      EXPECT_EQ(metric.find(name), std::string::npos)
          << metric << " names " << name;
    }
  };
  for (const obs::MetricsSnapshot* snapshot : snapshots) {
    for (const auto& [metric, value] : snapshot->counters) {
      expect_no_disk(metric);
    }
    for (const auto& [metric, gauge] : snapshot->gauges) {
      expect_no_disk(metric);
    }
    for (const auto& [metric, histogram] : snapshot->histograms) {
      expect_no_disk(metric);
    }
  }
}

}  // namespace
}  // namespace ustore
