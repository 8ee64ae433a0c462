// Chaos harness tests (DESIGN.md §10).
//
// Two load-bearing properties:
//
//  * Determinism — a ChaosPlan and the full ChaosReport it produces
//    (every sim-time stamp included) are pure functions of (cluster seed,
//    plan seed). The bit-identical test re-runs a whole chaotic cluster
//    lifetime and compares the canonical JSON byte for byte.
//
//  * Recovery coverage — every single-fault scenario that
//    baselines::AnalyzeSingleFaultCoverage enumerates for the prototype
//    fabric (each host, each hub failure unit) is driven through a live
//    cluster and must recover within its deadline with zero invariant
//    violations.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/baselines.h"
#include "common/hash.h"
#include "core/cluster.h"
#include "fabric/builders.h"
#include "fabric/failure_domains.h"
#include "obs/metrics.h"
#include "services/chaos.h"
#include "services/redundancy.h"

namespace ustore::services {
namespace {

ChaosPlan SingleFaultPlan(FaultKind kind, const std::string& target,
                          int index, sim::Duration heal_after) {
  ChaosPlan plan;
  plan.seed = 1;
  FaultOp fault;
  fault.at = sim::Seconds(5);
  fault.kind = kind;
  fault.target = target;
  fault.index = index;
  FaultOp heal = fault;
  heal.kind = HealKindFor(kind);
  heal.at = fault.at + heal_after;
  plan.ops.push_back(fault);
  plan.ops.push_back(heal);
  return plan;
}

// Runs one fault+heal plan against a fresh default (prototype, 4-host /
// 16-disk) cluster and returns the report.
ChaosReport RunSingleFault(FaultKind kind, const std::string& target,
                           int index) {
  core::Cluster cluster;
  cluster.Start();
  ChaosEngine engine(&cluster);
  Status prepared = engine.Prepare();
  EXPECT_TRUE(prepared.ok()) << prepared.ToString();
  if (!prepared.ok()) return engine.report();
  engine.Arm(SingleFaultPlan(kind, target, index, sim::Seconds(15)));
  return engine.RunToCompletion(sim::Seconds(300));
}

TEST(ChaosKinds, EveryDestructiveKindHasAHealAndAName) {
  const FaultKind destructive[] = {
      FaultKind::kDiskFail,        FaultKind::kDiskPowerLoss,
      FaultKind::kUnitFail,        FaultKind::kHostCrash,
      FaultKind::kControllerCrash, FaultKind::kMasterCrash,
      FaultKind::kMetaCrash,       FaultKind::kPartition,
      FaultKind::kRpcDelay,
  };
  for (FaultKind kind : destructive) {
    EXPECT_TRUE(IsDestructive(kind));
    const FaultKind heal = HealKindFor(kind);
    EXPECT_FALSE(IsDestructive(heal));
    EXPECT_NE(FaultKindName(kind), "unknown");
    EXPECT_NE(FaultKindName(heal), "unknown");
    // The heal op keys the same window as the fault it undoes.
    FaultOp fault{.at = 0, .kind = kind, .target = "x", .index = 3};
    FaultOp undo = fault;
    undo.kind = heal;
    EXPECT_EQ(fault.WindowKey(), undo.WindowKey());
  }
}

TEST(ChaosPlan, GenerationIsDeterministicAndPairsHeals) {
  core::Cluster cluster;
  cluster.Start();
  PlanOptions options;
  options.faults = 12;
  const ChaosPlan a = GeneratePlan(cluster, 77, options);
  const ChaosPlan b = GeneratePlan(cluster, 77, options);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  ASSERT_EQ(a.ops.size(), 24u);  // every fault paired with its heal
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].at, b.ops[i].at);
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].Describe(), b.ops[i].Describe());
  }
  for (std::size_t i = 0; i + 1 < a.ops.size(); i += 2) {
    const FaultOp& fault = a.ops[i];
    const FaultOp& heal = a.ops[i + 1];
    EXPECT_TRUE(IsDestructive(fault.kind)) << fault.Describe();
    EXPECT_EQ(heal.kind, HealKindFor(fault.kind));
    EXPECT_EQ(heal.WindowKey(), fault.WindowKey());
    EXPECT_GT(heal.at, fault.at);
  }
  // A different seed must not reproduce the same schedule.
  const ChaosPlan c = GeneratePlan(cluster, 78, options);
  bool differs = false;
  for (std::size_t i = 0; i < c.ops.size(); ++i) {
    if (c.ops[i].at != a.ops[i].at ||
        c.ops[i].Describe() != a.ops[i].Describe()) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

// The headline determinism contract: a whole chaotic cluster lifetime —
// elections, failovers, remounts, probe traffic — replayed from the same
// seeds produces a byte-identical report.
TEST(ChaosEngineTest, FixedSeedReportIsBitIdentical) {
  auto run = [] {
    core::Cluster cluster;
    cluster.Start();
    ChaosEngine engine(&cluster);
    Status prepared = engine.Prepare();
    EXPECT_TRUE(prepared.ok()) << prepared.ToString();
    PlanOptions options;
    options.faults = 5;
    options.heal_after = sim::Seconds(15);
    options.settle_after = sim::Seconds(20);
    engine.Arm(GeneratePlan(cluster, 4242, options));
    return engine.RunToCompletion(sim::Seconds(600)).ToJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// A pinned digest: the report of a seeded plan that crashes the active
// Master and restarts it, then crashes hosts and fails a disk. The test
// above compares two runs with each other; this one fixes the report.
TEST(ChaosEngineTest, MasterCrashPlanReportIsPinned) {
  // The report's health section reads the process-wide metrics registry,
  // so start from an empty one whatever ran before in this process.
  obs::Metrics().Clear();
  core::Cluster cluster;
  cluster.Start();
  ChaosEngine engine(&cluster);
  ASSERT_TRUE(engine.Prepare().ok());
  PlanOptions options;
  options.faults = 4;
  options.heal_after = sim::Seconds(15);
  options.settle_after = sim::Seconds(20);
  const ChaosPlan plan = GeneratePlan(cluster, 7, options);
  ASSERT_FALSE(plan.ops.empty());
  ASSERT_EQ(plan.ops[0].kind, FaultKind::kMasterCrash);
  ASSERT_EQ(cluster.master(plan.ops[0].index), cluster.active_master());
  ASSERT_EQ(plan.ops[1].kind, FaultKind::kMasterRestart);
  engine.Arm(plan);
  const ChaosReport& report = engine.RunToCompletion(sim::Seconds(600));
  EXPECT_EQ(report.invariant_violations, 0);
  EXPECT_EQ(Fnv1a(report.ToJson()), 0x3247d3f152f5dd1fULL);
}

TEST(ChaosEngineTest, SeededPlanRecoversEveryFaultWithoutViolations) {
  core::Cluster cluster;
  cluster.Start();
  ChaosEngine engine(&cluster);
  ASSERT_TRUE(engine.Prepare().ok());
  PlanOptions options;
  options.faults = 6;
  options.heal_after = sim::Seconds(15);
  options.settle_after = sim::Seconds(20);
  engine.Arm(GeneratePlan(cluster, 99, options));
  const ChaosReport& report = engine.RunToCompletion(sim::Seconds(900));
  EXPECT_TRUE(engine.finished());
  EXPECT_EQ(report.faults_injected, 6);
  ASSERT_EQ(report.faults.size(), 6u);
  for (const FaultRecord& fault : report.faults) {
    EXPECT_TRUE(fault.deadline_ok) << fault.fault;
    EXPECT_GE(fault.recovery, 0) << fault.fault;
    EXPECT_LE(fault.recovery, fault.deadline) << fault.fault;
  }
  EXPECT_EQ(report.invariant_violations, 0)
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_GT(report.probe_writes_acked, 0);
  EXPECT_GT(report.probe_reads_verified, 0);
  EXPECT_GE(report.RecoveryPercentile(1.0), report.RecoveryPercentile(0.5));
}

// Every scenario AnalyzeSingleFaultCoverage enumerates for the prototype
// fabric, driven through a live cluster: host scenarios as whole-host
// crashes (tolerated — recovery measured from injection), hub scenarios as
// failure-unit faults (repair-class — measured from the heal). Each must
// recover in-deadline with zero violations; this is the dynamic
// counterpart of the static routability analysis.
TEST(ChaosEngineTest, SingleFaultCoverageScenariosAllRecover) {
  const baselines::FaultCoverage coverage =
      baselines::AnalyzeSingleFaultCoverage(
          [] { return fabric::BuildPrototypeFabric(); });
  ASSERT_FALSE(coverage.scenarios.empty());

  const fabric::BuiltFabric reference = fabric::BuildPrototypeFabric();
  for (const baselines::FaultScenario& scenario : coverage.scenarios) {
    int host_index = -1;
    for (std::size_t h = 0; h < reference.hosts.size(); ++h) {
      if (reference.hosts[h] == scenario.failed_component) {
        host_index = static_cast<int>(h);
      }
    }
    const ChaosReport report =
        host_index >= 0
            ? RunSingleFault(FaultKind::kHostCrash, "", host_index)
            : RunSingleFault(FaultKind::kUnitFail, scenario.failed_component,
                             -1);
    ASSERT_EQ(report.faults.size(), 1u) << scenario.failed_component;
    EXPECT_TRUE(report.faults[0].deadline_ok)
        << scenario.failed_component << ": " << report.faults[0].recovery
        << " ns";
    EXPECT_EQ(report.invariant_violations, 0)
        << scenario.failed_component << ": "
        << (report.violations.empty() ? "" : report.violations.front());
  }
}

TEST(ChaosEngineTest, ActiveMasterCrashFailsOverToStandby) {
  core::Cluster cluster;
  cluster.Start();
  int active = -1;
  for (int i = 0; i < cluster.master_count(); ++i) {
    if (cluster.master(i) == cluster.active_master()) active = i;
  }
  ASSERT_GE(active, 0);
  ChaosEngine engine(&cluster);
  ASSERT_TRUE(engine.Prepare().ok());
  engine.Arm(SingleFaultPlan(FaultKind::kMasterCrash, "", active,
                             sim::Seconds(15)));
  const ChaosReport& report = engine.RunToCompletion(sim::Seconds(300));
  ASSERT_EQ(report.faults.size(), 1u);
  EXPECT_TRUE(report.faults[0].deadline_ok);
  EXPECT_EQ(report.invariant_violations, 0);
  // The standby took over (recovery requires an active master).
  EXPECT_NE(cluster.active_master(), cluster.master(active));
}

// A chaos fault interrupting a declustered rebuild mid-flight is expected
// behaviour, not data loss — as long as the engine's report leaves an
// exact restart point. This drives a real RebuildEngine run into a unit
// fault, feeds the interrupted report through the chaos invariant checker
// (no violation), proves the run resumes to completion after repair, and
// finally checks that a *tampered* report does trip the invariant.
TEST(ChaosRebuild, InterruptedRebuildIsResumableNotLost) {
  constexpr Bytes kChunk = MiB(16);
  constexpr int kData = 2;
  constexpr int kParity = 1;
  constexpr int kWidth = kData + kParity;
  constexpr int kStripes = 8;  // busiest layout disk gets >= 2 chunks
  constexpr std::uint64_t kGenBase = 4400;

  core::Cluster cluster;
  cluster.Start();
  auto client = cluster.MakeClient("chaos-rebuild-client");

  // Every chunk and spare lives on ONE volume on one disk, so failing that
  // disk's unit interrupts whatever the engine has in flight.
  const fabric::FailureDomainMap domains =
      fabric::EnumerateFailureDomains(cluster.fabric().fabric());
  ASSERT_GE(domains.size(), 1);
  const std::string data_disk =
      cluster.fabric().topology().node(domains.domains[0].disks[0]).name;
  Result<core::ClientLib::Volume*> mounted = InternalError("pending");
  client->AllocateAndMountOnDisk(
      "rebuild-pool", GiB(1), data_disk,
      [&](Result<core::ClientLib::Volume*> r) { mounted = r; });
  cluster.RunFor(sim::Seconds(10));
  ASSERT_TRUE(mounted.ok()) << mounted.status();
  core::ClientLib::Volume* pool = *mounted;

  const auto chunk_offset = [](std::uint64_t stripe, int chunk) {
    return (static_cast<Bytes>(stripe) * kWidth + chunk) * kChunk;
  };
  const auto spare_offset = [](std::uint64_t stripe) {
    return (static_cast<Bytes>(kStripes) * kWidth + stripe) * kChunk;
  };
  int acked = 0;
  for (int s = 0; s < kStripes; ++s) {
    for (int c = 0; c < kWidth; ++c) {
      pool->Write(chunk_offset(s, c), kChunk, /*random=*/false,
                  redundancy::ChunkTag(kGenBase + s, c), [&](Status status) {
                    EXPECT_TRUE(status.ok()) << status;
                    ++acked;
                  });
    }
  }
  cluster.RunFor(sim::Seconds(60));
  ASSERT_EQ(acked, kStripes * kWidth);

  fabric::PlacementOptions placement;
  placement.data_chunks = kData;
  placement.parity_chunks = kParity;
  placement.seed = 91;
  redundancy::StripeMap map(placement);
  map.layout().AddDomains(4, 4);
  ASSERT_TRUE(map.AppendMany(kStripes).ok());
  int failed_disk = 0;
  for (int d = 1; d < map.layout().disks(); ++d) {
    if (map.ChunksOnDisk(d).size() > map.ChunksOnDisk(failed_disk).size()) {
      failed_disk = d;
    }
  }
  Result<redundancy::RebuildPlan> plan =
      redundancy::PlanRebuild(map, failed_disk, /*apply=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const int ops = static_cast<int>(plan->ops.size());
  ASSERT_GT(ops, 1);
  std::map<std::uint64_t, int> lost;
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    lost[op.stripe] = op.lost_chunk;
  }
  const auto resolver = [&](std::uint64_t stripe, int chunk,
                            const fabric::ChunkLocation&) {
    const auto it = lost.find(stripe);
    const Bytes offset = it != lost.end() && chunk == it->second
                             ? spare_offset(stripe)
                             : chunk_offset(stripe, chunk);
    return RebuildEngine::ChunkAddress{pool, offset};
  };
  RebuildEngineOptions options;
  options.chunk_size = kChunk;
  options.max_stripes_in_flight = 1;  // in-order completion
  options.total_disks = map.layout().disks();

  ChaosEngine chaos(&cluster);

  // Run the engine and yank the disk's failure unit mid-rebuild.
  RebuildEngine engine(&cluster.sim(), &map, options, resolver);
  RebuildEngineReport report;
  report.status = InternalError("pending");
  bool done = false;
  engine.Execute(*plan, [&](RebuildEngineReport r) {
    report = r;
    done = true;
  });
  cluster.sim().Schedule(sim::MillisD(700), [&] {
    EXPECT_TRUE(cluster.fabric().FailUnit(data_disk).ok());
  });
  cluster.RunFor(sim::Seconds(300));
  ASSERT_TRUE(done);
  ASSERT_FALSE(report.status.ok());
  EXPECT_LT(report.stripes_rebuilt, ops);
  EXPECT_GE(report.resume_from, 0);
  EXPECT_LT(report.resume_from, ops);

  // The invariant checker accepts the interrupted report as resumable.
  chaos.NoteRebuildInterrupted(report);
  EXPECT_EQ(chaos.report().invariant_violations, 0);

  // Repair, remount, resume from the reported op: the rebuild completes.
  ASSERT_TRUE(cluster.fabric().RepairUnit(data_disk).ok());
  cluster.RunFor(sim::Seconds(60));
  RebuildEngine resumed_engine(&cluster.sim(), &map, options, resolver);
  RebuildEngineReport resumed;
  resumed.status = InternalError("pending");
  done = false;
  resumed_engine.ExecuteFrom(report.resume_from, *plan,
                             [&](RebuildEngineReport r) {
                               resumed = r;
                               done = true;
                             });
  cluster.RunFor(sim::Seconds(300));
  ASSERT_TRUE(done);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  EXPECT_EQ(resumed.stripes_rebuilt, ops - report.resume_from);
  EXPECT_EQ(resumed.resume_from, ops);
  for (const redundancy::RebuildStripeOp& op : plan->ops) {
    Result<std::uint64_t> tag = InternalError("pending");
    pool->Read(spare_offset(op.stripe), kChunk, /*random=*/false,
               [&](Result<std::uint64_t> r) { tag = r; });
    cluster.RunFor(sim::Seconds(10));
    ASSERT_TRUE(tag.ok()) << tag.status();
    EXPECT_EQ(*tag, redundancy::ChunkTag(kGenBase + op.stripe,
                                         op.lost_chunk));
  }

  // A doctored report (no restart point) IS an invariant violation.
  RebuildEngineReport bogus = report;
  bogus.resume_from = -1;
  chaos.NoteRebuildInterrupted(bogus);
  EXPECT_EQ(chaos.report().invariant_violations, 1);
}

TEST(ChaosReportTest, PercentilesOnEmptyReportAreSentinel) {
  ChaosReport report;
  EXPECT_EQ(report.RecoveryPercentile(0.5), -1);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"faults_injected\":0"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
}

}  // namespace
}  // namespace ustore::services
