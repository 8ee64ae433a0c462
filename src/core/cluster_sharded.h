// The real Cluster on the sharded event engine (DESIGN.md §13).
//
// This file runs the real core::Cluster — Master, meta quorum,
// Controllers, EndPoints, the live fabric and its hw::Disk objects — under
// sim::UnitEngine (the conservative-lookahead engine of sim/sharded.h),
// with the data plane fanned out across shards and the ordering-sensitive
// control plane kept sequential:
//
//   * Cluster::BuildShardPlan partitions the live fabric by root subtree
//     into logical groups; each group owns an Rng, a MetricsRegistry, a
//     TraceBuffer and a hw::DiskStateArray mirroring its disks' hot state
//     (seeded from the real hw::Disk objects after Cluster::Start).
//   * The data plane runs as shard-local events: Poisson bursts submit
//     vectorized SubmitBatchRange sweeps over aligned spin-group ranges,
//     one range drain event retires a whole sweep (FinishDrainRange), and
//     SpinDownSweep fast-forwards idle spin-downs with one re-armed range
//     timer instead of one event per disk.
//   * The Master/meta control plane stays on the shard of group 0 (the
//     "control shard"): a periodic control pump advances the real
//     cluster's own sim::Simulator in identical quanta on every engine
//     (RunUntil(base + engine.now(control_shard))), so heartbeats,
//     failover, re-expose and index updates execute in one total order
//     regardless of shard/thread count.
//   * Cross-shard traffic is mailbox Posts only, and delivery handlers
//     are commutative: groups append to their own per-source control
//     inbox slot (drained by the pump in group order) and assign into
//     their own master slots; the pump replies with per-group acks and
//     directives. The only cluster mutation ever performed happens inside
//     the pump — deliveries never touch the cluster directly, which is
//     what keeps same-timestamp delivery reordering unobservable.
//   * Fallback-to-Disk rule: a disk with an in-flight chaos fault toggle
//     (or one EndPoint::SteadyStateEligible rejected at handoff) leaves
//     the SoA fast path; its I/O is posted to the pump, which drives the
//     full hw::Disk object — callbacks, failure paths, tracing — and
//     posts completions back. The toggle's ack returns it to the array: a
//     fail ack in its failed state, so SubmitBatchRange refuses its
//     batches inside the group's own sweep (cluster.unit.io.rejected), a
//     repair ack only when the disk is eligible. The SoA members of a
//     burst range that holds fallback disks still sweep one
//     SubmitBatchRange per maximal run between them.
//
// The report is a pure function of (options, seed): the determinism fuzz
// in tests/sharded_cluster_test.cc asserts bit-identical ToJson()/Digest()
// between the SingleQueueEngine oracle and ShardedEngine at every
// shard/thread/chaos combination.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "fabric/shard_plan.h"
#include "hw/disk_soa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sharded.h"

namespace ustore::core {

struct ShardedClusterOptions {
  // The real deployment: fabric shape, Master/EndPoint/Controller options,
  // seed. endpoint.idle_spin_down doubles as the SoA idle policy (see
  // idle_timeout below).
  ClusterOptions cluster;

  // Engine shape. Behaviour must not depend on these — only speed. The
  // engine's lookahead is the ShardPlan's derived floor.
  int shards = 1;
  int threads = 1;

  // Data-plane horizon (engine time; the cluster's own clock starts where
  // Cluster::Start() left it and advances in lock-step).
  sim::Duration duration = sim::Seconds(5);
  sim::Duration burst_period = sim::Millis(40);  // per-group Poisson mean
  std::uint64_t burst_ops = 32;                  // per disk per sweep
  Bytes request_size = KiB(512);
  // Disks per vectorized sweep range (aligned, contiguous): the paper's
  // spin-group granularity, default one 15-disk leaf hub.
  int sweep_width = 15;

  // Master flips a group's I/O direction each time the group reports this
  // many further ops (0 disables directives). The pump and the group
  // reports both run every 100 ms.
  std::uint64_t directive_every_ops = 4096;

  // SoA idle spin-down timeout; negative = inherit the EndPoint policy
  // (cluster.endpoint.idle_spin_down, 0 = disabled).
  sim::Duration idle_timeout = -1;

  // Chaos: per burst, probability of requesting a fault toggle on one
  // random disk of the group (fail if mirrored healthy, repair if failed).
  double fault_probability = 0.0;

  // --- Sharded Master: per-group meta leases (DESIGN.md §15) ---
  // With sharded_master on, every group's core::MasterShard requests a
  // revocable meta lease from the central pump at its first report. While
  // held, heartbeats, allocation lookups, steady-state directives and
  // readmit-after-heal decisions are handled on the group's own shard
  // (even-ns, no cross-shard hop); only lease grant/revoke, host-crash
  // failover, fallback I/O and the periodic ops sync
  // (MasterShard::kSyncEvery reports) still escalate. A lease exists only
  // once requested, so this option gates the request alone.
  bool sharded_master = false;
  // Modelled client allocation lookups (disk -> exposing host) per burst.
  // Central mode round-trips each one through the control pump; under a
  // lease the MasterShard answers locally. This is the meta traffic whose
  // pump occupancy the --sharded-master bench sweep measures.
  int meta_lookups_per_burst = 1;
  // Chaos: per burst, probability of requesting a crash of the group's
  // routed host. The pump revokes every lease on that host (failover),
  // restarts the host after host_crash_downtime, and re-grants parked
  // leases with a fresh epoch + index snapshot.
  double host_crash_probability = 0.0;
  sim::Duration host_crash_downtime = sim::Millis(300);
};

struct ShardedClusterGroupReport {
  int host = -1;  // routed host of the group's subtree at setup
  int disks = 0;
  std::uint64_t bursts = 0;
  std::uint64_t range_bursts = 0;  // pure vectorized sweeps
  std::uint64_t mixed_bursts = 0;  // ranges containing fallback disks
  std::uint64_t drains = 0;
  std::uint64_t sweeps = 0;        // spin-down sweep events fired
  std::uint64_t ops = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t spin_cycles = 0;
  std::uint64_t spin_downs = 0;
  std::uint64_t faults_requested = 0;
  std::uint64_t fault_acks = 0;
  std::uint64_t fallback_submits = 0;  // batches routed to the real disk
  std::uint64_t fallback_ops = 0;      // per-op completions posted back
  std::uint64_t reports_sent = 0;
  std::uint64_t directives = 0;
  // Sharded-master lease state (all zero when sharded_master is off).
  std::uint64_t meta_lookups = 0;        // allocation lookups issued
  std::uint64_t meta_lookups_local = 0;  // answered under the group's lease
  std::uint64_t meta_lookup_acks = 0;    // answered by the central pump
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_revokes = 0;
  std::uint64_t lease_syncs = 0;
  std::uint64_t lease_stale_rejects = 0;
  std::uint64_t local_directives = 0;  // direction flips decided locally
  std::uint64_t local_decisions = 0;   // total MasterShard-held decisions
  std::uint64_t host_crashes_requested = 0;
  std::uint64_t control_backlog = 0;  // inbox items past the last pump
  std::uint64_t trace_digest = 0;
  obs::MetricsSnapshot metrics;
};

struct ShardedClusterReport {
  int groups = 0;
  int shards = 0;
  std::uint64_t seed = 0;
  std::uint64_t events_processed = 0;  // engine events; identical by contract
  std::vector<ShardedClusterGroupReport> per_group;

  // Control plane: pump + master-directive state, then the real cluster's
  // own deterministic scalars.
  std::uint64_t pumps = 0;
  std::uint64_t master_directives = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_revokes = 0;
  std::uint64_t host_crashes = 0;
  std::uint64_t host_restarts = 0;
  std::uint64_t central_meta_lookups = 0;  // Master::meta_lookups_served
  int active_master = -1;
  std::uint64_t failovers = 0;
  std::uint64_t allocations_digest = 0;  // FNV-1a of DumpAllocations()
  bool master_index_ok = false;
  std::uint64_t cluster_events = 0;  // the pumped Simulator's event count
  std::uint64_t cluster_end_ns = 0;  // its final clock (absolute)
  std::uint64_t control_trace_digest = 0;
  obs::MetricsSnapshot control_metrics;

  obs::MetricsSnapshot merged;  // groups + control, order-stable

  // Wall-clock pump occupancy — measurement only, EXCLUDED from
  // ToJson()/Digest() like every engine statistic: total wall time the
  // control pump ran, split into control work (inbox drain, lease
  // protocol, directives) vs advancing the inner cluster Simulator.
  std::uint64_t pump_busy_wall_ns = 0;
  std::uint64_t pump_drain_wall_ns = 0;
  std::uint64_t pump_cluster_wall_ns = 0;

  // Canonical deterministic rendering — no engine statistics, no wall
  // clock: a pure function of (options, seed).
  std::string ToJson() const;
  std::uint64_t Digest() const;
};

// Builds and Start()s the real Cluster (serially, on the caller's thread),
// then runs the sharded data plane against it. Construct, Run() once.
class ShardedCluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions options);
  ~ShardedCluster();
  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  const fabric::ShardPlan& plan() const { return plan_; }
  Cluster& cluster() { return *cluster_; }

  // Seeds the workload into `engine` and drains it. The engine must have
  // plan().shards shards (SingleQueueEngine may emulate them).
  ShardedClusterReport Run(sim::UnitEngine& engine);

 private:
  struct Group;
  struct ControlMsg;
  struct ControlState;

  void ScheduleLocal(int shard, sim::Time not_before, sim::EventFn fn);
  void PostControl(int from_shard, ControlMsg msg);
  void BurstEvent(int g);
  void RangeDrainEvent(int g, int first, int count, sim::Time drain_time);
  void SweepEvent(int g, int first, int count, sim::Time due);
  void ReportEvent(int g);
  void MaybeRequestLease(int g);  // group-shard event helper
  void ControlPumpEvent();
  void ApplyFaultToggle(const ControlMsg& msg);
  void ApplyFallbackIo(const ControlMsg& msg);
  void ApplyLeaseSync(const ControlMsg& msg);
  void ApplyHostCrash(const ControlMsg& msg);
  void ApplyMetaLookup(const ControlMsg& msg);
  void ApplyHostRestarts(sim::Time now);
  void GrantLease(int g);
  void RevokeLease(int g);
  Master* ActiveMaster();
  ShardedClusterReport BuildReport();

  ShardedClusterOptions options_;
  obs::MetricsRegistry control_metrics_;
  obs::TraceBuffer control_trace_;
  std::unique_ptr<Cluster> cluster_;
  fabric::ShardPlan plan_;
  sim::Time cluster_base_ = 0;  // cluster clock at handoff
  int control_shard_ = 0;
  std::vector<std::unique_ptr<Group>> groups_;
  std::unique_ptr<ControlState> control_;
  sim::UnitEngine* engine_ = nullptr;  // only during Run()
  bool ran_ = false;
  // Wall-clock pump occupancy accumulators (see the report fields).
  std::uint64_t pump_busy_wall_ns_ = 0;
  std::uint64_t pump_drain_wall_ns_ = 0;
  std::uint64_t pump_cluster_wall_ns_ = 0;
};

// Convenience: build the deployment, pick the engine, run, report. With
// `use_sharded` false the engine is a SingleQueueEngine over a fresh
// sim::Simulator — the bit-exactness oracle (the real cluster's clock is
// pumped identically either way). If `perf` is non-null, the wall-clock
// occupancy metrics (pump.busy_ns, shard.N.barrier_wait_ns, ...) are
// exported into it via ExportShardedPerf.
ShardedClusterReport RunShardedCluster(const ShardedClusterOptions& options,
                                       bool use_sharded,
                                       obs::MetricsRegistry* perf = nullptr);

// Renders `snapshot` in the compact deterministic form the sharded reports
// embed ({"counters":{...},"gauges":{...},"histograms":{...}}); shared
// with the fleet report so merged snapshots render byte-identically.
void AppendSnapshotJson(std::string* out, const obs::MetricsSnapshot& snapshot);

// Fills `registry` with the wall-clock occupancy of a finished run: the
// control pump split (pump.busy_ns / pump.drain_ns / pump.cluster_ns) from
// the report, and — when `engine` is the ShardedEngine that ran it — the
// per-shard busy and not-busy times (shard.<k>.busy_ns,
// shard.<k>.barrier_wait_ns) plus the engine.epochs,
// engine.multi_shard_epochs and engine.cross_posts counts. These are
// measurements; they never appear in the deterministic report.
void ExportShardedPerf(const ShardedClusterReport& report,
                       const sim::ShardedEngine* engine,
                       obs::MetricsRegistry& registry);

}  // namespace ustore::core
