// Deterministic chaos harness for the recovery paths.
//
// A ChaosPlan is a seeded, timed schedule of FaultOps (disk failures and
// power cuts, USB failure-unit faults, host/controller/master/meta crashes,
// network partitions and delay injection) that the ChaosEngine replays
// against a live core::Cluster through the existing injection hooks.
// Alongside the schedule an invariant checker keeps probe volumes on every
// disk and continuously verifies:
//
//   * durability  — no acknowledged write is ever lost: a probe read that
//     succeeds must return a tag the prober actually wrote (last ack, or a
//     write whose ack is still uncertain);
//   * recovery    — after each fault the cluster returns to full health
//     (every probe volume mounted and verified, an active Master elected,
//     Master indexes consistent) within a per-fault deadline;
//   * consistency — Master::CheckIndexesForTest holds after every injected
//     op and on every probe sweep.
//
// Determinism contract: everything is driven by the cluster's simulator and
// ustore::Rng, so for a fixed (cluster seed, plan seed) the ChaosReport —
// including every sim-time stamp in it — is bit-identical across runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/cluster.h"
#include "obs/health.h"
#include "services/rebuild.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ustore::services {

enum class FaultKind {
  kDiskFail,           // hw fault of one disk's failure unit (target = disk)
  kDiskRepair,         //   heal: replace + spin up
  kDiskPowerLoss,      // MCU relay cuts one disk's power (target = disk)
  kDiskPowerOn,        //   heal: relay restores power
  kUnitFail,           // hub/switch failure unit (target = hub/switch name)
  kUnitRepair,         //   heal
  kHostCrash,          // whole host: EndPoint + Controller + USB stack
  kHostRestart,        //   heal
  kControllerCrash,    // controller process only (index)
  kControllerRestart,  //   heal
  kMasterCrash,        // master process (index)
  kMasterRestart,      //   heal
  kMetaCrash,          // one metadata quorum member (index)
  kMetaRestart,        //   heal
  kPartition,          // host endpoint <-> all masters (index = host)
  kPartitionHeal,      //   heal
  kRpcDelay,           // extra latency host <-> all masters (index = host)
  kRpcDelayClear,      //   heal
};

std::string_view FaultKindName(FaultKind kind);

// True for kinds that open a fault window (every such kind has a matching
// heal kind that closes it).
bool IsDestructive(FaultKind kind);
// The heal kind paired with a destructive kind.
FaultKind HealKindFor(FaultKind kind);

struct FaultOp {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kHostCrash;
  std::string target;            // disk/hub/switch name for fabric faults
  int index = -1;                // host/controller/master/meta index
  sim::Duration extra_delay = 0; // for kRpcDelay

  // Canonical "kind target" string; also keys fault windows (a heal op
  // matches the destructive op with the same key).
  std::string Describe() const;
  std::string WindowKey() const;
};

struct ChaosPlan {
  std::uint64_t seed = 0;
  std::vector<FaultOp> ops;  // sorted by `at`
};

struct PlanOptions {
  int faults = 6;                                // destructive faults
  sim::Time start_at = sim::Seconds(5);
  sim::Duration heal_after = sim::Seconds(20);   // fault -> heal
  sim::Duration settle_after = sim::Seconds(30); // heal -> next fault
  // Fault classes to draw from (all enabled by default).
  bool disks = true;
  bool power = true;
  bool units = true;
  bool hosts = true;
  bool controllers = true;
  bool masters = true;
  bool meta = true;
  bool partitions = true;
  bool delays = true;
};

// Generates a serialized plan (one destructive fault at a time, each paired
// with its heal) from the cluster's actual shape. Pure function of the
// cluster topology, seed and options.
ChaosPlan GeneratePlan(core::Cluster& cluster, std::uint64_t seed,
                       const PlanOptions& options = {});

// One fault window's outcome. Recovery is measured from `basis`:
// the injection time for faults the system rides out automatically
// (host/controller/master/meta crashes, partitions, delay injection), the
// heal time for faults that need physical repair before the storage can
// come back (disk failures, power cuts, hub/switch units).
struct FaultRecord {
  std::string fault;            // canonical Describe() of the injected op
  sim::Time injected_at = 0;
  sim::Time healed_at = -1;
  sim::Time basis = 0;
  sim::Time recovered_at = -1;  // -1: never recovered (deadline violation)
  sim::Duration recovery = -1;  // recovered_at - basis
  sim::Duration deadline = 0;
  bool deadline_ok = false;
};

struct ChaosReport {
  std::uint64_t seed = 0;
  int faults_injected = 0;
  int probe_writes_acked = 0;
  int probe_reads_verified = 0;
  int invariant_violations = 0;
  std::vector<std::string> violations;  // bounded; sim-time stamps only
  std::vector<FaultRecord> faults;
  // obs::HealthMonitor::ReportJson() over the run: which SLO rules the
  // injected faults actually tripped. Filled by RunToCompletion; empty if
  // health monitoring was disabled.
  std::string health_json;

  // Nearest-rank percentile over completed recoveries; -1 when none.
  sim::Duration RecoveryPercentile(double q) const;
  // Canonical JSON: fixed field order, integers only — bit-identical for a
  // fixed seed.
  std::string ToJson() const;
};

struct ChaosOptions {
  sim::Duration probe_period = sim::MillisD(500);
  Bytes probe_volume_size = MiB(64);
  Bytes probe_io_size = KiB(4);
  int slots_per_volume = 4;
  // An outstanding probe op is abandoned (its late completion only
  // updates shadow bookkeeping) after this long, so a 120 s iSCSI rpc
  // timeout cannot wedge a volume's probe chain.
  sim::Duration probe_supersede = sim::Seconds(8);
  // Recovery deadlines by basis class (see FaultRecord).
  sim::Duration tolerated_deadline = sim::Seconds(30);
  sim::Duration repair_deadline = sim::Seconds(20);
  std::size_t max_recorded_violations = 32;
  // Tumbling-window cadence of the SLO health monitor
  // (obs::DefaultSloRules()) running alongside the invariant checker;
  // 0 disables it.
  sim::Duration health_window = sim::Seconds(10);
};

class ChaosEngine {
 public:
  using Options = ChaosOptions;

  explicit ChaosEngine(core::Cluster* cluster, Options options = {});
  ~ChaosEngine();
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  // Mounts one probe volume per disk (call after Cluster::Start()); runs
  // the sim until every volume is mounted. Must precede Arm().
  Status Prepare();

  // Schedules every plan op plus the probe/invariant sweep onto the
  // cluster's simulator. The caller advances sim time (RunToCompletion, or
  // externally when embedded in a larger workload).
  void Arm(const ChaosPlan& plan);

  // True once every op has been applied and every fault window has closed
  // (recovered or flagged as a deadline violation).
  bool finished() const;

  // Convenience driver: advances the cluster sim in probe-period slices
  // until finished() or `limit` additional sim time has elapsed.
  const ChaosReport& RunToCompletion(sim::Duration limit = sim::Seconds(1800));

  const ChaosReport& report() const { return report_; }

  // A rebuild the armed faults interrupted mid-flight is *expected* — but
  // only if its report leaves an exact restart point. Feeds the report
  // through CheckRebuildResumable (services/rebuild.h); an inconsistent
  // one counts as an invariant violation like a lost probe write would.
  void NoteRebuildInterrupted(const RebuildEngineReport& report);

 private:
  // Shadow state for one probe offset. `acked` is the tag of the last
  // acknowledged write; `maybe` holds tags of writes whose ack never came
  // back OK (they may or may not have reached the platter). A successful
  // read must return one of these.
  struct Slot {
    Bytes offset = 0;
    std::uint64_t acked = 0;
    std::vector<std::uint64_t> maybe;
  };

  struct Probe {
    std::string disk;
    core::ClientLib::Volume* volume = nullptr;
    std::vector<Slot> slots;
    int next_slot = 0;
    std::uint64_t op_id = 0;        // current probe-chain generation
    bool op_in_flight = false;
    sim::Time op_issued_at = -1;
    sim::Time last_verified_at = -1;  // write acked + read verified
  };

  struct Window {
    FaultRecord record;
    bool tolerated = false;  // basis = injection (else waits for heal)
    bool has_basis = false;
  };

  void Apply(const FaultOp& op);
  void OpenOrCloseWindow(const FaultOp& op);
  void ProbeTick();
  void IssueProbe(std::size_t p);
  void OnProbeWriteAck(std::size_t p, std::uint64_t id, int slot,
                       std::uint64_t tag, Status status);
  void FinishProbe(std::size_t p, std::uint64_t id, bool verified);
  void EvaluateRecovery();
  bool ClusterHealthy();
  void CheckMasterInvariants(std::string_view when);
  void Violation(std::string text);

  core::Cluster* cluster_;
  Options options_;
  Rng rng_;
  // Declarative SLO engine over the run's own telemetry: windows close on
  // fixed sim-time boundaries (advanced from the probe sweep), so the
  // alert stream is bit-identical for a fixed seed.
  obs::HealthMonitor health_;
  ChaosPlan plan_;
  std::size_t ops_applied_ = 0;
  bool armed_ = false;
  sim::Timer probe_timer_;
  std::uint64_t tag_counter_ = 0;

  std::vector<std::unique_ptr<core::ClientLib>> clients_;
  std::vector<Probe> probes_;
  std::map<std::string, Window> open_windows_;  // keyed by FaultOp::WindowKey
  ChaosReport report_;

  obs::CounterHandle faults_injected_{"chaos.faults.injected"};
  obs::CounterHandle faults_healed_{"chaos.faults.healed"};
  obs::CounterHandle recoveries_{"chaos.recoveries"};
  obs::CounterHandle violations_{"chaos.invariant.violations"};
  obs::CounterHandle rebuilds_interrupted_{"chaos.rebuild.interrupted"};
};

}  // namespace ustore::services
