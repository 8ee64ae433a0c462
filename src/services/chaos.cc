#include "services/chaos.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "obs/trace.h"

namespace ustore::services {

namespace {

// Tolerated faults are absorbed by the control plane (failover, elections,
// retries) without human intervention, so recovery is measured from the
// moment of injection. Repair-class faults take the storage itself away;
// nothing can re-expose it before the heal op, so recovery is measured
// from the heal.
bool IsTolerated(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHostCrash:
    case FaultKind::kControllerCrash:
    case FaultKind::kMasterCrash:
    case FaultKind::kMetaCrash:
    case FaultKind::kPartition:
    case FaultKind::kRpcDelay:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDiskFail: return "disk-fail";
    case FaultKind::kDiskRepair: return "disk-repair";
    case FaultKind::kDiskPowerLoss: return "disk-power-loss";
    case FaultKind::kDiskPowerOn: return "disk-power-on";
    case FaultKind::kUnitFail: return "unit-fail";
    case FaultKind::kUnitRepair: return "unit-repair";
    case FaultKind::kHostCrash: return "host-crash";
    case FaultKind::kHostRestart: return "host-restart";
    case FaultKind::kControllerCrash: return "controller-crash";
    case FaultKind::kControllerRestart: return "controller-restart";
    case FaultKind::kMasterCrash: return "master-crash";
    case FaultKind::kMasterRestart: return "master-restart";
    case FaultKind::kMetaCrash: return "meta-crash";
    case FaultKind::kMetaRestart: return "meta-restart";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kPartitionHeal: return "partition-heal";
    case FaultKind::kRpcDelay: return "rpc-delay";
    case FaultKind::kRpcDelayClear: return "rpc-delay-clear";
  }
  return "unknown";
}

bool IsDestructive(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDiskFail:
    case FaultKind::kDiskPowerLoss:
    case FaultKind::kUnitFail:
    case FaultKind::kHostCrash:
    case FaultKind::kControllerCrash:
    case FaultKind::kMasterCrash:
    case FaultKind::kMetaCrash:
    case FaultKind::kPartition:
    case FaultKind::kRpcDelay:
      return true;
    default:
      return false;
  }
}

FaultKind HealKindFor(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDiskFail: return FaultKind::kDiskRepair;
    case FaultKind::kDiskPowerLoss: return FaultKind::kDiskPowerOn;
    case FaultKind::kUnitFail: return FaultKind::kUnitRepair;
    case FaultKind::kHostCrash: return FaultKind::kHostRestart;
    case FaultKind::kControllerCrash: return FaultKind::kControllerRestart;
    case FaultKind::kMasterCrash: return FaultKind::kMasterRestart;
    case FaultKind::kMetaCrash: return FaultKind::kMetaRestart;
    case FaultKind::kPartition: return FaultKind::kPartitionHeal;
    case FaultKind::kRpcDelay: return FaultKind::kRpcDelayClear;
    default: return kind;
  }
}

std::string FaultOp::Describe() const {
  std::string out(FaultKindName(kind));
  if (!target.empty()) {
    out += " ";
    out += target;
  } else if (index >= 0) {
    out += " #";
    out += std::to_string(index);
  }
  return out;
}

std::string FaultOp::WindowKey() const {
  // A heal op keys the same window as the destructive op it undoes.
  FaultKind base = kind;
  switch (kind) {
    case FaultKind::kDiskRepair: base = FaultKind::kDiskFail; break;
    case FaultKind::kDiskPowerOn: base = FaultKind::kDiskPowerLoss; break;
    case FaultKind::kUnitRepair: base = FaultKind::kUnitFail; break;
    case FaultKind::kHostRestart: base = FaultKind::kHostCrash; break;
    case FaultKind::kControllerRestart:
      base = FaultKind::kControllerCrash;
      break;
    case FaultKind::kMasterRestart: base = FaultKind::kMasterCrash; break;
    case FaultKind::kMetaRestart: base = FaultKind::kMetaCrash; break;
    case FaultKind::kPartitionHeal: base = FaultKind::kPartition; break;
    case FaultKind::kRpcDelayClear: base = FaultKind::kRpcDelay; break;
    default: break;
  }
  std::string key(FaultKindName(base));
  key += "|";
  key += target.empty() ? std::to_string(index) : target;
  return key;
}

// --- Plan generation --------------------------------------------------------

ChaosPlan GeneratePlan(core::Cluster& cluster, std::uint64_t seed,
                       const PlanOptions& options) {
  const fabric::Topology& topology = cluster.fabric().topology();
  std::vector<std::string> disks;
  for (fabric::NodeIndex n : topology.Disks()) {
    disks.push_back(topology.node(n).name);
  }
  std::vector<std::string> units;
  for (fabric::NodeKind kind :
       {fabric::NodeKind::kHub, fabric::NodeKind::kSwitch}) {
    for (fabric::NodeIndex n : topology.NodesOfKind(kind)) {
      units.push_back(topology.node(n).name);
    }
  }

  std::vector<FaultKind> classes;
  if (options.disks && !disks.empty()) classes.push_back(FaultKind::kDiskFail);
  if (options.power && !disks.empty()) {
    classes.push_back(FaultKind::kDiskPowerLoss);
  }
  if (options.units && !units.empty()) classes.push_back(FaultKind::kUnitFail);
  if (options.hosts) classes.push_back(FaultKind::kHostCrash);
  if (options.controllers && cluster.controller_count() > 0) {
    classes.push_back(FaultKind::kControllerCrash);
  }
  if (options.masters && cluster.master_count() > 0) {
    classes.push_back(FaultKind::kMasterCrash);
  }
  if (options.meta && cluster.meta_count() > 0) {
    classes.push_back(FaultKind::kMetaCrash);
  }
  if (options.partitions) classes.push_back(FaultKind::kPartition);
  if (options.delays) classes.push_back(FaultKind::kRpcDelay);

  ChaosPlan plan;
  plan.seed = seed;
  if (classes.empty()) return plan;

  Rng rng(seed);
  sim::Time t = options.start_at;
  for (int i = 0; i < options.faults; ++i) {
    FaultOp op;
    op.kind = classes[static_cast<std::size_t>(
        rng.NextBelow(static_cast<std::uint64_t>(classes.size())))];
    op.at = t + static_cast<sim::Duration>(rng.NextBelow(
                    static_cast<std::uint64_t>(sim::Seconds(2))));
    switch (op.kind) {
      case FaultKind::kDiskFail:
      case FaultKind::kDiskPowerLoss:
        op.target = disks[static_cast<std::size_t>(
            rng.NextBelow(static_cast<std::uint64_t>(disks.size())))];
        break;
      case FaultKind::kUnitFail:
        op.target = units[static_cast<std::size_t>(
            rng.NextBelow(static_cast<std::uint64_t>(units.size())))];
        break;
      case FaultKind::kHostCrash:
      case FaultKind::kPartition:
        op.index = static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(cluster.host_count())));
        break;
      case FaultKind::kRpcDelay:
        op.index = static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(cluster.host_count())));
        op.extra_delay = sim::MillisD(5) +
                         static_cast<sim::Duration>(rng.NextBelow(
                             static_cast<std::uint64_t>(sim::MillisD(45))));
        break;
      case FaultKind::kControllerCrash:
        op.index = static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(cluster.controller_count())));
        break;
      case FaultKind::kMasterCrash:
        op.index = static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(cluster.master_count())));
        break;
      case FaultKind::kMetaCrash:
        op.index = static_cast<int>(rng.NextBelow(
            static_cast<std::uint64_t>(cluster.meta_count())));
        break;
      default:
        break;
    }

    FaultOp heal = op;
    heal.kind = HealKindFor(op.kind);
    heal.at = op.at + options.heal_after;

    plan.ops.push_back(op);
    plan.ops.push_back(heal);
    t = heal.at + options.settle_after;
  }
  return plan;
}

// --- Report -----------------------------------------------------------------

sim::Duration ChaosReport::RecoveryPercentile(double q) const {
  std::vector<sim::Duration> values;
  for (const FaultRecord& f : faults) {
    if (f.recovery >= 0) values.push_back(f.recovery);
  }
  if (values.empty()) return -1;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  return values[rank - 1];
}

std::string ChaosReport::ToJson() const {
  std::ostringstream out;
  out << "{\"seed\":" << seed << ",\"faults_injected\":" << faults_injected
      << ",\"probe_writes_acked\":" << probe_writes_acked
      << ",\"probe_reads_verified\":" << probe_reads_verified
      << ",\"invariant_violations\":" << invariant_violations
      << ",\"recovery_ns\":{\"p50\":" << RecoveryPercentile(0.50)
      << ",\"p90\":" << RecoveryPercentile(0.90)
      << ",\"p99\":" << RecoveryPercentile(0.99)
      << ",\"max\":" << RecoveryPercentile(1.0) << "},\"faults\":[";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultRecord& f = faults[i];
    if (i > 0) out << ",";
    out << "{\"fault\":\"" << f.fault << "\",\"injected_at\":" << f.injected_at
        << ",\"healed_at\":" << f.healed_at << ",\"basis\":" << f.basis
        << ",\"recovered_at\":" << f.recovered_at
        << ",\"recovery\":" << f.recovery << ",\"deadline\":" << f.deadline
        << ",\"deadline_ok\":" << (f.deadline_ok ? "true" : "false") << "}";
  }
  out << "],\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << violations[i] << "\"";
  }
  out << "],\"health\":";
  // health_json is already canonical JSON — embedded raw, not re-quoted.
  out << (health_json.empty() ? "null" : health_json);
  out << "}";
  return out.str();
}

// --- Engine -----------------------------------------------------------------

ChaosEngine::ChaosEngine(core::Cluster* cluster, Options options)
    : cluster_(cluster),
      options_(options),
      rng_(1),
      health_(options.health_window > 0 ? options.health_window
                                        : sim::Seconds(10),
              obs::DefaultSloRules()),
      probe_timer_(&cluster->sim()) {
  assert(cluster_ != nullptr);
}

ChaosEngine::~ChaosEngine() = default;

Status ChaosEngine::Prepare() {
  const fabric::BuiltFabric& built = cluster_->fabric().fabric();
  for (int h = 0; h < cluster_->host_count(); ++h) {
    clients_.push_back(
        cluster_->MakeClient("chaos-probe-" + std::to_string(h), h));
  }

  auto mounted = std::make_shared<int>(0);
  auto failed = std::make_shared<int>(0);
  for (fabric::NodeIndex node : built.topology.Disks()) {
    const std::string disk = built.topology.node(node).name;
    int host = built.HostOfDisk(node);
    if (host < 0) host = 0;
    const std::size_t p = probes_.size();
    probes_.push_back(Probe{});
    probes_[p].disk = disk;
    for (int s = 0; s < options_.slots_per_volume; ++s) {
      Slot slot;
      slot.offset = static_cast<Bytes>(s) *
                    (options_.probe_volume_size /
                     std::max(1, options_.slots_per_volume));
      probes_[p].slots.push_back(slot);
    }
    clients_[static_cast<std::size_t>(host)]->AllocateAndMountOnDisk(
        "chaos-" + disk, options_.probe_volume_size, disk,
        [this, p, mounted, failed](Result<core::ClientLib::Volume*> result) {
          if (!result.ok()) {
            ++*failed;
            USTORE_LOG(Error) << "chaos probe on " << probes_[p].disk
                              << " failed to mount: "
                              << result.status().ToString();
            return;
          }
          probes_[p].volume = *result;
          ++*mounted;
        });
  }

  const int want = static_cast<int>(probes_.size());
  for (int i = 0; i < 240 && *mounted + *failed < want; ++i) {
    cluster_->RunFor(sim::MillisD(500));
  }
  if (*mounted != want) {
    return UnavailableError("chaos: only " + std::to_string(*mounted) + "/" +
                            std::to_string(want) + " probe volumes mounted");
  }
  return Status::Ok();
}

void ChaosEngine::Arm(const ChaosPlan& plan) {
  assert(!armed_);
  armed_ = true;
  plan_ = plan;
  report_ = ChaosReport{};
  report_.seed = plan.seed;
  rng_ = Rng(plan.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  sim::Simulator& sim = cluster_->sim();
  for (const FaultOp& op : plan_.ops) {
    sim.Schedule(op.at, [this, op] { Apply(op); });
  }
  probe_timer_.StartPeriodic(options_.probe_period, [this] { ProbeTick(); });
}

bool ChaosEngine::finished() const {
  return armed_ && ops_applied_ == plan_.ops.size() && open_windows_.empty();
}

const ChaosReport& ChaosEngine::RunToCompletion(sim::Duration limit) {
  const sim::Time stop_at = cluster_->sim().now() + limit;
  while (!finished() && cluster_->sim().now() < stop_at) {
    cluster_->RunFor(options_.probe_period);
  }
  probe_timer_.Stop();
  if (!finished()) {
    Violation("chaos plan did not finish within the run limit (t=" +
              std::to_string(cluster_->sim().now()) + ")");
    // Flush still-open windows so the report accounts for every fault.
    for (auto& [key, window] : open_windows_) {
      window.record.deadline_ok = false;
      report_.faults.push_back(window.record);
    }
    open_windows_.clear();
  }
  if (options_.health_window > 0) {
    health_.Finalize(obs::Metrics(), cluster_->sim().now());
    report_.health_json = health_.ReportJson();
  }
  return report_;
}

void ChaosEngine::Apply(const FaultOp& op) {
  ++ops_applied_;
  sim::Simulator& sim = cluster_->sim();
  USTORE_LOG(Info) << "chaos: t=" << sim.now() << " " << op.Describe();
  switch (op.kind) {
    case FaultKind::kDiskFail:
    case FaultKind::kUnitFail: {
      Status status = cluster_->fabric().FailUnit(op.target);
      if (!status.ok()) Violation("fail-unit rejected: " + op.Describe());
      break;
    }
    case FaultKind::kDiskRepair:
    case FaultKind::kUnitRepair: {
      Status status = cluster_->fabric().RepairUnit(op.target);
      if (!status.ok()) Violation("repair-unit rejected: " + op.Describe());
      break;
    }
    case FaultKind::kDiskPowerLoss:
    case FaultKind::kDiskPowerOn: {
      Result<fabric::NodeIndex> node =
          cluster_->fabric().topology().Find(op.target);
      Status status =
          node.ok() ? cluster_->fabric().DriveDiskPower(
                          0, *node, op.kind == FaultKind::kDiskPowerOn)
                    : node.status();
      if (!status.ok()) Violation("disk-power rejected: " + op.Describe());
      break;
    }
    case FaultKind::kHostCrash:
      cluster_->CrashHost(op.index);
      break;
    case FaultKind::kHostRestart:
      cluster_->RestartHost(op.index);
      break;
    case FaultKind::kControllerCrash:
      cluster_->controller(op.index)->Crash();
      break;
    case FaultKind::kControllerRestart:
      cluster_->controller(op.index)->Restart();
      break;
    case FaultKind::kMasterCrash:
      cluster_->master(op.index)->Crash();
      break;
    case FaultKind::kMasterRestart:
      cluster_->master(op.index)->Restart();
      break;
    case FaultKind::kMetaCrash:
      cluster_->meta_service(op.index)->Stop();
      break;
    case FaultKind::kMetaRestart:
      cluster_->meta_service(op.index)->Restart();
      break;
    case FaultKind::kPartition:
    case FaultKind::kPartitionHeal: {
      const net::NodeId host =
          cluster_->fabric().fabric().hosts.at(
              static_cast<std::size_t>(op.index));
      for (const net::NodeId& master : cluster_->master_ids()) {
        cluster_->network().SetPartitioned(host, master,
                                           op.kind == FaultKind::kPartition);
      }
      break;
    }
    case FaultKind::kRpcDelay:
    case FaultKind::kRpcDelayClear: {
      const net::NodeId host =
          cluster_->fabric().fabric().hosts.at(
              static_cast<std::size_t>(op.index));
      const sim::Duration extra =
          op.kind == FaultKind::kRpcDelay ? op.extra_delay : 0;
      for (const net::NodeId& master : cluster_->master_ids()) {
        cluster_->network().SetExtraDelay(host, master, extra);
      }
      break;
    }
  }
  OpenOrCloseWindow(op);
  CheckMasterInvariants(op.Describe());
}

void ChaosEngine::OpenOrCloseWindow(const FaultOp& op) {
  const sim::Time now = cluster_->sim().now();
  const std::string key = op.WindowKey();
  if (IsDestructive(op.kind)) {
    faults_injected_.Increment();
    ++report_.faults_injected;
    Window window;
    window.record.fault = op.Describe();
    window.record.injected_at = now;
    window.tolerated = IsTolerated(op.kind);
    window.record.deadline = window.tolerated ? options_.tolerated_deadline
                                              : options_.repair_deadline;
    if (window.tolerated) {
      window.record.basis = now;
      window.has_basis = true;
    }
    open_windows_[key] = std::move(window);
    return;
  }
  auto it = open_windows_.find(key);
  if (it == open_windows_.end()) return;  // already recovered (tolerated)
  faults_healed_.Increment();
  Window& window = it->second;
  window.record.healed_at = now;
  if (!window.has_basis) {
    window.record.basis = now;
    window.has_basis = true;
  }
}

void ChaosEngine::ProbeTick() {
  const sim::Time now = cluster_->sim().now();
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    Probe& probe = probes_[p];
    if (probe.volume == nullptr) continue;
    if (probe.op_in_flight) {
      if (now - probe.op_issued_at < options_.probe_supersede) continue;
      // Abandon the wedged chain; its late completions still feed the
      // shadow bookkeeping but no longer drive verification.
      ++probe.op_id;
      probe.op_in_flight = false;
    }
    IssueProbe(p);
  }
  CheckMasterInvariants("sweep");
  EvaluateRecovery();
  // Advance the SLO engine to every window boundary the sweep has passed:
  // window edges stay fixed multiples of health_window regardless of the
  // probe cadence, which keeps the alert stream seed-deterministic.
  if (options_.health_window > 0) {
    while (now >= health_.next_close()) {
      health_.Tick(obs::Metrics(), health_.next_close());
    }
  }
  if (finished()) probe_timer_.Stop();
}

void ChaosEngine::IssueProbe(std::size_t p) {
  Probe& probe = probes_[p];
  if (!probe.volume->mounted()) return;  // remount in progress
  const int slot_index = probe.next_slot;
  probe.next_slot = (probe.next_slot + 1) % static_cast<int>(
                                                probe.slots.size());
  Slot& slot = probe.slots[static_cast<std::size_t>(slot_index)];
  const std::uint64_t tag = ++tag_counter_;
  const std::uint64_t id = ++probe.op_id;
  probe.op_in_flight = true;
  probe.op_issued_at = cluster_->sim().now();
  slot.maybe.push_back(tag);
  probe.volume->Write(
      slot.offset, options_.probe_io_size, /*random=*/true, tag,
      [this, p, id, slot_index, tag](Status status) {
        OnProbeWriteAck(p, id, slot_index, tag, status);
      });
}

void ChaosEngine::OnProbeWriteAck(std::size_t p, std::uint64_t id,
                                  int slot_index, std::uint64_t tag,
                                  Status status) {
  Probe& probe = probes_[p];
  Slot& slot = probe.slots[static_cast<std::size_t>(slot_index)];
  if (status.ok()) {
    // Acks arrive in issue order per slot, so anything at or below this tag
    // has been overwritten on the platter and can no longer be read back.
    slot.acked = tag;
    std::erase_if(slot.maybe, [tag](std::uint64_t t) { return t <= tag; });
    ++report_.probe_writes_acked;
  }
  if (id != probe.op_id || !probe.op_in_flight) return;  // superseded
  if (!status.ok()) {
    FinishProbe(p, id, false);
    return;
  }
  // Read back the slot just written: an acknowledged write must be there.
  probe.volume->Read(
      slot.offset, options_.probe_io_size, /*random=*/true,
      [this, p, id, slot_index](Result<std::uint64_t> result) {
        Probe& probe = probes_[p];
        Slot& slot = probe.slots[static_cast<std::size_t>(slot_index)];
        if (id != probe.op_id || !probe.op_in_flight) return;
        if (!result.ok()) {
          FinishProbe(p, id, false);
          return;
        }
        const std::uint64_t got = *result;
        const bool valid =
            got == slot.acked ||
            std::find(slot.maybe.begin(), slot.maybe.end(), got) !=
                slot.maybe.end();
        if (!valid) {
          Violation("data loss on " + probe.disk + " offset " +
                    std::to_string(slot.offset) + ": read tag " +
                    std::to_string(got) + " acked tag " +
                    std::to_string(slot.acked) + " (t=" +
                    std::to_string(cluster_->sim().now()) + ")");
          FinishProbe(p, id, false);
          return;
        }
        ++report_.probe_reads_verified;
        // Audit an older slot too: acknowledged data written before the
        // fault must survive it.
        const auto slot_count =
            static_cast<std::uint64_t>(probe.slots.size());
        Slot& audit = probe.slots[static_cast<std::size_t>(
            rng_.NextBelow(slot_count))];
        if (audit.acked == 0 && audit.maybe.empty()) {
          FinishProbe(p, id, true);
          return;
        }
        const Bytes audit_offset = audit.offset;
        probe.volume->Read(
            audit_offset, options_.probe_io_size, /*random=*/true,
            [this, p, id, audit_offset](Result<std::uint64_t> audit_result) {
              Probe& probe = probes_[p];
              if (id != probe.op_id || !probe.op_in_flight) return;
              if (!audit_result.ok()) {
                FinishProbe(p, id, false);
                return;
              }
              Slot* audit = nullptr;
              for (Slot& s : probe.slots) {
                if (s.offset == audit_offset) audit = &s;
              }
              const std::uint64_t got = *audit_result;
              const bool valid =
                  audit != nullptr &&
                  (got == audit->acked ||
                   std::find(audit->maybe.begin(), audit->maybe.end(), got) !=
                       audit->maybe.end());
              if (!valid) {
                Violation("data loss on " + probe.disk + " offset " +
                          std::to_string(audit_offset) + ": audit read tag " +
                          std::to_string(got) + " (t=" +
                          std::to_string(cluster_->sim().now()) + ")");
                FinishProbe(p, id, false);
                return;
              }
              ++report_.probe_reads_verified;
              FinishProbe(p, id, true);
            });
      });
}

void ChaosEngine::FinishProbe(std::size_t p, std::uint64_t id, bool verified) {
  Probe& probe = probes_[p];
  if (id != probe.op_id) return;
  probe.op_in_flight = false;
  if (verified) {
    probe.last_verified_at = cluster_->sim().now();
    EvaluateRecovery();
  }
}

bool ChaosEngine::ClusterHealthy() {
  core::Master* master = cluster_->active_master();
  if (master == nullptr) return false;
  std::string why;
  return master->CheckIndexesForTest(&why);
}

void ChaosEngine::EvaluateRecovery() {
  if (open_windows_.empty()) return;
  const sim::Time now = cluster_->sim().now();

  sim::Time oldest_verified = -1;
  bool all_verified = true;
  for (const Probe& probe : probes_) {
    if (probe.last_verified_at < 0) {
      all_verified = false;
      break;
    }
    if (oldest_verified < 0 || probe.last_verified_at < oldest_verified) {
      oldest_verified = probe.last_verified_at;
    }
  }
  const bool healthy = all_verified && ClusterHealthy();

  for (auto it = open_windows_.begin(); it != open_windows_.end();) {
    Window& window = it->second;
    if (!window.has_basis) {
      ++it;
      continue;
    }
    FaultRecord& record = window.record;
    if (healthy && oldest_verified > record.basis) {
      record.recovered_at = now;
      record.recovery = now - record.basis;
      record.deadline_ok = record.recovery <= record.deadline;
      if (!record.deadline_ok) {
        Violation("recovery exceeded deadline: " + record.fault +
                  " took " + std::to_string(record.recovery) + " ns");
      }
      recoveries_.Increment();
      obs::Metrics().Observe("chaos.recovery_seconds",
                             sim::ToSeconds(record.recovery));
      report_.faults.push_back(record);
      it = open_windows_.erase(it);
      continue;
    }
    if (now - record.basis > record.deadline) {
      record.deadline_ok = false;
      Violation("recovery deadline exceeded: " + record.fault +
                " not recovered " + std::to_string(now - record.basis) +
                " ns after basis");
      report_.faults.push_back(record);
      it = open_windows_.erase(it);
      continue;
    }
    ++it;
  }
}

void ChaosEngine::CheckMasterInvariants(std::string_view when) {
  core::Master* master = cluster_->active_master();
  if (master == nullptr) return;  // election in progress — checked on recovery
  std::string why;
  if (!master->CheckIndexesForTest(&why)) {
    Violation("master index inconsistency after " + std::string(when) +
              " (t=" + std::to_string(cluster_->sim().now()) + "): " + why);
  }
}

void ChaosEngine::NoteRebuildInterrupted(const RebuildEngineReport& report) {
  rebuilds_interrupted_.Increment();
  const Status resumable = CheckRebuildResumable(report);
  if (!resumable.ok()) {
    Violation("interrupted rebuild not resumable: " + resumable.message());
  }
}

void ChaosEngine::Violation(std::string text) {
  violations_.Increment();
  ++report_.invariant_violations;
  USTORE_LOG(Error) << "chaos invariant violation: " << text;
  if (report_.violations.size() < options_.max_recorded_violations) {
    report_.violations.push_back(std::move(text));
  }
}

}  // namespace ustore::services
