#include "core/cluster_sharded.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "common/hash.h"
#include "core/fleet.h"
#include "core/master_shard.h"
#include "obs/metrics.h"

namespace ustore::core {

namespace {

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

std::uint64_t WallNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

MasterShardOptions MasterShardOptionsFor(int group,
                                         const ShardedClusterOptions& options) {
  MasterShardOptions out;
  out.group = group;
  out.directive_every_ops = options.directive_every_ops;
  out.lease_sync_every = options.lease_sync_every;
  return out;
}

}  // namespace

void AppendSnapshotJson(std::string* out,
                        const obs::MetricsSnapshot& snapshot) {
  out->append("{\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out->push_back(',');
    first = false;
    out->append("\"").append(name).append("\":");
    AppendU64(out, value);
  }
  out->append("},\"gauges\":{");
  first = true;
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (!first) out->push_back(',');
    first = false;
    out->append("\"").append(name).append("\":");
    AppendDouble(out, gauge.value);
  }
  out->append("},\"histograms\":{");
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (!first) out->push_back(',');
    first = false;
    out->append("\"").append(name).append("\":{\"count\":");
    AppendU64(out, histogram.count);
    out->append(",\"sum\":");
    AppendDouble(out, histogram.sum);
    out->append("}");
  }
  out->append("}}");
}

// ---------------------------------------------------------------------------
// Per-group and control-plane state.

struct ShardedCluster::Group {
  Group(int index, int shard, std::uint64_t seed, const hw::DiskModel* model,
        int disk_count, sim::Duration idle_timeout,
        const ShardedClusterOptions& options)
      : index(index),
        shard(shard),
        rng(seed),
        trace(options.trace_capacity),
        disks(model, disk_count, idle_timeout),
        mshard(MasterShardOptionsFor(index, options)),
        component("cluster-group:" + std::to_string(index)) {
    fallback.assign(disk_count, 0);
    shape.size = options.request_size;
    shape.direction = hw::IoDirection::kRead;
    shape.pattern = hw::AccessPattern::kSequential;
    stats.disks = disk_count;
  }

  int index;
  int shard;
  Rng rng;
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  hw::DiskStateArray disks;           // SoA mirror of the group's spindles
  std::vector<fabric::NodeIndex> nodes;  // SoA index -> topology node
  std::vector<std::uint8_t> fallback;    // routed via the real hw::Disk
  int fallback_count = 0;
  MasterShard mshard;  // per-group meta-lease holder (DESIGN.md §15)
  bool lease_requested = false;  // a kLeaseRequest is in flight
  std::string component;
  hw::IoRequest shape;
  ShardedClusterGroupReport stats;
  bool stopped = false;
};

// A group -> control-plane request. Deliveries append into the sender's own
// inbox slot (commutative under same-timestamp reordering); only the pump —
// a shard-local event on the control shard — ever reads them, in group
// order, and only the pump mutates the real cluster.
struct ShardedCluster::ControlMsg {
  enum class Kind {
    kFaultToggle,
    kFallbackIo,
    kLeaseRequest,  // group asks for its meta lease
    kLeaseSync,     // lease-held ops summary (ops + directed cursor)
    kHostCrash,     // chaos: crash the group's routed host
    kMetaLookup,    // leaseless allocation lookup, escalated centrally
  };
  Kind kind;
  int group = 0;
  int disk = 0;  // SoA index within the group (kFaultToggle/kFallbackIo/kMetaLookup)
  bool want_fail = false;        // kFaultToggle
  std::uint64_t ops = 0;         // kFallbackIo batch size / kLeaseSync total
  std::uint64_t directed = 0;    // kLeaseSync: MasterShard's directive cursor
  hw::IoRequest shape;           // kFallbackIo
};

struct ShardedCluster::ControlState {
  explicit ControlState(int groups)
      : inbox(groups),
        ops_seen(groups, 0),
        reports_seen(groups, 0),
        directed_at(groups, 0),
        lease_epoch(groups, 0),
        lease_granted(groups, 0),
        lease_wanted(groups, 0) {}
  std::vector<std::vector<ControlMsg>> inbox;  // per-source slots
  std::vector<std::uint64_t> ops_seen;
  std::vector<std::uint64_t> reports_seen;
  std::vector<std::uint64_t> directed_at;
  std::uint64_t pumps = 0;
  std::uint64_t directives = 0;
  // Central lease authority (DESIGN.md §15): the pump owns the epoch
  // counter per group; grants/revokes carry it and MasterShard rejects
  // anything stale.
  std::vector<std::uint64_t> lease_epoch;
  std::vector<std::uint8_t> lease_granted;
  // Lease parked on a crashed host: re-grant when the host restarts.
  std::vector<std::uint8_t> lease_wanted;
  std::set<int> crashed_hosts;
  std::map<int, sim::Time> restart_due;  // host -> engine-time deadline
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_revokes = 0;
  std::uint64_t host_crashes = 0;
  std::uint64_t host_restarts = 0;
};

// ---------------------------------------------------------------------------
// Construction: build + start the real cluster serially, then adopt its
// fabric into groups.

ShardedCluster::ShardedCluster(ShardedClusterOptions options)
    : options_(std::move(options)),
      disk_model_(options_.cluster.fabric_manager.disk_params,
                  hw::UsbBridgeInterface()),
      control_trace_(options_.trace_capacity) {
  assert(options_.burst_ops >= 1);
  assert(options_.sweep_width >= 1);

  {
    // All cluster instrumentation — construction, Start() and every later
    // pump — lands in the control registries, never the process defaults
    // (worker threads may run the pump). Cluster's ctor BindSimulator()
    // call resolves through this thread binding, so the control clocks
    // read the cluster's own simulator: engine-independent stamps.
    obs::ScopedObsBinding bind(&control_metrics_, &control_trace_);
    cluster_ = std::make_unique<Cluster>(options_.cluster);
    cluster_->Start();
  }
  cluster_base_ = cluster_->sim().now();
  plan_ = cluster_->BuildShardPlan(options_.shards);
  control_shard_ = plan_.groups() > 0 ? plan_.group_shard[0] : 0;

  const sim::Duration idle_timeout =
      options_.idle_timeout >= 0 ? options_.idle_timeout
                                 : cluster_->endpoint(0)->idle_spin_down();

  std::vector<std::vector<fabric::NodeIndex>> nodes_of_group(plan_.groups());
  for (const fabric::NodeIndex node : cluster_->fabric().topology().Disks()) {
    const int g = plan_.GroupOf(node);
    if (g >= 0) nodes_of_group[g].push_back(node);
  }

  groups_.reserve(plan_.groups());
  for (int g = 0; g < plan_.groups(); ++g) {
    auto grp = std::make_unique<Group>(
        g, plan_.group_shard[g], FleetUnitSeed(options_.cluster.seed, g),
        &disk_model_, static_cast<int>(nodes_of_group[g].size()),
        idle_timeout, options_);
    grp->nodes = std::move(nodes_of_group[g]);
    const int host = grp->nodes.empty()
                         ? -1
                         : cluster_->fabric().RoutedHostOfDisk(grp->nodes[0]);
    grp->stats.host = host;
    // Mirror the live spin/fail state at handoff; anything the EndPoint
    // policy rejects stays on the full hw::Disk path until it heals.
    for (int d = 0; d < grp->disks.count(); ++d) {
      const hw::Disk* disk = cluster_->fabric().disk(grp->nodes[d]);
      assert(disk != nullptr);
      grp->disks.SeedState(d, disk->state(), disk->failed());
      const bool eligible =
          host >= 0 && cluster_->endpoint(host)->SteadyStateEligible(*disk);
      if (!eligible) {
        grp->fallback[d] = 1;
        ++grp->fallback_count;
      }
    }
    groups_.push_back(std::move(grp));
  }
  control_ = std::make_unique<ControlState>(plan_.groups());
}

ShardedCluster::~ShardedCluster() {
  // Cluster's dtor calls BindSimulator(nullptr); route it at the control
  // registries so their clock lambdas do not dangle into the dead sim.
  obs::ScopedObsBinding bind(&control_metrics_, &control_trace_);
  cluster_.reset();
}

// ---------------------------------------------------------------------------
// Scheduling helpers (the DESIGN.md §12 parity rule): shard-local events on
// even nanoseconds, deliveries land odd by engine contract.

void ShardedCluster::ScheduleLocal(int shard, sim::Time not_before,
                                   sim::EventFn fn) {
  const sim::Time now = engine_->now(shard);
  sim::Time t = std::max(not_before, now);
  if (t & 1) ++t;
  engine_->Schedule(shard, t - now, std::move(fn));
}

void ShardedCluster::PostControl(int from_shard, ControlMsg msg) {
  engine_->Post(from_shard, control_shard_, 0, [this, msg] {
    control_->inbox[msg.group].push_back(msg);
  });
}

// ---------------------------------------------------------------------------
// Data plane (group-local events).

void ShardedCluster::BurstEvent(int g) {
  Group& grp = *groups_[g];
  const sim::Time now = engine_->now(grp.shard);
  if (grp.stopped || now >= options_.duration) {
    grp.stopped = true;
    return;
  }

  if (options_.fault_probability > 0 &&
      grp.rng.NextBool(options_.fault_probability)) {
    const int victim = static_cast<int>(
        grp.rng.NextBelow(static_cast<std::uint64_t>(grp.disks.count())));
    ControlMsg msg;
    msg.kind = ControlMsg::Kind::kFaultToggle;
    msg.group = g;
    msg.disk = victim;
    msg.want_fail = !grp.disks.failed(victim);
    // Route the victim through the real disk the moment the toggle is in
    // flight; the repair ack brings it back (fallback-to-Disk rule).
    if (grp.fallback[victim] == 0) {
      grp.fallback[victim] = 1;
      ++grp.fallback_count;
    }
    ++grp.stats.faults_requested;
    grp.metrics.Increment("cluster.unit.fault.requested");
    PostControl(grp.shard, msg);
  }

  // Chaos: host crash. The pump revokes every lease on the host, fails it
  // over, and re-grants after the deterministic downtime. (Short-circuit
  // keeps the rng stream unchanged when the knob is off.)
  if (options_.host_crash_probability > 0 &&
      grp.rng.NextBool(options_.host_crash_probability)) {
    ControlMsg msg;
    msg.kind = ControlMsg::Kind::kHostCrash;
    msg.group = g;
    ++grp.stats.host_crashes_requested;
    grp.metrics.Increment("cluster.unit.host_crash.requested");
    PostControl(grp.shard, msg);
  }

  // One aligned sweep range per burst: the spin-group granularity the
  // vectorized SoA path is built around.
  const int n = grp.disks.count();
  const int width = std::min(options_.sweep_width, n);
  const int ranges = (n + width - 1) / width;
  const int first =
      static_cast<int>(grp.rng.NextBelow(
          static_cast<std::uint64_t>(ranges))) * width;
  const int count = std::min(width, n - first);
  const std::uint64_t ops = options_.burst_ops;

  // Modelled client allocation lookups against the meta service: which
  // host exposes this disk? Under a held lease the group's MasterShard
  // answers from its mirrored index — even-ns, shard-local; otherwise the
  // lookup escalates through the pump and an ack posts back. The rng
  // stream is identical in both modes (the draw happens either way).
  for (int l = 0; l < options_.meta_lookups_per_burst; ++l) {
    const int lookup_disk =
        first + (count > 1
                     ? static_cast<int>(grp.rng.NextBelow(
                           static_cast<std::uint64_t>(count)))
                     : 0);
    ++grp.stats.meta_lookups;
    if (options_.sharded_master && grp.mshard.lease_held()) {
      const int lease_host = grp.mshard.LookupHost(lookup_disk);
      (void)lease_host;
      ++grp.stats.meta_lookups_local;
      grp.metrics.Increment("cluster.unit.meta_lookup.local");
    } else {
      ControlMsg msg;
      msg.kind = ControlMsg::Kind::kMetaLookup;
      msg.group = g;
      msg.disk = lookup_disk;
      grp.metrics.Increment("cluster.unit.meta_lookup.escalated");
      PostControl(grp.shard, msg);
    }
  }

  bool has_fallback = false;
  if (grp.fallback_count > 0) {
    for (int d = first; d < first + count; ++d) {
      if (grp.fallback[d] != 0) {
        has_fallback = true;
        break;
      }
    }
  }

  ++grp.stats.bursts;
  sim::Time drain_at = -1;
  std::uint64_t admitted = 0;
  if (!has_fallback) {
    // Fast path: one vectorized sweep, one drain event for the range.
    ++grp.stats.range_bursts;
    hw::DiskStateArray::RangeOutcome out;
    {
      // DiskModel instruments through obs::Metrics(); bind the group's
      // registry so worker threads never touch the process default.
      obs::ScopedObsBinding bind(&grp.metrics, &grp.trace);
      out = grp.disks.SubmitBatchRange(first, count, grp.shape, ops, now);
    }
    if (out.accepted > 0) {
      drain_at = out.last_completion;
      admitted = out.ops;
      if (out.spin_ups > 0) {
        grp.metrics.Increment("cluster.unit.spin.implicit", out.spin_ups);
      }
      grp.trace.Emit(grp.component, "sweep", now, out.last_completion, {},
                     {{"first", first},
                      {"disks", out.accepted},
                      {"ops", out.ops}});
    }
    if (out.rejected > 0) {
      grp.metrics.Increment("cluster.unit.io.rejected",
                            static_cast<std::uint64_t>(out.rejected) * ops);
    }
  } else {
    // Mixed range: SoA members submit per disk, fallback members go to
    // the control plane, which drives the full hw::Disk object.
    ++grp.stats.mixed_bursts;
    obs::ScopedObsBinding bind(&grp.metrics, &grp.trace);
    for (int d = first; d < first + count; ++d) {
      if (grp.fallback[d] != 0) {
        ControlMsg msg;
        msg.kind = ControlMsg::Kind::kFallbackIo;
        msg.group = g;
        msg.disk = d;
        msg.ops = ops;
        msg.shape = grp.shape;
        ++grp.stats.fallback_submits;
        grp.metrics.Increment("cluster.unit.fallback.submitted");
        PostControl(grp.shard, msg);
        continue;
      }
      const hw::DiskStateArray::BatchOutcome out =
          grp.disks.SubmitBatch(d, grp.shape, ops, now);
      if (out.accepted) {
        drain_at = std::max(drain_at, out.last_completion);
        admitted += ops;
        if (out.spin_wait > 0) {
          grp.metrics.Increment("cluster.unit.spin.implicit");
        }
      } else {
        grp.metrics.Increment("cluster.unit.io.rejected", ops);
      }
    }
  }
  if (admitted > 0) {
    grp.metrics.Increment("cluster.unit.io.ops", admitted);
    grp.metrics.Observe("cluster.unit.batch_span_us",
                        sim::ToMicros(drain_at - now));
    ScheduleLocal(grp.shard, drain_at,
                  [this, g, first, count, drain_at, admitted] {
                    RangeDrainEvent(g, first, count, drain_at, admitted);
                  });
  }

  const sim::Duration gap = std::max<sim::Duration>(
      static_cast<sim::Duration>(grp.rng.NextExponential(
          static_cast<double>(options_.burst_period))),
      1);
  if (now + gap < options_.duration) {
    ScheduleLocal(grp.shard, now + gap, [this, g] { BurstEvent(g); });
  }
}

void ShardedCluster::RangeDrainEvent(int g, int first, int count,
                                     sim::Time drain_time,
                                     std::uint64_t ops) {
  Group& grp = *groups_[g];
  ++grp.stats.drains;
  grp.metrics.Increment("cluster.unit.io.drained", ops);
  // The platters finished by drain_time exactly; the event itself may fire
  // up to 1ns later (even-parity rounding), which the state math ignores.
  const sim::Time earliest = grp.disks.FinishDrainRange(first, count,
                                                        drain_time);
  grp.metrics.SetGauge("cluster.unit.power_w", grp.disks.TotalPower());
  if (earliest >= 0) {
    ScheduleLocal(grp.shard, earliest, [this, g, first, count, earliest] {
      SweepEvent(g, first, count, earliest);
    });
  }
}

void ShardedCluster::SweepEvent(int g, int first, int count, sim::Time due) {
  Group& grp = *groups_[g];
  ++grp.stats.sweeps;
  const hw::DiskStateArray::SweepOutcome out =
      grp.disks.SpinDownSweep(first, count, due);
  if (out.spun_down > 0) {
    grp.stats.spin_downs += static_cast<std::uint64_t>(out.spun_down);
    grp.metrics.Increment("cluster.unit.spin.down",
                          static_cast<std::uint64_t>(out.spun_down));
    grp.metrics.SetGauge("cluster.unit.power_w", grp.disks.TotalPower());
  }
  if (out.next_deadline >= 0) {
    ScheduleLocal(grp.shard, out.next_deadline,
                  [this, g, first, count, next = out.next_deadline] {
                    SweepEvent(g, first, count, next);
                  });
  }
}

void ShardedCluster::ReportEvent(int g) {
  Group& grp = *groups_[g];
  const sim::Time now = engine_->now(grp.shard);
  if (now >= options_.duration) return;
  ++grp.stats.reports_sent;
  grp.metrics.Increment("cluster.unit.report.sent");
  const std::uint64_t total =
      grp.disks.total_ios() + grp.stats.fallback_ops;
  if (options_.sharded_master && grp.mshard.lease_held()) {
    // Lease-local heartbeat: the MasterShard decides directives here on
    // the group's own shard; only the periodic ops sync escalates.
    const MasterShard::ReportDecision decision = grp.mshard.OnReport(total);
    for (int i = 0; i < decision.directives; ++i) {
      grp.shape.direction = grp.shape.direction == hw::IoDirection::kRead
                                ? hw::IoDirection::kWrite
                                : hw::IoDirection::kRead;
    }
    if (decision.directives > 0) {
      grp.metrics.Increment(
          "cluster.unit.directive.local",
          static_cast<std::uint64_t>(decision.directives));
    }
    if (decision.sync_due) {
      ++grp.stats.lease_syncs;
      grp.metrics.Increment("cluster.unit.lease.sync");
      ControlMsg msg;
      msg.kind = ControlMsg::Kind::kLeaseSync;
      msg.group = g;
      msg.ops = total;
      msg.directed = grp.mshard.directed_at();
      PostControl(grp.shard, msg);
    }
  } else {
    if (options_.sharded_master) MaybeRequestLease(g);
    // Per-source slot assignment only (engine commutativity contract).
    engine_->Post(grp.shard, control_shard_, 0, [this, g, total] {
      control_->ops_seen[g] = total;
      ++control_->reports_seen[g];
    });
  }
  ScheduleLocal(grp.shard, now + options_.report_period,
                [this, g] { ReportEvent(g); });
}

void ShardedCluster::MaybeRequestLease(int g) {
  Group& grp = *groups_[g];
  if (grp.lease_requested) return;
  grp.lease_requested = true;
  grp.metrics.Increment("cluster.unit.lease.requested");
  ControlMsg msg;
  msg.kind = ControlMsg::Kind::kLeaseRequest;
  msg.group = g;
  PostControl(grp.shard, msg);
}

// ---------------------------------------------------------------------------
// Control plane (control-shard events): the ONLY place the real cluster is
// ever touched after Start().

void ShardedCluster::ApplyFaultToggle(const ControlMsg& msg) {
  Group& grp = *groups_[msg.group];
  const fabric::NodeIndex node = grp.nodes[msg.disk];
  hw::Disk* disk = cluster_->fabric().disk(node);
  assert(disk != nullptr);
  if (msg.want_fail) {
    disk->Fail();
  } else {
    disk->Repair();
  }
  const bool failed_now = disk->failed();
  const int host = cluster_->fabric().RoutedHostOfDisk(node);
  const bool eligible =
      host >= 0 && cluster_->endpoint(host)->SteadyStateEligible(*disk);
  control_metrics_.Increment("cluster.control.fault_toggles");
  const int g = msg.group;
  const int d = msg.disk;
  engine_->Post(control_shard_, grp.shard, 0,
                [this, g, d, failed_now, eligible] {
    Group& grp2 = *groups_[g];
    ++grp2.stats.fault_acks;
    grp2.metrics.Increment("cluster.unit.fault.acks");
    if (failed_now) {
      if (!grp2.disks.failed(d)) grp2.disks.Fail(d);
      grp2.mshard.NoteFault(d, true);  // keep the lease mirror honest
      if (grp2.fallback[d] == 0) {
        grp2.fallback[d] = 1;
        ++grp2.fallback_count;
      }
    } else {
      if (grp2.disks.failed(d)) grp2.disks.Repair(d);
      // Re-expose decision: under a held lease the group's MasterShard
      // readmits the disk itself (and updates its mirror); without one
      // the pump's eligibility verdict stands as-is.
      bool readmit = eligible;
      if (options_.sharded_master && grp2.mshard.lease_held()) {
        readmit = grp2.mshard.ReadmitAfterHeal(d, eligible);
        grp2.metrics.Increment("cluster.unit.readmit.local");
      } else {
        grp2.mshard.NoteFault(d, false);
      }
      if (readmit && grp2.fallback[d] != 0) {
        grp2.fallback[d] = 0;
        --grp2.fallback_count;
      }
    }
  });
}

void ShardedCluster::ApplyFallbackIo(const ControlMsg& msg) {
  Group& grp = *groups_[msg.group];
  hw::Disk* disk = cluster_->fabric().disk(grp.nodes[msg.disk]);
  assert(disk != nullptr);
  control_metrics_.Increment("cluster.control.fallback_batches");
  std::vector<hw::IoRequest> requests(msg.ops, msg.shape);
  const int g = msg.group;
  // The completion fires inside a later pump's RunUntil — still a
  // control-shard event, so posting back to the group is legal.
  disk->SubmitBatch(
      requests, [this, g](std::span<const hw::IoCompletion> results) {
        std::uint64_t ok = 0;
        for (const hw::IoCompletion& r : results) {
          if (r.status.ok()) ++ok;
        }
        const std::uint64_t n = results.size();
        engine_->Post(control_shard_, groups_[g]->shard, 0,
                      [this, g, ok, n] {
          // Count every completion — a failed disk answers with errors,
          // and those round trips are exactly what the fallback path is
          // for; the ok/error split lives in the metrics.
          Group& grp2 = *groups_[g];
          grp2.stats.fallback_ops += n;
          grp2.metrics.Increment("cluster.unit.fallback.completions", n);
          grp2.metrics.Increment("cluster.unit.fallback.ok", ok);
        });
      });
}

Master* ShardedCluster::ActiveMaster() {
  for (int m = 0; m < cluster_->master_count(); ++m) {
    if (cluster_->master(m)->is_active()) return cluster_->master(m);
  }
  return nullptr;
}

void ShardedCluster::GrantLease(int g) {
  if (control_->lease_granted[g]) return;  // duplicate request in flight
  Group& grp = *groups_[g];
  const int host = grp.stats.host;
  if (host >= 0 && control_->crashed_hosts.count(host) > 0) {
    // Host is down: park the lease; the restart path re-grants it.
    control_->lease_wanted[g] = 1;
    return;
  }
  control_->lease_wanted[g] = 0;
  control_->lease_granted[g] = 1;
  const std::uint64_t epoch = ++control_->lease_epoch[g];
  ++control_->lease_grants;
  control_metrics_.Increment("cluster.control.lease_grants");

  // Snapshot the group's slice of the Master's indexes. The Master's
  // allocation view is authoritative for disk->host; the fabric route is
  // the fallback for disks the Master has no allocation for.
  MetaLeaseIndex index;
  index.disk_host.resize(grp.nodes.size(), -1);
  index.disk_failed.assign(grp.nodes.size(), 0);
  Master* master = ActiveMaster();
  for (std::size_t d = 0; d < grp.nodes.size(); ++d) {
    const fabric::NodeIndex node = grp.nodes[d];
    const hw::Disk* disk = cluster_->fabric().disk(node);
    index.disk_failed[d] = (disk != nullptr && disk->failed()) ? 1 : 0;
    int disk_host =
        master != nullptr ? master->CurrentHostOfWiringDisk(node) : -1;
    if (disk_host < 0) disk_host = cluster_->fabric().RoutedHostOfDisk(node);
    index.disk_host[d] = disk_host;
  }
  // Local directives resume from the central cursor, so a flip pending at
  // handoff is issued exactly once (locally, on the first held report).
  index.ops_baseline = control_->directed_at[g];

  engine_->Post(control_shard_, grp.shard, 0, [this, g, epoch, index] {
    Group& grp2 = *groups_[g];
    if (grp2.mshard.Grant(epoch, index)) {
      ++grp2.stats.lease_grants;
      grp2.metrics.Increment("cluster.unit.lease.granted");
    }
    grp2.lease_requested = false;
  });
}

void ShardedCluster::RevokeLease(int g) {
  if (!control_->lease_granted[g]) return;
  control_->lease_granted[g] = 0;
  const std::uint64_t epoch = ++control_->lease_epoch[g];
  ++control_->lease_revokes;
  control_metrics_.Increment("cluster.control.lease_revokes");
  engine_->Post(control_shard_, groups_[g]->shard, 0, [this, g, epoch] {
    Group& grp = *groups_[g];
    if (grp.mshard.Revoke(epoch)) {
      ++grp.stats.lease_revokes;
      grp.metrics.Increment("cluster.unit.lease.revoked");
    }
    grp.lease_requested = false;
  });
}

void ShardedCluster::ApplyLeaseSync(const ControlMsg& msg) {
  const int g = msg.group;
  control_metrics_.Increment("cluster.control.lease_syncs");
  control_->ops_seen[g] = std::max(control_->ops_seen[g], msg.ops);
  ++control_->reports_seen[g];
  // Adopt the lease's directive cursor so a later revoke never re-issues
  // a flip the MasterShard already decided (overlap bounded by one sync
  // window, see the revoke note in DESIGN.md §15).
  control_->directed_at[g] = std::max(control_->directed_at[g], msg.directed);
}

void ShardedCluster::ApplyMetaLookup(const ControlMsg& msg) {
  Group& grp = *groups_[msg.group];
  control_metrics_.Increment("cluster.control.meta_lookups");
  const fabric::NodeIndex node = grp.nodes[msg.disk];
  Master* master = ActiveMaster();
  int host = master != nullptr ? master->ServeMetaLookup(node) : -1;
  if (host < 0) host = cluster_->fabric().RoutedHostOfDisk(node);
  const int g = msg.group;
  engine_->Post(control_shard_, grp.shard, 0, [this, g, host] {
    Group& grp2 = *groups_[g];
    (void)host;
    ++grp2.stats.meta_lookup_acks;
    grp2.metrics.Increment("cluster.unit.meta_lookup.ack");
  });
}

void ShardedCluster::ApplyHostCrash(const ControlMsg& msg) {
  control_metrics_.Increment("cluster.control.host_crash_requests");
  const int host = groups_[msg.group]->stats.host;
  if (host < 0 || control_->crashed_hosts.count(host) > 0) return;
  control_->crashed_hosts.insert(host);
  ++control_->host_crashes;
  control_metrics_.Increment("cluster.control.host_crashes");
  // Failover: every lease on the host is revoked (and parked for the
  // restart re-grant) BEFORE the crash is applied, mirroring the real
  // protocol — a lease must never outlive its host's processes.
  for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
    if (groups_[g]->stats.host != host) continue;
    if (control_->lease_granted[g]) {
      control_->lease_wanted[g] = 1;
      RevokeLease(g);
    }
  }
  cluster_->CrashHost(host);
  const sim::Time now = engine_->now(control_shard_);
  control_->restart_due[host] =
      now + std::max<sim::Duration>(options_.host_crash_downtime, 1);
}

void ShardedCluster::ApplyHostRestarts(sim::Time now) {
  for (auto it = control_->restart_due.begin();
       it != control_->restart_due.end();) {
    if (it->second > now) {
      ++it;
      continue;
    }
    const int host = it->first;
    it = control_->restart_due.erase(it);
    control_->crashed_hosts.erase(host);
    ++control_->host_restarts;
    control_metrics_.Increment("cluster.control.host_restarts");
    cluster_->RestartHost(host);
    // Re-grant leases parked on the crash, with a fresh epoch + snapshot.
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      if (groups_[g]->stats.host == host && control_->lease_wanted[g] != 0) {
        GrantLease(g);
      }
    }
  }
}

void ShardedCluster::ControlPumpEvent() {
  const sim::Time now = engine_->now(control_shard_);
  ++control_->pumps;
  const std::uint64_t wall0 = WallNs();
  std::uint64_t wall_cluster0 = wall0;
  std::uint64_t wall_cluster1 = wall0;
  {
    obs::ScopedObsBinding bind(&control_metrics_, &control_trace_);
    control_metrics_.Increment("cluster.control.pumps");

    // 0. Due host restarts (host order): failover window over, processes
    //    back, parked leases re-granted with fresh epochs.
    if (!control_->restart_due.empty()) ApplyHostRestarts(now);

    // 1. Drain the per-source inboxes in group order — all cluster
    //    mutation happens here, in one deterministic sequence.
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      for (const ControlMsg& msg : control_->inbox[g]) {
        switch (msg.kind) {
          case ControlMsg::Kind::kFaultToggle:
            ApplyFaultToggle(msg);
            break;
          case ControlMsg::Kind::kFallbackIo:
            ApplyFallbackIo(msg);
            break;
          case ControlMsg::Kind::kLeaseRequest:
            GrantLease(msg.group);
            break;
          case ControlMsg::Kind::kLeaseSync:
            ApplyLeaseSync(msg);
            break;
          case ControlMsg::Kind::kHostCrash:
            ApplyHostCrash(msg);
            break;
          case ControlMsg::Kind::kMetaLookup:
            ApplyMetaLookup(msg);
            break;
        }
      }
      control_->inbox[g].clear();
    }

    // 2. Advance the real cluster in lock-step with the engine clock:
    //    identical quanta on every engine → one total order for Master
    //    heartbeats, failover, re-expose and index updates.
    wall_cluster0 = WallNs();
    cluster_->sim().RunUntil(cluster_base_ + now);
    wall_cluster1 = WallNs();

    // 3. Master directives from the per-source report slots. Groups whose
    //    lease is out have their directives decided by their MasterShard;
    //    the central cursor only advances through lease syncs for them.
    if (options_.directive_every_ops > 0) {
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        if (options_.sharded_master && control_->lease_granted[g] != 0) {
          continue;
        }
        while (control_->ops_seen[g] >=
               control_->directed_at[g] + options_.directive_every_ops) {
          control_->directed_at[g] += options_.directive_every_ops;
          ++control_->directives;
          const int gi = static_cast<int>(g);
          engine_->Post(control_shard_, groups_[g]->shard, 0, [this, gi] {
            Group& grp = *groups_[gi];
            grp.shape.direction =
                grp.shape.direction == hw::IoDirection::kRead
                    ? hw::IoDirection::kWrite
                    : hw::IoDirection::kRead;
            ++grp.stats.directives;
            grp.metrics.Increment("cluster.unit.directive.received");
          });
        }
      }
    }
  }
  // Wall-clock occupancy (measurement only; never digested): the pump is
  // the engine's serial section, so its busy split — control work vs
  // advancing the inner cluster — is the sharded-master before/after.
  const std::uint64_t wall1 = WallNs();
  pump_busy_wall_ns_ += wall1 - wall0;
  pump_cluster_wall_ns_ += wall_cluster1 - wall_cluster0;
  pump_drain_wall_ns_ +=
      (wall_cluster0 - wall0) + (wall1 - wall_cluster1);
  if (now < options_.duration) {
    ScheduleLocal(control_shard_,
                  std::min(now + options_.control_period, options_.duration),
                  [this] { ControlPumpEvent(); });
  }
}

// ---------------------------------------------------------------------------
// Run + report.

ShardedClusterReport ShardedCluster::Run(sim::UnitEngine& engine) {
  assert(!ran_ && "a ShardedCluster runs exactly once");
  assert(engine.shards() == plan_.shards);
  ran_ = true;
  engine_ = &engine;

  for (auto& grp : groups_) {
    const int shard = grp->shard;
    grp->metrics.set_time_source(
        [&engine, shard] { return engine.now(shard); });
  }

  for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
    if (groups_[g]->disks.count() == 0) {
      groups_[g]->stopped = true;
      continue;
    }
    ScheduleLocal(groups_[g]->shard, options_.burst_period,
                  [this, g] { BurstEvent(g); });
    ScheduleLocal(groups_[g]->shard, options_.report_period,
                  [this, g] { ReportEvent(g); });
  }
  ScheduleLocal(control_shard_, options_.control_period,
                [this] { ControlPumpEvent(); });

  engine.Run(UINT64_MAX);

  ShardedClusterReport report = BuildReport();
  report.events_processed = engine.events_processed();
  report.pump_busy_wall_ns = pump_busy_wall_ns_;
  report.pump_drain_wall_ns = pump_drain_wall_ns_;
  report.pump_cluster_wall_ns = pump_cluster_wall_ns_;
  engine_ = nullptr;
  return report;
}

ShardedClusterReport ShardedCluster::BuildReport() {
  ShardedClusterReport report;
  report.groups = plan_.groups();
  report.shards = plan_.shards;
  report.seed = options_.cluster.seed;
  report.pumps = control_->pumps;
  report.master_directives = control_->directives;
  report.lease_grants = control_->lease_grants;
  report.lease_revokes = control_->lease_revokes;
  report.host_crashes = control_->host_crashes;
  report.host_restarts = control_->host_restarts;

  std::vector<obs::MetricsSnapshot> parts;
  parts.reserve(groups_.size() + 1);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& grp = *groups_[g];
    // Drop the engine clock before snapshotting: the snapshot stamp must
    // not depend on which engine (or shard count) ran the unit.
    grp.metrics.set_time_source({});
    // Fold the MasterShard's deterministic counters into the registry
    // before snapshotting, so the digest (and metrics_inspect) carries
    // the master_shard.local_decisions / pump.busy_ns measurement pair.
    if (grp.mshard.local_decisions() > 0) {
      grp.metrics.Increment("master_shard.local_decisions",
                            grp.mshard.local_decisions());
    }
    if (grp.mshard.local_directives() > 0) {
      grp.metrics.Increment("master_shard.local_directives",
                            grp.mshard.local_directives());
    }
    if (grp.mshard.stale_rejected() > 0) {
      grp.metrics.Increment("master_shard.stale_rejects",
                            grp.mshard.stale_rejected());
    }
    ShardedClusterGroupReport out = grp.stats;
    out.local_directives = grp.mshard.local_directives();
    out.local_decisions = grp.mshard.local_decisions();
    out.lease_stale_rejects = grp.mshard.stale_rejected();
    out.ops = grp.disks.total_ios();
    out.bytes_read =
        static_cast<std::uint64_t>(grp.disks.total_bytes_read());
    out.bytes_written =
        static_cast<std::uint64_t>(grp.disks.total_bytes_written());
    out.spin_cycles = grp.disks.total_spin_cycles();
    out.control_backlog = control_->inbox[g].size();
    out.trace_digest = obs::TraceDigest(grp.trace);
    out.metrics = grp.metrics.Snapshot();
    parts.push_back(out.metrics);
    report.per_group.push_back(std::move(out));
  }

  {
    // The cluster-side scalars are deterministic because every cluster
    // event ran inside pump-ordered RunUntil quanta.
    obs::ScopedObsBinding bind(&control_metrics_, &control_trace_);
    for (int m = 0; m < cluster_->master_count(); ++m) {
      if (cluster_->master(m)->is_active()) report.active_master = m;
      report.failovers += static_cast<std::uint64_t>(
          cluster_->master(m)->failovers_completed());
    }
    if (report.active_master >= 0) {
      Master* active = cluster_->master(report.active_master);
      report.allocations_digest = Fnv1a(active->DumpAllocations());
      report.master_index_ok = active->CheckIndexesForTest();
    }
    for (int m = 0; m < cluster_->master_count(); ++m) {
      report.central_meta_lookups += cluster_->master(m)->meta_lookups_served();
    }
    report.cluster_events = cluster_->sim().events_processed();
    report.cluster_end_ns =
        static_cast<std::uint64_t>(cluster_->sim().now());
  }
  control_metrics_.set_time_source({});
  report.control_trace_digest = obs::TraceDigest(control_trace_);
  report.control_metrics = control_metrics_.Snapshot();
  parts.push_back(report.control_metrics);
  report.merged = obs::MergeSnapshots(parts);
  return report;
}

std::string ShardedClusterReport::ToJson() const {
  // Deliberately omits the shard count, thread count and any engine
  // statistic: the rendering must be bit-identical across engines.
  std::string out;
  out.reserve(8192);
  out.append("{\"groups\":");
  AppendU64(&out, static_cast<std::uint64_t>(groups));
  out.append(",\"seed\":");
  AppendU64(&out, seed);
  out.append(",\"events\":");
  AppendU64(&out, events_processed);
  out.append(",\"control\":{\"pumps\":");
  AppendU64(&out, pumps);
  out.append(",\"directives\":");
  AppendU64(&out, master_directives);
  out.append(",\"lease_grants\":");
  AppendU64(&out, lease_grants);
  out.append(",\"lease_revokes\":");
  AppendU64(&out, lease_revokes);
  out.append(",\"host_crashes\":");
  AppendU64(&out, host_crashes);
  out.append(",\"host_restarts\":");
  AppendU64(&out, host_restarts);
  out.append(",\"central_meta_lookups\":");
  AppendU64(&out, central_meta_lookups);
  out.append(",\"active_master\":");
  AppendU64(&out, static_cast<std::uint64_t>(
                      active_master < 0 ? 0 : active_master + 1));
  out.append(",\"failovers\":");
  AppendU64(&out, failovers);
  out.append(",\"allocations_digest\":");
  AppendU64(&out, allocations_digest);
  out.append(",\"index_ok\":");
  out.append(master_index_ok ? "true" : "false");
  out.append(",\"cluster_events\":");
  AppendU64(&out, cluster_events);
  out.append(",\"cluster_end_ns\":");
  AppendU64(&out, cluster_end_ns);
  out.append(",\"trace_digest\":");
  AppendU64(&out, control_trace_digest);
  out.append(",\"metrics\":");
  AppendSnapshotJson(&out, control_metrics);
  out.append("},\"per_group\":[");
  for (std::size_t g = 0; g < per_group.size(); ++g) {
    const ShardedClusterGroupReport& grp = per_group[g];
    if (g > 0) out.push_back(',');
    out.append("{\"host\":");
    AppendU64(&out, static_cast<std::uint64_t>(grp.host < 0 ? 0
                                                            : grp.host + 1));
    out.append(",\"disks\":");
    AppendU64(&out, static_cast<std::uint64_t>(grp.disks));
    out.append(",\"bursts\":");
    AppendU64(&out, grp.bursts);
    out.append(",\"range_bursts\":");
    AppendU64(&out, grp.range_bursts);
    out.append(",\"mixed_bursts\":");
    AppendU64(&out, grp.mixed_bursts);
    out.append(",\"drains\":");
    AppendU64(&out, grp.drains);
    out.append(",\"sweeps\":");
    AppendU64(&out, grp.sweeps);
    out.append(",\"ops\":");
    AppendU64(&out, grp.ops);
    out.append(",\"bytes_read\":");
    AppendU64(&out, grp.bytes_read);
    out.append(",\"bytes_written\":");
    AppendU64(&out, grp.bytes_written);
    out.append(",\"spin_cycles\":");
    AppendU64(&out, grp.spin_cycles);
    out.append(",\"spin_downs\":");
    AppendU64(&out, grp.spin_downs);
    out.append(",\"faults\":");
    AppendU64(&out, grp.faults_requested);
    out.append(",\"fault_acks\":");
    AppendU64(&out, grp.fault_acks);
    out.append(",\"fallback_submits\":");
    AppendU64(&out, grp.fallback_submits);
    out.append(",\"fallback_ops\":");
    AppendU64(&out, grp.fallback_ops);
    out.append(",\"reports\":");
    AppendU64(&out, grp.reports_sent);
    out.append(",\"directives\":");
    AppendU64(&out, grp.directives);
    out.append(",\"local_directives\":");
    AppendU64(&out, grp.local_directives);
    out.append(",\"local_decisions\":");
    AppendU64(&out, grp.local_decisions);
    out.append(",\"meta_lookups\":");
    AppendU64(&out, grp.meta_lookups);
    out.append(",\"meta_local\":");
    AppendU64(&out, grp.meta_lookups_local);
    out.append(",\"meta_acks\":");
    AppendU64(&out, grp.meta_lookup_acks);
    out.append(",\"lease_grants\":");
    AppendU64(&out, grp.lease_grants);
    out.append(",\"lease_revokes\":");
    AppendU64(&out, grp.lease_revokes);
    out.append(",\"lease_syncs\":");
    AppendU64(&out, grp.lease_syncs);
    out.append(",\"stale_rejects\":");
    AppendU64(&out, grp.lease_stale_rejects);
    out.append(",\"host_crash_reqs\":");
    AppendU64(&out, grp.host_crashes_requested);
    out.append(",\"backlog\":");
    AppendU64(&out, grp.control_backlog);
    out.append(",\"trace_digest\":");
    AppendU64(&out, grp.trace_digest);
    out.append(",\"metrics\":");
    AppendSnapshotJson(&out, grp.metrics);
    out.append("}");
  }
  out.append("],\"merged\":");
  AppendSnapshotJson(&out, merged);
  out.append("}");
  return out;
}

std::uint64_t ShardedClusterReport::Digest() const { return Fnv1a(ToJson()); }

ShardedClusterReport RunShardedCluster(const ShardedClusterOptions& options,
                                       bool use_sharded,
                                       obs::MetricsRegistry* perf) {
  ShardedCluster unit(options);
  const sim::Duration lookahead =
      options.lookahead > 0 ? options.lookahead : unit.plan().lookahead;
  if (use_sharded) {
    sim::ShardedEngine::Options engine_options;
    engine_options.shards = unit.plan().shards;
    engine_options.threads = options.threads;
    engine_options.lookahead = lookahead;
    sim::ShardedEngine engine(engine_options);
    ShardedClusterReport report = unit.Run(engine);
    if (perf != nullptr) ExportShardedPerf(report, &engine, *perf);
    return report;
  }
  sim::Simulator sim;
  sim::SingleQueueEngine engine(&sim, unit.plan().shards, lookahead);
  ShardedClusterReport report = unit.Run(engine);
  if (perf != nullptr) ExportShardedPerf(report, nullptr, *perf);
  return report;
}

void ExportShardedPerf(const ShardedClusterReport& report,
                       const sim::ShardedEngine* engine,
                       obs::MetricsRegistry& registry) {
  registry.Increment("pump.busy_ns", report.pump_busy_wall_ns);
  registry.Increment("pump.drain_ns", report.pump_drain_wall_ns);
  registry.Increment("pump.cluster_ns", report.pump_cluster_wall_ns);
  registry.Increment("pump.count", report.pumps);
  if (engine == nullptr) return;
  registry.Increment("engine.epochs", engine->epochs());
  registry.Increment("engine.cross_posts", engine->cross_posts());
  registry.Increment("engine.run_wall_ns", engine->run_wall_ns());
  for (int k = 0; k < engine->shards(); ++k) {
    const std::string prefix = "shard." + std::to_string(k);
    registry.Increment(prefix + ".busy_ns", engine->busy_ns(k));
    registry.Increment(prefix + ".barrier_wait_ns",
                       engine->barrier_wait_ns(k));
  }
}

}  // namespace ustore::core
