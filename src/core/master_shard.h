// Per-group sharded Master control plane: revocable meta leases
// (DESIGN.md §15).
//
// PR 8 put the real Cluster on the sharded engine, but every Master/meta
// decision still funnelled through the central control pump — one shard's
// periodic event that drains all escalations, advances the inner
// Simulator, and answers every allocation lookup. At 100k disks that pump
// is the serial section; Amdahl caps whatever the data-plane shards gain.
//
// A MasterShard fixes that by holding a revocable *meta lease* over one
// fabric group's slice of the Master's hot-path state: a mirror of the
// group's disk→exposing-host and disk→failed indexes plus the steady-state
// directive counters. While the lease is held, the group's shard answers
// heartbeats, allocation lookups, re-expose (readmit-after-heal)
// decisions, and steady-state directives locally — shard-local, even-ns,
// no cross-shard hop. Only lease grant/revoke, host-crash failover,
// global allocation changes, fallback I/O and invariant audits escalate
// to the central Master through the existing mailbox/pump path (odd-ns
// Posts, §12 tie discipline), so the pump's occupancy drops to
// lease-escalation traffic.
//
// Lease invariants (tested in tests/sharded_cluster_test.cc):
//   * Epoch monotonicity: every Grant/Revoke carries the central master's
//     lease epoch for the group; a message whose epoch is older than the
//     latest one applied is stale and rejected (counted, never applied).
//     Grants and revokes for one group all originate from the single
//     control pump and travel source-FIFO, so in-order delivery is the
//     common case — the epoch guard is what makes reordering harmless.
//   * Single writer: the mirror is only mutated by events running on the
//     lease's own shard (the group's event shard, ShardPlan::group_shard),
//     so no lock is needed and the state is identical at every
//     shard/thread count.
//   * Determinism: every counter here is a pure function of the delivered
//     message sequence, which the §12 tie discipline makes a pure
//     function of (options, seed). Nothing in this class reads the clock.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace ustore::core {

// The state snapshot the central Master pushes out at grant time: the
// group's disk→host and disk→failed indexes (indexed by the group's local
// disk slot, not the global node index), plus the ops baseline local
// directives start counting from.
struct MetaLeaseIndex {
  std::vector<int> disk_host;           // local disk slot -> exposing host
  std::vector<std::uint8_t> disk_failed;  // local disk slot -> failed?
  std::uint64_t ops_baseline = 0;       // directives resume from here
};

class MasterShard {
 public:
  // A lease sync (ops summary) escalates to the central Master every this
  // many locally handled heartbeats, which keeps the central view fresh
  // enough to resume from on revoke.
  static constexpr std::uint64_t kSyncEvery = 8;

  // Issues a local steady-state directive every `directive_every_ops` ops
  // (0 disables, as ShardedClusterOptions::directive_every_ops).
  explicit MasterShard(std::uint64_t directive_every_ops)
      : directive_every_ops_(directive_every_ops) {}

  bool lease_held() const { return lease_held_; }
  std::uint64_t lease_epoch() const { return lease_epoch_; }
  // The ops count local directives have been issued up to; lease syncs
  // carry it so the central cursor never re-issues a locally decided flip.
  std::uint64_t directed_at() const { return directed_at_; }

  // Lease protocol, driven by deliveries from the central pump. Both
  // reject (and count) stale epochs: only epochs strictly newer than the
  // last applied one take effect.
  bool Grant(std::uint64_t epoch, MetaLeaseIndex index);
  bool Revoke(std::uint64_t epoch);

  // A group heartbeat (periodic ops report) handled under the lease.
  struct ReportDecision {
    bool local = false;   // true: handled here, nothing to escalate
    int directives = 0;   // steady-state direction flips decided locally
    bool sync_due = false;  // escalate an ops summary to the central Master
  };
  ReportDecision OnReport(std::uint64_t total_ops);

  // Allocation lookup against the mirrored index. Only valid while the
  // lease is held (callers escalate to the pump otherwise). Returns the
  // exposing host, or -1 if the mirror has none.
  int LookupHost(int disk);

  // Mirror maintenance: the group observes a fault state change (its own
  // chaos toggle or a pump fault ack).
  void NoteFault(int disk, bool failed);

  // Local re-expose decision after a heal: under the lease the group
  // decides readmission itself instead of round-tripping to the Master.
  // `eligible` is the group's own steady-state eligibility check; the
  // decision equals it (the point is *where* the decision is made), but
  // the mirror is updated and the decision counted here.
  bool ReadmitAfterHeal(int disk, bool eligible);

  // Counters (all deterministic; copied into the group report).
  std::uint64_t stale_rejected() const { return stale_rejected_; }
  // Heartbeats, lookups and readmits handled under the lease.
  std::uint64_t local_decisions() const { return local_decisions_; }
  std::uint64_t local_directives() const { return local_directives_; }

 private:
  std::uint64_t directive_every_ops_;
  bool lease_held_ = false;
  std::uint64_t lease_epoch_ = 0;
  MetaLeaseIndex index_;

  // Directive state under the lease (mirrors the central pump's
  // ops_seen/directed_at pair, but local to the group).
  std::uint64_t ops_seen_ = 0;
  std::uint64_t directed_at_ = 0;
  std::uint64_t reports_since_sync_ = 0;

  std::uint64_t stale_rejected_ = 0;
  std::uint64_t local_decisions_ = 0;
  std::uint64_t local_directives_ = 0;
};

}  // namespace ustore::core
