#include "core/master_shard.h"

#include <algorithm>
#include <utility>

namespace ustore::core {

bool MasterShard::Grant(std::uint64_t epoch, MetaLeaseIndex index) {
  if (epoch <= lease_epoch_) {
    ++stale_rejected_;
    return false;
  }
  lease_epoch_ = epoch;
  lease_held_ = true;
  index_ = std::move(index);
  // Local directives resume from the central baseline, never re-issuing
  // flips for ops the pump already directed.
  ops_seen_ = index_.ops_baseline;
  directed_at_ = index_.ops_baseline;
  reports_since_sync_ = 0;
  return true;
}

bool MasterShard::Revoke(std::uint64_t epoch) {
  if (epoch <= lease_epoch_) {
    ++stale_rejected_;
    return false;
  }
  lease_epoch_ = epoch;
  lease_held_ = false;
  return true;
}

MasterShard::ReportDecision MasterShard::OnReport(std::uint64_t total_ops) {
  ReportDecision decision;
  if (!lease_held_) return decision;
  decision.local = true;
  ++local_decisions_;
  ops_seen_ = std::max(ops_seen_, total_ops);
  if (directive_every_ops_ > 0) {
    while (ops_seen_ >= directed_at_ + directive_every_ops_) {
      directed_at_ += directive_every_ops_;
      ++decision.directives;
      ++local_directives_;
    }
  }
  if (++reports_since_sync_ >= kSyncEvery) {
    reports_since_sync_ = 0;
    decision.sync_due = true;
  }
  return decision;
}

int MasterShard::LookupHost(int disk) {
  ++local_decisions_;
  if (disk < 0 || disk >= static_cast<int>(index_.disk_host.size())) {
    return -1;
  }
  return index_.disk_failed[disk] ? -1 : index_.disk_host[disk];
}

void MasterShard::NoteFault(int disk, bool failed) {
  if (disk < 0 || disk >= static_cast<int>(index_.disk_failed.size())) return;
  index_.disk_failed[disk] = failed ? 1 : 0;
}

bool MasterShard::ReadmitAfterHeal(int disk, bool eligible) {
  ++local_decisions_;
  NoteFault(disk, false);
  return eligible;
}

}  // namespace ustore::core
