// UStore Master (§IV-A).
//
// The Master maintains the holistic view of the system:
//   * SysConf  — static configuration (the deploy unit's wiring);
//   * SysStat  — live status: host liveness from heartbeats, the current
//                disk->host mapping, disk states. Memory-only: it is
//                reconstructed from heartbeats after a takeover;
//   * StorAlloc — persistent storage allocations in the global namespace
//                </unit/disk/space>, stored in the replicated MetaStore.
//
// Master processes run active-standby: each races to create the ephemeral
// znode /ustore/master/leader; the winner serves, losers watch the znode
// and take over when the winner's session dies (§V-B).
//
// Allocation follows the paper's two rules: prefer a disk already serving
// the same service (power management locality), then a disk near the
// client on the network.
//
// Failure handling: a host that misses heartbeats past the timeout is
// declared crashed; its disks are moved to the least-loaded live host via
// a Controller scheduling command, re-exposed on the adopting host, and
// subscribed clients are notified.
//
// Hot-path scaling (fleet targets, DESIGN.md §8): disk names are interned
// into dense integer handles at first sight, and two reverse indexes —
// disk->allocated spaces and host->attached disks, plus a per-disk count
// of allocations by exposing host — keep heartbeat processing, failover
// collection and re-exposure independent of the total allocation count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "consensus/meta_client.h"
#include "core/types.h"
#include "fabric/builders.h"
#include "fabric/failure_domains.h"
#include "fabric/placement.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::core {

struct MasterOptions {
  sim::Duration heartbeat_timeout = sim::MillisD(2000);
  sim::Duration monitor_period = sim::MillisD(250);
  // A disk absent from every live host's heartbeats for this long (while
  // no failover is in progress) is treated as a failed unit (§IV-E) —
  // long enough to never trip during a routine switch.
  sim::Duration disk_missing_timeout = sim::Seconds(10);
  sim::Duration controller_rpc_timeout = sim::Seconds(40);
  sim::Duration endpoint_rpc_timeout = sim::Seconds(25);
};

class Master {
 public:
  Master(sim::Simulator* sim, net::Network* network, net::NodeId id,
         int unit_id, fabric::BuiltFabric wiring,
         std::vector<net::NodeId> controller_ids,
         consensus::MetaClient::Options meta_options,
         MasterOptions options = {});
  ~Master();

  const net::NodeId& id() const { return endpoint_->id(); }
  bool is_active() const { return active_; }

  // Joins the election; the winner starts serving.
  void Start();

  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  // --- Introspection (tests / benches) ---------------------------------------
  bool HostAlive(int host_index) const;
  int CurrentHostOfDisk(const std::string& disk) const;
  // CurrentHostOfDisk for a wiring disk, by its fabric node: no name is
  // hashed. -1 for a node that is not a wiring disk.
  int CurrentHostOfWiringDisk(fabric::NodeIndex node) const;
  std::size_t allocation_count() const { return allocations_.size(); }
  int failovers_completed() const { return failovers_completed_; }

  // Central allocation lookup served on behalf of a group without a meta
  // lease (the sharded-master escalation path, DESIGN.md §15). Identical
  // to CurrentHostOfWiringDisk but counted, so the pump-occupancy story is
  // visible from the Master itself.
  int ServeMetaLookup(fabric::NodeIndex disk);
  std::uint64_t meta_lookups_served() const { return meta_lookups_served_; }

  // Canonical one-line-per-space rendering of StorAlloc (sorted by id) —
  // ShardedClusterReport digests it for its determinism checks.
  std::string DumpAllocations() const;

  // --- Stripe introspection (DESIGN.md §16) -----------------------------------
  // The stripe index is rebuilt-on-demand state of the *active* master:
  // chunk spaces persist as ordinary allocations (a standby serves chunk
  // lookups after takeover), while stripe geometry reload from the meta
  // store is future work.
  std::size_t stripe_count() const { return stripes_.size(); }
  // Chunk spaces of a stripe, chunk-index order; nullptr if unknown.
  const std::vector<SpaceId>* StripeChunks(std::uint64_t stripe_id) const;
  int failure_domain_count() const {
    return static_cast<int>(failure_domains_.size());
  }

  // Verifies the reverse indexes (disk->spaces, host->disks, per-disk
  // exposed-host counts, per-disk allocated bytes, the seen-disk set)
  // against a full scan of allocations_/disks_. Returns false and describes
  // the first mismatch in `why` (if non-null). Test-only: O(disks +
  // allocations).
  bool CheckIndexesForTest(std::string* why = nullptr) const;

 private:
  struct AllocEntry {
    SpaceId id;
    std::string service;
    Bytes offset = 0;
    Bytes length = 0;
    bool available = false;  // exposed and reachable
    int exposed_host = -1;   // host currently exposing the LUN
  };

  struct HostStat {
    bool alive = false;
    sim::Time last_heartbeat = 0;
    bool ever_seen = false;
  };

  struct DiskStat {
    int host = -1;  // current attachment, -1 unknown/detached
    bool failed = false;
    // Listed in the owning host's latest full heartbeat. Delta heartbeats
    // (HeartbeatMsg::full == false) implicitly refresh last_seen for
    // present disks only, so a disk that dropped off the USB tree still
    // ages out via disk_missing_timeout.
    bool present = false;
    hw::DiskState state = hw::DiskState::kIdle;
    std::string owner_service;  // first service allocated here (rule 1)
    Bytes allocated = 0;
    std::uint64_t next_space = 1;
    sim::Time last_seen = -1;  // last heartbeat listing this disk
    // Reverse index: space numbers allocated on this disk (SpaceId =
    // {unit_id_, name, space}). Ordered for deterministic re-expose order.
    std::set<std::uint64_t> spaces;
    // Count of allocations by exposing host (entries only while > 0).
    // Answers "is anything on this disk exposed on a host other than h?"
    // in O(1) on the heartbeat hot path.
    std::map<int, int> exposed_counts;
  };

  void RegisterHandlers();
  void RunElection();
  void OnBecameActive();
  void BootstrapMetaPaths(std::function<void(Status)> done);
  void LoadAllocations(std::function<void(Status)> done);
  void MonitorTick();
  void HandleHostFailure(int host_index);
  void HandleDiskFailure(int disk);
  // Closes the failover trace span for `host_index` with an outcome attr.
  void EndFailoverSpan(int host_index, const std::string& outcome);

  // --- Disk interning + reverse-index maintenance ------------------------------
  // Get-or-create the dense handle for a disk name (wiring disks are
  // interned at construction; unknown names from heartbeats or persisted
  // allocations are added on first sight).
  int InternDisk(const std::string& name);
  int FindDisk(const std::string& name) const;  // -1 when unknown
  const std::string& DiskName(int disk) const { return disk_names_[disk]; }
  // Moves the disk between host_disks_ buckets and updates stat.host.
  void SetDiskHost(int disk, int host);
  // Re-points entry.exposed_host, keeping the disk's exposed_counts exact.
  void SetAllocExposedHost(AllocEntry& entry, int host);
  void AddAllocToIndexes(const AllocEntry& entry);
  void RemoveAllocFromIndexes(const AllocEntry& entry);
  // Any allocation on `disk` currently exposed on a host other than
  // `host_index`? O(#distinct exposing hosts), i.e. O(1).
  bool DiskExposedElsewhere(const DiskStat& stat, int host_index) const;
  // Marks every space on `disk` unavailable (failover/disk failure).
  void MarkDiskSpacesUnavailable(int disk);

  // Allocation machinery.
  Result<int> PickDisk(const std::string& service, Bytes size,
                       int locality_host);
  void PersistAllocation(const AllocEntry& entry,
                         std::function<void(Status)> done);

  // Stripe machinery. EnsureStripeLayout builds the declustered placement
  // over the wiring's failure domains on first use (or rejects a geometry
  // that does not match the established one / does not fit the domains).
  struct StripeEntry {
    std::uint64_t id = 0;
    std::vector<int> domains;
    std::vector<SpaceId> chunks;
  };
  struct StripeAlloc;  // in-flight AllocateStripe bookkeeping
  Status EnsureStripeLayout(int data_chunks, int parity_chunks);
  // Allocates + persists + exposes chunk `index`, then recurses to the
  // next; replies once all chunks (or the first failure) land.
  void AllocateStripeChunk(std::shared_ptr<StripeAlloc> alloc,
                           std::size_t index);

  // Failover machinery.
  net::NodeId ActiveControllerId() const;
  // `ctx` parents the controller RPC (and the controller's execute span)
  // under the failover's schedule span.
  void SendSchedule(std::vector<DiskHostPair> moves,
                    std::function<void(Status)> done,
                    obs::TraceContext ctx = {});
  void ReExposeDisk(int disk, int new_host,
                    std::function<void(Status)> done);
  void NotifySubscribers(const SpaceId& id, const net::NodeId& new_host);
  void ExposeEntry(const AllocEntry& entry, int host_index,
                   std::function<void(Status)> done);

  net::NodeId HostEndpointId(int host_index) const {
    return wiring_.hosts.at(host_index);
  }

  sim::Simulator* sim_;
  int unit_id_;
  fabric::BuiltFabric wiring_;  // SysConf
  std::vector<net::NodeId> controller_ids_;
  MasterOptions options_;

  std::unique_ptr<net::RpcEndpoint> endpoint_;
  std::unique_ptr<consensus::MetaClient> meta_;

  bool crashed_ = false;
  bool active_ = false;
  bool started_ = false;

  // SysStat (in-memory, rebuilt from heartbeats). Disks are stored densely
  // by interned handle; host_disks_ is the host->disks reverse index
  // (sorted, so failover move order stays deterministic).
  std::map<int, HostStat> hosts_;
  std::vector<DiskStat> disks_;
  std::vector<std::string> disk_names_;
  std::unordered_map<std::string, int> disk_index_;
  // Wiring disk node -> handle (wiring disks are interned first, in wiring
  // order); -1 for every other node.
  std::vector<int> disk_of_node_;
  std::map<int, std::set<int>> host_disks_;
  // Handles of the disks some heartbeat has listed (last_seen >= 0), in
  // handle order: the only disks MonitorTick can find missing, at most the
  // ~15 each host recognizes rather than the whole unit.
  std::set<int> seen_disks_;
  // Which controlling hosts have been told to take over the control plane.
  int active_controller_ = 0;

  // StorAlloc.
  std::map<SpaceId, AllocEntry> allocations_;

  // Stripe index (active-master state; see stripe_count()). The layout's
  // dense disk indexes map to fabric disk names via stripe_disk_names_,
  // both derived from the wiring's static failure domains.
  fabric::FailureDomainMap failure_domains_;
  std::optional<fabric::DeclusteredPlacement> stripe_layout_;
  std::vector<std::string> stripe_disk_names_;  // layout disk -> name
  std::vector<StripeEntry> stripes_;

  // Failover-notification subscriptions.
  std::map<SpaceId, std::set<net::NodeId>> subscribers_;

  sim::Timer monitor_timer_;
  int failovers_completed_ = 0;
  std::uint64_t meta_lookups_served_ = 0;
  std::set<int> failovers_in_progress_;
  std::map<int, obs::SpanId> failover_spans_;
  std::set<int> re_expose_in_progress_;  // disk handles
};

}  // namespace ustore::core
