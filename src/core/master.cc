#include "core/master.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ustore::core {
namespace {

constexpr const char* kLeaderPath = "/ustore/master/leader";

// StorAlloc znode payload: "service|offset|length".
std::string EncodeAlloc(const std::string& service, Bytes offset,
                        Bytes length) {
  return service + "|" + std::to_string(offset) + "|" +
         std::to_string(length);
}

bool DecodeAlloc(const std::string& data, std::string& service,
                 Bytes& offset, Bytes& length) {
  const std::size_t p1 = data.find('|');
  if (p1 == std::string::npos) return false;
  const std::size_t p2 = data.find('|', p1 + 1);
  if (p2 == std::string::npos) return false;
  service = data.substr(0, p1);
  offset = std::atoll(data.c_str() + p1 + 1);
  length = std::atoll(data.c_str() + p2 + 1);
  return true;
}

}  // namespace

Master::Master(sim::Simulator* sim, net::Network* network, net::NodeId id,
               int unit_id, fabric::BuiltFabric wiring,
               std::vector<net::NodeId> controller_ids,
               consensus::MetaClient::Options meta_options,
               MasterOptions options)
    : sim_(sim),
      unit_id_(unit_id),
      wiring_(std::move(wiring)),
      controller_ids_(std::move(controller_ids)),
      options_(options),
      endpoint_(std::make_unique<net::RpcEndpoint>(sim, network,
                                                   std::move(id))),
      monitor_timer_(sim) {
  meta_ = std::make_unique<consensus::MetaClient>(
      sim, network, endpoint_->id() + ":meta", std::move(meta_options));
  disks_.resize(wiring_.topology.Disks().size());
  RegisterHandlers();
}

Master::~Master() = default;

// --- Disk handles + reverse indexes --------------------------------------------

int Master::FindDisk(const std::string& name) const {
  Result<fabric::NodeIndex> node = wiring_.topology.Find(name);
  return node.ok() ? wiring_.topology.OrdinalOf(*node, fabric::NodeKind::kDisk)
                   : -1;
}

const std::string& Master::DiskName(int disk) const {
  return wiring_.topology.node(wiring_.topology.Disks()[disk]).name;
}

void Master::SetDiskHost(int disk, int host) {
  DiskStat& stat = disks_[disk];
  if (stat.host == host) return;
  if (stat.host >= 0) host_disks_[stat.host].erase(disk);
  if (host >= 0) host_disks_[host].insert(disk);
  stat.host = host;
  // Attribution changed without the new host listing the disk yet: a full
  // heartbeat must confirm it before delta beats refresh its liveness.
  stat.present = false;
}

void Master::SetAllocExposedHost(AllocEntry& entry, int host) {
  if (entry.exposed_host == host) return;
  DiskStat& stat = disks_[FindDisk(entry.id.disk)];
  if (entry.exposed_host >= 0) {
    auto it = stat.exposed_counts.find(entry.exposed_host);
    if (it != stat.exposed_counts.end() && --it->second == 0) {
      stat.exposed_counts.erase(it);
    }
  }
  if (host >= 0) ++stat.exposed_counts[host];
  entry.exposed_host = host;
}

void Master::AddAllocToIndexes(const AllocEntry& entry) {
  DiskStat& stat = disks_[FindDisk(entry.id.disk)];
  stat.spaces.insert(entry.id.space);
  if (entry.exposed_host >= 0) ++stat.exposed_counts[entry.exposed_host];
}

void Master::RemoveAllocFromIndexes(const AllocEntry& entry) {
  const int disk = FindDisk(entry.id.disk);
  if (disk < 0) return;
  DiskStat& stat = disks_[disk];
  stat.spaces.erase(entry.id.space);
  if (entry.exposed_host >= 0) {
    auto it = stat.exposed_counts.find(entry.exposed_host);
    if (it != stat.exposed_counts.end() && --it->second == 0) {
      stat.exposed_counts.erase(it);
    }
  }
}

bool Master::DiskExposedElsewhere(const DiskStat& stat,
                                  int host_index) const {
  for (const auto& [host, count] : stat.exposed_counts) {
    if (host != host_index && count > 0) return true;
  }
  return false;
}

void Master::MarkDiskSpacesUnavailable(int disk) {
  for (std::uint64_t space : disks_[disk].spaces) {
    auto it = allocations_.find(SpaceId{unit_id_, DiskName(disk), space});
    if (it != allocations_.end()) it->second.available = false;
  }
}

// --- Lifecycle -----------------------------------------------------------------

void Master::Start() {
  if (started_) return;
  started_ = true;
  meta_->set_on_session_expired([this] {
    // Our leadership znode is gone; stop serving until re-elected.
    if (active_) {
      USTORE_LOG(Warning) << id() << ": lost master leadership";
      active_ = false;
      monitor_timer_.Stop();
      RunElection();
    }
  });
  meta_->Start([this](Status status) {
    if (!status.ok()) {
      USTORE_LOG(Warning) << id() << ": meta session failed (" << status
                          << "); retrying";
      sim_->Schedule(sim::Seconds(1), [this] {
        started_ = false;
        Start();
      });
      return;
    }
    BootstrapMetaPaths([this](Status bootstrap_status) {
      if (!bootstrap_status.ok()) {
        USTORE_LOG(Error) << id()
                          << ": bootstrap failed: " << bootstrap_status;
        return;
      }
      RunElection();
    });
  });
}

void Master::BootstrapMetaPaths(std::function<void(Status)> done) {
  // Create the fixed hierarchy, tolerating AlreadyExists (any replica may
  // have won the race).
  const std::vector<std::string> paths = {
      "/ustore", "/ustore/master", "/ustore/hosts", "/ustore/alloc",
      "/ustore/alloc/u" + std::to_string(unit_id_)};
  // The stored step holds only a weak ref to itself; the strong ref lives
  // in the in-flight Create callback, so the last completion frees the
  // chain (a self-capturing shared function would be a strong cycle and
  // leak).
  auto create_next = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak_next = create_next;
  *create_next = [this, paths, done = std::move(done),
                  weak_next](std::size_t i) {
    if (i >= paths.size()) {
      done(Status::Ok());
      return;
    }
    auto self = weak_next.lock();
    meta_->Create(paths[i], "", false, [i, self](Status status) {
      if (!status.ok() && status.code() != StatusCode::kAlreadyExists) {
        // Bootstrap failures are retried by the next election attempt.
        USTORE_LOG(Warning) << "bootstrap create failed: " << status;
      }
      (*self)(i + 1);
    });
  };
  (*create_next)(0);
}

void Master::RunElection() {
  if (crashed_) return;
  meta_->Create(kLeaderPath, id(), /*ephemeral=*/true, [this](Status status) {
    if (crashed_) return;
    if (status.ok()) {
      OnBecameActive();
      return;
    }
    if (status.code() == StatusCode::kAlreadyExists) {
      // Stand by: watch the leader znode and retry when it changes.
      meta_->Watch(kLeaderPath, consensus::WatchType::kData,
                   [this](const std::string&) { RunElection(); },
                   [](Status) {});
      return;
    }
    // Transient metadata-store trouble: retry shortly.
    sim_->Schedule(sim::Seconds(1), [this] { RunElection(); });
  });
}

void Master::OnBecameActive() {
  USTORE_LOG(Info) << id() << " is now the active master";
  LoadAllocations([this](Status status) {
    if (!status.ok()) {
      USTORE_LOG(Error) << id() << ": loading StorAlloc failed: " << status;
    }
    active_ = true;
    // Give every configured host a grace period before declaring it dead.
    for (std::size_t h = 0; h < wiring_.hosts.size(); ++h) {
      HostStat& stat = hosts_[static_cast<int>(h)];
      if (!stat.ever_seen) {
        stat.alive = true;
        stat.last_heartbeat = sim_->now();
      }
    }
    monitor_timer_.StartPeriodic(options_.monitor_period,
                                 [this] { MonitorTick(); });
  });
}

void Master::LoadAllocations(std::function<void(Status)> done) {
  const std::string unit_path = "/ustore/alloc/u" + std::to_string(unit_id_);
  meta_->GetChildren(unit_path, [this, done = std::move(done)](
                                    Result<std::vector<std::string>> disks) {
    if (!disks.ok()) {
      done(disks.status());
      return;
    }
    auto remaining = std::make_shared<int>(1);
    auto finish = [this, done, remaining](Status) {
      if (--*remaining == 0) done(Status::Ok());
    };
    for (const std::string& disk_path : *disks) {
      ++*remaining;
      meta_->GetChildren(disk_path, [this, finish](
                                        Result<std::vector<std::string>>
                                            spaces) {
        if (!spaces.ok()) {
          finish(spaces.status());
          return;
        }
        auto inner = std::make_shared<int>(1);
        auto inner_finish = [finish, inner](Status) {
          if (--*inner == 0) finish(Status::Ok());
        };
        for (const std::string& space_path : *spaces) {
          ++*inner;
          meta_->Get(space_path, [this, space_path, inner_finish](
                                     Result<consensus::Znode> node) {
            if (node.ok()) LoadAllocation(space_path, node->data);
            inner_finish(Status::Ok());
          });
        }
        inner_finish(Status::Ok());
      });
    }
    finish(Status::Ok());
  });
}

void Master::LoadAllocation(const std::string& space_path,
                            const std::string& data) {
  // Path: /ustore/alloc/u<id>/<disk>/<space>.
  auto parsed =
      SpaceId::Parse(space_path.substr(std::string("/ustore/alloc").size()));
  std::string service;
  Bytes offset = 0, length = 0;
  if (!parsed.ok() || !DecodeAlloc(data, service, offset, length)) return;
  const int disk = FindDisk(parsed->disk);
  if (disk < 0) {
    USTORE_LOG(Warning) << id() << ": skipping allocation " << space_path
                        << ": " << parsed->disk << " is not a wiring disk";
    return;
  }
  AllocEntry entry{*parsed, service, offset, length, true};
  allocations_[*parsed] = entry;
  AddAllocToIndexes(entry);
  DiskStat& stat = disks_[disk];
  stat.allocated += length;
  stat.next_space = std::max(stat.next_space, parsed->space + 1);
  if (stat.owner_service.empty()) stat.owner_service = service;
}

void Master::MonitorTick() {
  if (!active_) return;
  const sim::Time now = sim_->now();
  for (auto& [host_index, stat] : hosts_) {
    if (stat.alive && now - stat.last_heartbeat > options_.heartbeat_timeout) {
      stat.alive = false;
      obs::Metrics().Increment("master.heartbeat_misses");
      USTORE_LOG(Warning) << id() << ": host " << host_index
                          << " missed heartbeats, starting failover";
      HandleHostFailure(host_index);
    }
  }
  // Disk disappearance (§IV-E): a disk that dropped off every live host's
  // USB tree — without a host failure to explain it — is a failed unit
  // (disk, bridge or its switch). Flag it for replacement.
  if (failovers_in_progress_.empty()) {
    for (int d : seen_disks_) {
      const DiskStat& disk = disks_[d];
      if (disk.failed) continue;
      if (disk.host >= 0 && !HostAlive(disk.host)) continue;
      if (now - disk.last_seen > options_.disk_missing_timeout) {
        USTORE_LOG(Warning)
            << id() << ": disk " << DiskName(d)
            << " disappeared from the fabric; treating as failed";
        HandleDiskFailure(d);
      }
    }
  }
}

bool Master::HostAlive(int host_index) const {
  auto it = hosts_.find(host_index);
  return it != hosts_.end() && it->second.alive;
}

int Master::CurrentHostOfDisk(const std::string& disk) const {
  const int handle = FindDisk(disk);
  return handle < 0 ? -1 : disks_[handle].host;
}

int Master::CurrentHostOfWiringDisk(fabric::NodeIndex node) const {
  const int handle = wiring_.topology.OrdinalOf(node, fabric::NodeKind::kDisk);
  return handle < 0 ? -1 : disks_[handle].host;
}

int Master::ServeMetaLookup(fabric::NodeIndex disk) {
  ++meta_lookups_served_;
  return CurrentHostOfWiringDisk(disk);
}

net::NodeId Master::ActiveControllerId() const {
  return controller_ids_.at(active_controller_);
}

void Master::EndFailoverSpan(int host_index, const std::string& outcome) {
  auto it = failover_spans_.find(host_index);
  if (it == failover_spans_.end()) return;
  obs::Tracer().Annotate(it->second, "outcome", outcome);
  obs::Tracer().End(it->second);
  failover_spans_.erase(it);
}

void Master::HandleHostFailure(int failed_host) {
  if (failovers_in_progress_.contains(failed_host)) return;
  failovers_in_progress_.insert(failed_host);
  obs::Metrics().Increment("master.failovers_started");
  const obs::SpanId span = obs::Tracer().Begin("master", "failover");
  obs::Tracer().Annotate(span, "host", std::to_string(failed_host));
  failover_spans_[failed_host] = span;

  // Control-plane takeover first: if the failed host ran the active
  // controller, switch to the backup and power on its microcontroller.
  if (failed_host == active_controller_ &&
      active_controller_ + 1 < static_cast<int>(controller_ids_.size())) {
    active_controller_ = failed_host + 1;
    endpoint_->Call(ActiveControllerId(),
                    std::make_shared<ControllerTakeoverRequest>(),
                    sim::Seconds(5), [](Result<net::MessagePtr>) {});
  }

  // The disks stranded on the failed host, straight from the host->disks
  // index (sorted, so the move order is deterministic). Spaces on them
  // become unavailable until re-exposed.
  std::vector<int> stranded;
  if (auto it = host_disks_.find(failed_host); it != host_disks_.end()) {
    stranded.assign(it->second.begin(), it->second.end());
  }
  for (int disk : stranded) MarkDiskSpacesUnavailable(disk);
  if (stranded.empty()) {
    failovers_in_progress_.erase(failed_host);
    EndFailoverSpan(failed_host, "no-disks-stranded");
    return;
  }

  // Least-loaded live host adopts them (§IV-E: "move the disks on this
  // host to a non-faulty one") — among hosts the fabric can actually route
  // every stranded disk to (SysConf knows the wiring).
  auto reachable_by_all = [&](int host_index) {
    for (int disk : stranded) {
      const fabric::NodeIndex node = wiring_.topology.Disks()[disk];
      bool reachable = false;
      for (fabric::NodeIndex port : wiring_.PortsOfHost(host_index)) {
        if (wiring_.topology.RouteTo(node, port).ok()) {
          reachable = true;
          break;
        }
      }
      if (!reachable) return false;
    }
    return true;
  };
  // Candidate targets, least-loaded first. A candidate may still fail with
  // a scheduling conflict (its route would steal a switch an uninvolved
  // disk group depends on) — per §IV-C the Master then re-schedules onto
  // the next candidate. Load is the host->disks index bucket size.
  std::vector<std::pair<int, int>> candidates;  // (load, host)
  for (const auto& [host_index, stat] : hosts_) {
    if (!stat.alive || host_index == failed_host) continue;
    if (!reachable_by_all(host_index)) continue;
    int load = 0;
    if (auto it = host_disks_.find(host_index); it != host_disks_.end()) {
      load = static_cast<int>(it->second.size());
    }
    candidates.emplace_back(load, host_index);
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.empty()) {
    USTORE_LOG(Error) << id() << ": no live host to adopt disks of host "
                      << failed_host;
    failovers_in_progress_.erase(failed_host);
    EndFailoverSpan(failed_host, "no-candidate-host");
    return;
  }

  // Weak self-capture, as in BootstrapMetaPaths: the pending SendSchedule
  // callback owns the chain, so it is freed once a candidate is accepted.
  auto try_candidate = std::make_shared<std::function<void(std::size_t)>>();
  std::weak_ptr<std::function<void(std::size_t)>> weak_try = try_candidate;
  *try_candidate = [this, failed_host, stranded, candidates,
                    weak_try](std::size_t index) {
    if (index >= candidates.size()) {
      USTORE_LOG(Error) << id() << ": every failover target for host "
                        << failed_host << " was rejected";
      failovers_in_progress_.erase(failed_host);
      EndFailoverSpan(failed_host, "all-targets-rejected");
      return;
    }
    const int target = candidates[index].second;
    std::vector<DiskHostPair> moves;
    for (int disk : stranded) {
      moves.push_back(DiskHostPair{DiskName(disk), target});
    }
    const obs::SpanId schedule_span = obs::Tracer().Begin(
        "master", "failover.schedule",
        obs::Tracer().ContextFor(failover_spans_[failed_host]));
    obs::Tracer().Annotate(schedule_span, "target", std::to_string(target));
    auto self = weak_try.lock();
    SendSchedule(moves, [this, failed_host, stranded, target, index,
                         schedule_span, self](Status status) {
      obs::Tracer().Annotate(schedule_span, "status",
                             status.ok() ? "ok" : status.ToString());
      obs::Tracer().End(schedule_span);
      if (status.code() == StatusCode::kConflict ||
          status.code() == StatusCode::kAborted) {
        obs::Metrics().Increment("master.failover.reschedules");
        USTORE_LOG(Warning) << id() << ": target host " << target
                            << " rejected (" << status
                            << "); re-scheduling";
        (*self)(index + 1);
        return;
      }
      if (!status.ok()) {
        USTORE_LOG(Error) << id() << ": schedule failed: " << status;
        failovers_in_progress_.erase(failed_host);
        EndFailoverSpan(failed_host, "schedule-failed");
        return;
      }
      const obs::SpanId expose_span = obs::Tracer().Begin(
          "master", "failover.re_expose",
          obs::Tracer().ContextFor(failover_spans_[failed_host]));
      auto remaining =
          std::make_shared<int>(static_cast<int>(stranded.size()));
      for (int disk : stranded) {
        SetDiskHost(disk, target);
        ReExposeDisk(disk, target,
                     [this, failed_host, remaining,
                      expose_span](Status expose_status) {
                       if (!expose_status.ok()) {
                         USTORE_LOG(Warning)
                             << id() << ": re-expose: " << expose_status;
                       }
                       if (--*remaining == 0) {
                         obs::Tracer().End(expose_span);
                         failovers_in_progress_.erase(failed_host);
                         ++failovers_completed_;
                         obs::Metrics().Increment(
                             "master.failovers_completed");
                         EndFailoverSpan(failed_host, "completed");
                       }
                     });
      }
    }, obs::Tracer().ContextFor(schedule_span));
  };
  (*try_candidate)(0);
}

void Master::HandleDiskFailure(int disk) {
  DiskStat& stat = disks_[disk];
  if (stat.failed) return;
  stat.failed = true;
  obs::Metrics().Increment("master.disk_failures");
  USTORE_LOG(Warning) << id() << ": disk " << DiskName(disk)
                      << " reported failed; flagging for replacement";
  // Data recovery is delegated to the upper-layer service (§IV-E); we just
  // mark spaces unavailable and notify subscribers via lookups.
  MarkDiskSpacesUnavailable(disk);
}

void Master::SendSchedule(std::vector<DiskHostPair> moves,
                          std::function<void(Status)> done,
                          obs::TraceContext ctx) {
  auto request = std::make_shared<ScheduleRequest>();
  request->moves = std::move(moves);
  endpoint_->Call(
      ActiveControllerId(), request, options_.controller_rpc_timeout,
      [done = std::move(done)](Result<net::MessagePtr> result) {
        done(result.status());
      },
      ctx);
}

void Master::ExposeEntry(const AllocEntry& entry, int host_index,
                         std::function<void(Status)> done) {
  auto request = std::make_shared<ExposeRequest>();
  request->id = entry.id;
  request->disk = entry.id.disk;
  request->offset = entry.offset;
  request->length = entry.length;
  endpoint_->Call(
      HostEndpointId(host_index), request, options_.endpoint_rpc_timeout,
      [this, id = entry.id, host_index,
       done = std::move(done)](Result<net::MessagePtr> result) {
        if (result.ok()) {
          auto it = allocations_.find(id);
          if (it != allocations_.end()) {
            it->second.available = true;
            SetAllocExposedHost(it->second, host_index);
            NotifySubscribers(id, HostEndpointId(host_index));
          }
        }
        done(result.status());
      });
}

void Master::ReExposeDisk(int disk, int new_host,
                          std::function<void(Status)> done) {
  // Snapshot the disk's entries via the reverse index (the set may mutate
  // while the expose RPCs are in flight).
  std::vector<AllocEntry> entries;
  for (std::uint64_t space : disks_[disk].spaces) {
    auto it = allocations_.find(SpaceId{unit_id_, DiskName(disk), space});
    if (it != allocations_.end()) entries.push_back(it->second);
  }
  if (entries.empty()) {
    done(Status::Ok());
    return;
  }
  auto remaining = std::make_shared<int>(static_cast<int>(entries.size()));
  auto first_error = std::make_shared<Status>();
  for (const AllocEntry& entry : entries) {
    ExposeEntry(entry, new_host,
                [remaining, first_error, done](Status status) {
                  if (!status.ok() && first_error->ok()) {
                    *first_error = status;
                  }
                  if (--*remaining == 0) done(*first_error);
                });
  }
}

void Master::NotifySubscribers(const SpaceId& space_id,
                               const net::NodeId& new_host) {
  auto it = subscribers_.find(space_id);
  if (it == subscribers_.end()) return;
  for (const auto& client : it->second) {
    auto moved = std::make_shared<SpaceMovedMsg>();
    moved->id = space_id;
    moved->new_host = new_host;
    endpoint_->Notify(client, moved);
  }
}

Result<int> Master::PickDisk(const std::string& service, Bytes size,
                             int locality_host) {
  int best = -1;
  int best_score = -1;
  Bytes best_free = -1;
  for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
    const DiskStat& stat = disks_[d];
    if (stat.failed || stat.host < 0 || !HostAlive(stat.host)) continue;
    const Bytes capacity = TB(3);
    const Bytes free = capacity - stat.allocated;
    if (free < size) continue;
    int score = 0;
    if (!stat.owner_service.empty() && stat.owner_service == service) {
      score += 2;  // rule 1: same-service affinity
    }
    if (stat.owner_service.empty()) {
      score += 1;  // fresh disks beat disks owned by other services
    }
    if (locality_host >= 0 && stat.host == locality_host) {
      score += 1;  // rule 2: network locality
    }
    if (score > best_score || (score == best_score && free > best_free)) {
      best = d;
      best_score = score;
      best_free = free;
    }
  }
  if (best < 0) {
    return ResourceExhaustedError("no disk can fit " + FormatBytes(size) +
                                  " for service " + service);
  }
  return best;
}

const std::vector<SpaceId>* Master::StripeChunks(
    std::uint64_t stripe_id) const {
  if (stripe_id >= stripes_.size()) return nullptr;
  return &stripes_[stripe_id].chunks;
}

Status Master::EnsureStripeLayout(int data_chunks, int parity_chunks) {
  if (data_chunks <= 0 || parity_chunks < 0) {
    return InvalidArgumentError("stripe geometry must have k > 0, m >= 0");
  }
  if (stripe_layout_.has_value()) {
    const fabric::PlacementOptions& established = stripe_layout_->options();
    if (established.data_chunks != data_chunks ||
        established.parity_chunks != parity_chunks) {
      return FailedPreconditionError(
          "unit stripe geometry is RS(" +
          std::to_string(established.data_chunks) + "+" +
          std::to_string(established.parity_chunks) + "); requested RS(" +
          std::to_string(data_chunks) + "+" +
          std::to_string(parity_chunks) + ")");
    }
    return Status::Ok();
  }
  if (failure_domains_.size() == 0) {
    failure_domains_ = fabric::EnumerateFailureDomains(wiring_);
  }
  if (failure_domains_.size() < data_chunks + parity_chunks) {
    return FailedPreconditionError(
        "RS(" + std::to_string(data_chunks) + "+" +
        std::to_string(parity_chunks) + ") needs " +
        std::to_string(data_chunks + parity_chunks) +
        " failure domains; the wiring has " +
        std::to_string(failure_domains_.size()));
  }
  fabric::PlacementOptions options;
  options.data_chunks = data_chunks;
  options.parity_chunks = parity_chunks;
  options.seed = static_cast<std::uint64_t>(unit_id_) + 42;
  stripe_layout_.emplace(options);
  for (const fabric::FailureDomain& domain : failure_domains_.domains) {
    stripe_layout_->AddDomains(1, static_cast<int>(domain.disks.size()));
    for (fabric::NodeIndex node : domain.disks) {
      stripe_disks_.push_back(wiring_.topology.node(node).ordinal);
    }
  }
  return Status::Ok();
}

struct Master::StripeAlloc {
  std::uint64_t stripe_id = 0;
  std::string service;
  Bytes chunk_size = 0;
  fabric::StripePlacement placement;
  std::vector<AllocatedSpace> chunks;  // filled chunk by chunk
  std::function<void(Result<net::MessagePtr>)> reply;
};

void Master::AllocateStripeChunk(std::shared_ptr<StripeAlloc> alloc,
                                 std::size_t index) {
  if (index >= alloc->placement.size()) {
    // Every chunk allocated + persisted + exposed: fill the reserved slot.
    StripeEntry& entry = stripes_.at(alloc->stripe_id);
    for (const fabric::ChunkLocation& loc : alloc->placement) {
      entry.domains.push_back(loc.domain);
    }
    for (const AllocatedSpace& space : alloc->chunks) {
      entry.chunks.push_back(space.id);
    }
    auto response = std::make_shared<AllocateStripeResponse>();
    response->stripe_id = alloc->stripe_id;
    for (const fabric::ChunkLocation& loc : alloc->placement) {
      response->domains.push_back(loc.domain);
    }
    response->chunks = alloc->chunks;
    alloc->reply(net::MessagePtr(std::move(response)));
    return;
  }

  const int disk = stripe_disks_.at(alloc->placement[index].disk);
  const std::string& disk_name = DiskName(disk);
  DiskStat& stat = disks_[disk];
  if (stat.failed || stat.host < 0 || !HostAlive(stat.host)) {
    // Chunks already landed stay allocated (they are ordinary spaces a
    // retry or GC can reclaim); the placement's load bookkeeping for the
    // unfinished chunks is released so the layout stays exact.
    for (std::size_t i = index; i < alloc->placement.size(); ++i) {
      stripe_layout_->ReleaseChunk(alloc->placement[i]);
    }
    alloc->reply(UnavailableError("disk " + disk_name +
                                  " for stripe chunk " +
                                  std::to_string(index) +
                                  " is not attached to any live host"));
    return;
  }

  AllocEntry entry;
  entry.id = SpaceId{unit_id_, disk_name, stat.next_space++};
  entry.service = alloc->service;
  entry.offset = stat.allocated;
  entry.length = alloc->chunk_size;
  stat.allocated += alloc->chunk_size;
  if (stat.owner_service.empty()) stat.owner_service = alloc->service;
  allocations_[entry.id] = entry;
  AddAllocToIndexes(entry);

  PersistAllocation(entry, [this, alloc, index, entry,
                            disk](Status status) {
    if (!status.ok()) {
      RemoveAllocFromIndexes(entry);
      allocations_.erase(entry.id);
      for (std::size_t i = index; i < alloc->placement.size(); ++i) {
        stripe_layout_->ReleaseChunk(alloc->placement[i]);
      }
      alloc->reply(status);
      return;
    }
    const int host = disks_[disk].host;
    ExposeEntry(entry, host, [this, alloc, index, entry,
                              host](Status expose_status) {
      if (!expose_status.ok()) {
        for (std::size_t i = index; i < alloc->placement.size(); ++i) {
          stripe_layout_->ReleaseChunk(alloc->placement[i]);
        }
        alloc->reply(expose_status);
        return;
      }
      AllocatedSpace space;
      space.id = entry.id;
      space.offset = entry.offset;
      space.length = entry.length;
      space.host = HostEndpointId(host);
      space.service = entry.service;
      alloc->chunks.push_back(std::move(space));
      AllocateStripeChunk(alloc, index + 1);
    });
  });
}

void Master::PersistAllocation(const AllocEntry& entry,
                               std::function<void(Status)> done) {
  const std::string disk_path =
      "/ustore/alloc/u" + std::to_string(unit_id_) + "/" + entry.id.disk;
  const std::string space_path =
      disk_path + "/" + std::to_string(entry.id.space);
  const std::string payload =
      EncodeAlloc(entry.service, entry.offset, entry.length);
  meta_->Create(disk_path, "", false,
                [this, space_path, payload,
                 done = std::move(done)](Status status) {
                  if (!status.ok() &&
                      status.code() != StatusCode::kAlreadyExists) {
                    done(status);
                    return;
                  }
                  meta_->Create(space_path, payload, false, done);
                });
}

void Master::RegisterHandlers() {
  endpoint_->RegisterNotifyHandler<HeartbeatMsg>(
      [this](const net::NodeId&, net::MessagePtr msg) {
        auto* heartbeat = static_cast<HeartbeatMsg*>(msg.get());
        obs::Metrics().Increment("master.heartbeats_received");
        const sim::Time now = sim_->now();
        HostStat& host = hosts_[heartbeat->host_index];
        host.last_heartbeat = now;
        if (!host.alive) {
          if (host.ever_seen) {
            USTORE_LOG(Info) << id() << ": host " << heartbeat->host_index
                             << " is back online";
          }
          host.alive = true;
        }
        host.ever_seen = true;
        if (!heartbeat->full) {
          // Delta heartbeat: no disk-list payload (nothing changed at the
          // EndPoint). Refresh liveness of the disks this host most
          // recently confirmed present via the host->disks index.
          if (auto it = host_disks_.find(heartbeat->host_index);
              it != host_disks_.end()) {
            for (int d : it->second) {
              if (disks_[d].present) disks_[d].last_seen = now;
            }
          }
          return;
        }
        for (const DiskStatusEntry& entry : heartbeat->disks) {
          const int d = FindDisk(entry.name);
          if (d < 0) continue;  // not a disk of this unit's wiring
          SetDiskHost(d, heartbeat->host_index);
          DiskStat& disk = disks_[d];
          disk.present = true;
          disk.state = entry.state;
          disk.last_seen = now;
          seen_disks_.insert(d);
          bool back_after_repair = false;
          if (entry.failed && !disk.failed) HandleDiskFailure(d);
          if (!entry.failed && disk.failed) {
            // The unit came back (repaired/replaced); spaces become
            // available again once re-exposed.
            USTORE_LOG(Info) << id() << ": disk " << entry.name
                             << " is back after repair";
            disk.failed = false;
            back_after_repair = true;
          }
          // A disk that surfaced on a host other than the one exposing its
          // LUNs was moved (deliberate rebalance or a failover we did not
          // initiate): re-expose its spaces there. The per-disk
          // exposed-host counts answer this in O(1) — no allocation scan.
          // A disk back after repair re-exposes unconditionally: its spaces
          // were marked unavailable on failure, and when it resurfaces on
          // the host that already held its LUNs there is no "elsewhere"
          // signal — the expose round trip is what flips them back.
          if (!active_) continue;
          if ((back_after_repair ||
               DiskExposedElsewhere(disk, heartbeat->host_index)) &&
              !re_expose_in_progress_.contains(d)) {
            re_expose_in_progress_.insert(d);
            ReExposeDisk(d, heartbeat->host_index, [this, d](Status) {
              re_expose_in_progress_.erase(d);
            });
          }
        }
        // Disks attributed to this host but absent from the full list are
        // no longer visible there: stop the implicit delta-beat refresh so
        // they age out via disk_missing_timeout.
        if (auto it = host_disks_.find(heartbeat->host_index);
            it != host_disks_.end()) {
          for (int d : it->second) {
            if (disks_[d].last_seen != now) disks_[d].present = false;
          }
        }
      });

  endpoint_->RegisterHandler<AllocateRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        if (!active_) {
          reply(UnavailableError(id() + " is not the active master"));
          return;
        }
        auto* request = static_cast<AllocateRequest*>(msg.get());
        if (request->size <= 0) {
          reply(InvalidArgumentError("allocation size must be positive"));
          return;
        }
        Result<int> disk = -1;
        if (request->disk_hint.empty()) {
          disk = PickDisk(request->service, request->size,
                          request->locality_host);
        } else if (int hinted = FindDisk(request->disk_hint); hinted < 0) {
          disk = NotFoundError("no disk " + request->disk_hint);
        } else if (disks_[hinted].host < 0 || disks_[hinted].failed) {
          disk = UnavailableError("disk " + request->disk_hint +
                                  " is not attached to any live host");
        } else {
          disk = hinted;
        }
        if (!disk.ok()) {
          reply(disk.status());
          return;
        }
        DiskStat& stat = disks_[*disk];
        AllocEntry entry;
        entry.id = SpaceId{unit_id_, DiskName(*disk), stat.next_space++};
        entry.service = request->service;
        entry.offset = stat.allocated;
        entry.length = request->size;
        stat.allocated += request->size;
        if (stat.owner_service.empty()) {
          stat.owner_service = request->service;
        }
        allocations_[entry.id] = entry;
        AddAllocToIndexes(entry);

        // Persist synchronously (§IV-A: "stored persistently in the Master
        // synchronously"), then expose on the disk's current host.
        PersistAllocation(entry, [this, entry, disk = *disk,
                                  reply](Status status) {
          if (!status.ok()) {
            RemoveAllocFromIndexes(entry);
            allocations_.erase(entry.id);
            reply(status);
            return;
          }
          const int host = disks_[disk].host;
          ExposeEntry(entry, host, [this, entry, host,
                                    reply](Status expose_status) {
            if (!expose_status.ok()) {
              reply(expose_status);
              return;
            }
            auto response = std::make_shared<AllocateResponse>();
            response->space.id = entry.id;
            response->space.offset = entry.offset;
            response->space.length = entry.length;
            response->space.host = HostEndpointId(host);
            response->space.service = entry.service;
            reply(net::MessagePtr(std::move(response)));
          });
        });
      });

  endpoint_->RegisterHandler<AllocateStripeRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        if (!active_) {
          reply(UnavailableError(id() + " is not the active master"));
          return;
        }
        auto* request = static_cast<AllocateStripeRequest*>(msg.get());
        if (request->chunk_size <= 0) {
          reply(InvalidArgumentError("chunk size must be positive"));
          return;
        }
        Status layout_ok = EnsureStripeLayout(request->data_chunks,
                                              request->parity_chunks);
        if (!layout_ok.ok()) {
          reply(layout_ok);
          return;
        }
        const std::uint64_t stripe_id = stripes_.size();
        Result<fabric::StripePlacement> placement =
            stripe_layout_->PlaceStripe(stripe_id);
        if (!placement.ok()) {
          reply(placement.status());
          return;
        }
        // Reserve the id slot now: chunk allocation is asynchronous and a
        // concurrent stripe request must not claim the same id. A slot
        // whose chunks stay empty marks a failed/incomplete stripe.
        stripes_.push_back(StripeEntry{stripe_id, {}, {}});
        auto alloc = std::make_shared<StripeAlloc>();
        alloc->stripe_id = stripe_id;
        alloc->service = request->service;
        alloc->chunk_size = request->chunk_size;
        alloc->placement = std::move(*placement);
        alloc->reply = std::move(reply);
        AllocateStripeChunk(std::move(alloc), 0);
      });

  endpoint_->RegisterHandler<LookupRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        if (!active_) {
          reply(UnavailableError(id() + " is not the active master"));
          return;
        }
        auto* request = static_cast<LookupRequest*>(msg.get());
        auto it = allocations_.find(request->id);
        if (it == allocations_.end()) {
          reply(NotFoundError("no allocation " + request->id.ToString()));
          return;
        }
        auto response = std::make_shared<LookupResponse>();
        const int disk = FindDisk(it->second.id.disk);
        const int host = disk < 0 ? -1 : disks_[disk].host;
        response->available = it->second.available && host >= 0 &&
                              HostAlive(host);
        if (host >= 0) response->host = HostEndpointId(host);
        response->offset = it->second.offset;
        response->length = it->second.length;
        reply(net::MessagePtr(std::move(response)));
      });

  endpoint_->RegisterHandler<ReleaseRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        if (!active_) {
          reply(UnavailableError(id() + " is not the active master"));
          return;
        }
        auto* request = static_cast<ReleaseRequest*>(msg.get());
        auto it = allocations_.find(request->id);
        if (it == allocations_.end()) {
          reply(NotFoundError("no allocation " + request->id.ToString()));
          return;
        }
        if (it->second.service != request->service) {
          reply(FailedPreconditionError("space owned by " +
                                        it->second.service));
          return;
        }
        const AllocEntry entry = it->second;
        RemoveAllocFromIndexes(entry);
        allocations_.erase(it);
        const int disk = FindDisk(entry.id.disk);
        if (disk >= 0) disks_[disk].allocated -= entry.length;
        subscribers_.erase(entry.id);
        // Remove persistence and the exposure (best effort).
        const std::string path = "/ustore/alloc" + entry.id.ToString();
        meta_->Delete(path, consensus::kAnyVersion, [](Status) {});
        const int host = disk < 0 ? -1 : disks_[disk].host;
        if (host >= 0) {
          auto unexpose = std::make_shared<UnexposeRequest>();
          unexpose->id = entry.id;
          endpoint_->Call(HostEndpointId(host), unexpose,
                          options_.endpoint_rpc_timeout,
                          [](Result<net::MessagePtr>) {});
        }
        reply(net::MessagePtr(std::make_shared<AckMsg>()));
      });

  endpoint_->RegisterHandler<SubscribeRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* request = static_cast<SubscribeRequest*>(msg.get());
        subscribers_[request->id].insert(request->client);
        reply(net::MessagePtr(std::make_shared<AckMsg>()));
      });

  endpoint_->RegisterHandler<DiskPowerRequest>(
      [this](const net::NodeId&, net::MessagePtr msg,
             std::function<void(Result<net::MessagePtr>)> reply) {
        if (!active_) {
          reply(UnavailableError(id() + " is not the active master"));
          return;
        }
        auto* request = static_cast<DiskPowerRequest*>(msg.get());
        const int disk = FindDisk(request->disk);
        if (disk < 0) {
          reply(NotFoundError("no disk " + request->disk));
          return;
        }
        const DiskStat& stat = disks_[disk];
        // §IV-F: services may only manage disks allocated to them.
        if (stat.owner_service != request->service) {
          reply(FailedPreconditionError(
              "disk " + request->disk + " is not owned by service " +
              request->service));
          return;
        }
        switch (request->action) {
          case DiskPowerAction::kSpinUp:
          case DiskPowerAction::kSpinDown: {
            if (stat.host < 0) {
              reply(UnavailableError("disk currently detached"));
              return;
            }
            auto spin = std::make_shared<SpinRequest>();
            spin->disk = request->disk;
            spin->spin_up = request->action == DiskPowerAction::kSpinUp;
            endpoint_->Call(HostEndpointId(stat.host), spin,
                            options_.endpoint_rpc_timeout,
                            [reply](Result<net::MessagePtr> result) {
                              reply(std::move(result));
                            });
            return;
          }
          case DiskPowerAction::kPowerOn:
          case DiskPowerAction::kPowerOff: {
            auto relay = std::make_shared<RelayPowerRequest>();
            relay->device = request->disk;
            relay->on = request->action == DiskPowerAction::kPowerOn;
            endpoint_->Call(ActiveControllerId(), relay,
                            options_.controller_rpc_timeout,
                            [reply](Result<net::MessagePtr> result) {
                              reply(std::move(result));
                            });
            return;
          }
        }
      });
}

void Master::Crash() {
  if (crashed_) return;
  crashed_ = true;
  active_ = false;
  monitor_timer_.Stop();
  meta_->Crash();
  endpoint_->Shutdown();
}

void Master::Restart() {
  if (!crashed_) return;
  crashed_ = false;
  started_ = false;
  endpoint_->Reopen();
  meta_->Restart();
  RegisterHandlers();
  hosts_.clear();
  allocations_.clear();
  host_disks_.clear();
  seen_disks_.clear();
  for (DiskStat& stat : disks_) stat = DiskStat{};
  // The dead process's in-flight failovers and re-exposures died with its
  // RPC callbacks (Shutdown drops them); left behind, they would block the
  // missing-disk check and these hosts' and disks' next failover forever.
  while (!failover_spans_.empty()) {
    EndFailoverSpan(failover_spans_.begin()->first, "master-restarted");
  }
  failovers_in_progress_.clear();
  re_expose_in_progress_.clear();
  Start();
}

// --- Introspection -------------------------------------------------------------

std::string Master::DumpAllocations() const {
  std::string out;
  for (const auto& [space_id, entry] : allocations_) {
    out += space_id.ToString();
    out += " service=" + entry.service;
    out += " offset=" + std::to_string(entry.offset);
    out += " length=" + std::to_string(entry.length);
    out += entry.available ? " available" : " unavailable";
    out += " exposed_host=" + std::to_string(entry.exposed_host);
    out += "\n";
  }
  return out;
}

bool Master::CheckIndexesForTest(std::string* why) const {
  auto fail = [why](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  // Every allocation is indexed on its disk.
  for (const auto& [space_id, entry] : allocations_) {
    const int d = FindDisk(space_id.disk);
    if (d < 0) return fail("allocation on non-wiring disk " + space_id.disk);
    if (!disks_[d].spaces.contains(space_id.space)) {
      return fail("allocation " + space_id.ToString() +
                  " missing from disk index");
    }
  }
  for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
    const DiskStat& stat = disks_[d];
    // Every indexed space is a live allocation, and the per-disk
    // exposed-host counts and allocated-bytes floor match a full scan.
    std::map<int, int> exposed;
    Bytes total = 0;
    for (std::uint64_t space : stat.spaces) {
      auto it = allocations_.find(SpaceId{unit_id_, DiskName(d), space});
      if (it == allocations_.end()) {
        return fail("stale space " + std::to_string(space) + " on disk " +
                    DiskName(d));
      }
      if (it->second.exposed_host >= 0) ++exposed[it->second.exposed_host];
      total += it->second.length;
    }
    if (exposed != stat.exposed_counts) {
      return fail("exposed-host counts wrong on disk " + DiskName(d));
    }
    // `allocated` is a bump allocator: it only shrinks on release, so it
    // bounds (but need not equal) the live total.
    if (stat.allocated < total) {
      return fail("allocated bytes below live total on disk " +
                  DiskName(d));
    }
    // host->disks bucket membership matches stat.host.
    const bool indexed =
        stat.host >= 0 && host_disks_.contains(stat.host) &&
        host_disks_.at(stat.host).contains(d);
    if ((stat.host >= 0) != indexed) {
      return fail("host index disagrees for disk " + DiskName(d));
    }
  }
  // The seen-disk set is exactly the disks some heartbeat listed.
  std::set<int> seen;
  for (int d = 0; d < static_cast<int>(disks_.size()); ++d) {
    if (disks_[d].last_seen >= 0) seen.insert(d);
  }
  if (seen != seen_disks_) {
    return fail("seen-disk set disagrees with last_seen");
  }
  // No foreign entries in host buckets.
  for (const auto& [host, bucket] : host_disks_) {
    for (int d : bucket) {
      if (d < 0 || d >= static_cast<int>(disks_.size()) ||
          disks_[d].host != host) {
        return fail("host bucket " + std::to_string(host) +
                    " holds stray disk handle");
      }
    }
  }
  // Stripe index: every completed stripe's chunks are live allocations in
  // pairwise-distinct failure domains (empty chunks = failed/in-flight
  // stripe, exempt).
  for (const StripeEntry& stripe : stripes_) {
    if (stripe.chunks.empty()) continue;
    if (stripe.chunks.size() != stripe.domains.size()) {
      return fail("stripe " + std::to_string(stripe.id) +
                  " chunk/domain arity mismatch");
    }
    std::set<int> seen_domains;
    for (std::size_t c = 0; c < stripe.chunks.size(); ++c) {
      if (!allocations_.contains(stripe.chunks[c])) {
        return fail("stripe " + std::to_string(stripe.id) + " chunk " +
                    std::to_string(c) + " has no allocation");
      }
      if (!seen_domains.insert(stripe.domains[c]).second) {
        return fail("stripe " + std::to_string(stripe.id) +
                    " places two chunks in one failure domain");
      }
    }
  }
  return true;
}

}  // namespace ustore::core
