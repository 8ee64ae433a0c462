#include "core/cluster.h"

#include <cassert>

#include "common/logging.h"
#include "fabric/builders.h"
#include "obs/metrics.h"

namespace ustore::core {

namespace {

fabric::BuiltFabric BuildFor(const ClusterOptions& options) {
  switch (options.fabric_kind) {
    case FabricKind::kPrototype:
      return fabric::BuildPrototypeFabric(options.fabric);
    case FabricKind::kLeafSwitched:
      return fabric::BuildLeafSwitchedFabric(options.leaf_switched);
  }
  return fabric::BuildPrototypeFabric(options.fabric);
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(options), rng_(options.seed) {
  // Stamp metrics snapshots and trace spans with this cluster's sim clock.
  obs::BindSimulator(&sim_);
  network_ = std::make_unique<net::Network>(&sim_, rng_.Fork());

  // The static wiring (SysConf) is built once; the FabricManager, both
  // Controllers and every Master get copies that share it but not its state.
  const fabric::BuiltFabric wiring = BuildFor(options_);
  fabric_ = std::make_unique<fabric::FabricManager>(
      &sim_, wiring, options_.fabric_manager, rng_.Fork());

  // Metadata quorum ("ZooKeeper", §V-B).
  consensus::MetaService::Options meta_options;
  for (int i = 0; i < options_.meta_replicas; ++i) {
    meta_options.paxos.peers.push_back("meta-paxos-" + std::to_string(i));
    meta_options.service_ids.push_back("meta-" + std::to_string(i));
  }
  for (int i = 0; i < options_.meta_replicas; ++i) {
    meta_.push_back(std::make_unique<consensus::MetaService>(
        &sim_, network_.get(), meta_options, i, rng_.Fork()));
  }

  // Controllers run on the first two hosts; controller i drives mcu i.
  std::vector<net::NodeId> controller_ids;
  for (int i = 0; i < 2; ++i) {
    controller_ids.push_back("ctrl-" + std::to_string(options_.unit_id) +
                             "-" + std::to_string(i));
  }
  for (int i = 0; i < 2; ++i) {
    controllers_.push_back(std::make_unique<Controller>(
        &sim_, network_.get(), controller_ids[i], wiring, fabric_.get(), i,
        options_.controller));
  }

  // Masters (active-standby).
  for (int i = 0; i < options_.masters; ++i) {
    masters_.push_back(std::make_unique<Master>(
        &sim_, network_.get(), "master-" + std::to_string(i),
        options_.unit_id, wiring, controller_ids, meta_client_options(),
        options_.master));
  }

  // EndPoints, one per host.
  std::vector<net::NodeId> master_addresses = master_ids();
  for (int h = 0; h < static_cast<int>(fabric_->fabric().hosts.size());
       ++h) {
    endpoints_.push_back(std::make_unique<EndPoint>(
        &sim_, network_.get(), h, fabric_.get(), master_addresses,
        controller_ids, meta_client_options(), options_.endpoint));
  }
}

Cluster::~Cluster() {
  // Drop the clock binding so later obs calls never dereference the dead
  // simulator (tests construct clusters back to back).
  obs::BindSimulator(nullptr);
}

std::vector<net::NodeId> Cluster::master_ids() const {
  std::vector<net::NodeId> out;
  for (int i = 0; i < options_.masters; ++i) {
    out.push_back("master-" + std::to_string(i));
  }
  return out;
}

consensus::MetaClient::Options Cluster::meta_client_options() const {
  consensus::MetaClient::Options options;
  for (int i = 0; i < options_.meta_replicas; ++i) {
    options.servers.push_back("meta-" + std::to_string(i));
  }
  return options;
}

void Cluster::Start() {
  for (auto& endpoint : endpoints_) endpoint->Start();
  for (auto& master : masters_) master->Start();
  // Let elections settle, devices enumerate and first heartbeats land.
  sim_.RunFor(sim::Seconds(8));
  for (int i = 0; i < 30 && active_master() == nullptr; ++i) {
    sim_.RunFor(sim::Seconds(1));
  }
  if (active_master() == nullptr) {
    USTORE_LOG(Error) << "cluster startup: no active master elected";
  }
}

Master* Cluster::active_master() {
  for (auto& master : masters_) {
    if (master->is_active()) return master.get();
  }
  return nullptr;
}

std::unique_ptr<ClientLib> Cluster::MakeClient(const std::string& name,
                                               int locality_host) {
  ClientLibOptions options;
  options.masters = master_ids();
  options.locality_host = locality_host;
  return std::make_unique<ClientLib>(&sim_, network_.get(), name, options);
}

void Cluster::CrashHost(int host) {
  endpoints_.at(host)->Crash();
  if (host < static_cast<int>(controllers_.size())) {
    controllers_[host]->Crash();
  }
}

void Cluster::RestartHost(int host) {
  endpoints_.at(host)->Restart();
  if (host < static_cast<int>(controllers_.size())) {
    controllers_[host]->Restart();
  }
}

fabric::ShardPlan Cluster::BuildShardPlan(int shards) const {
  fabric::ShardPlanOptions options;
  options.shards = shards;
  // The cross-shard floor is one control-plane RPC plus a USB hop; take
  // the RPC half from the unit's actual network configuration.
  options.rpc_floor = network_->default_link().latency;
  return fabric::BuildShardPlan(fabric_->topology(), options);
}

}  // namespace ustore::core
