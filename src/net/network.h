// Simulated data-center network.
//
// Models the existing Ethernet infrastructure UStore piggybacks on:
// point-to-point messages between named nodes over one link model shared
// by every pair (latency, bandwidth, optional loss), with bandwidth
// serialization FIFO per directed link.
// Fault injection (node down, pairwise partition) drives the failure-
// detection experiments.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace ustore::net {

using NodeId = std::string;

// Base class for all wire messages. wire_size() feeds the bandwidth model;
// subclasses carrying bulk data (iSCSI transfers, DFS blocks) override it.
struct Message {
  virtual ~Message() = default;
  virtual Bytes wire_size() const { return 256; }
};

using MessagePtr = std::shared_ptr<Message>;

class Node {
 public:
  virtual ~Node() = default;
  virtual void HandleMessage(const NodeId& from, const MessagePtr& msg) = 0;
};

struct LinkParams {
  sim::Duration latency = sim::MicrosD(200);   // intra-DC RTT/2 ballpark
  BytesPerSec bandwidth = MBps(118);           // ~1 GbE effective
  double loss_probability = 0.0;
};

class Network {
 public:
  Network(sim::Simulator* sim, Rng rng) : sim_(sim), rng_(rng) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void Register(const NodeId& id, Node* node);
  void Unregister(const NodeId& id);

  void set_default_link(LinkParams params) { default_link_ = params; }
  const LinkParams& default_link() const { return default_link_; }

  // Queues msg for delivery. Messages to unknown/down/partitioned nodes are
  // silently dropped — exactly how a crashed host looks from the outside.
  void Send(const NodeId& from, const NodeId& to, MessagePtr msg);

  // --- Fault injection -----------------------------------------------------
  void SetNodeDown(const NodeId& id, bool down);
  void SetPartitioned(const NodeId& a, const NodeId& b, bool partitioned);
  // Adds `extra` one-way latency to every message between a and b (both
  // directions) on top of the link's modelled latency — a congested or
  // degraded path rather than a dead one. Zero clears the injection.
  void SetExtraDelay(const NodeId& a, const NodeId& b, sim::Duration extra);
  sim::Duration ExtraDelay(const NodeId& from, const NodeId& to) const;

  // --- Introspection -------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  Bytes bytes_delivered() const { return bytes_delivered_; }
  // Bytes delivered between a and b (both directions).
  Bytes bytes_between(const NodeId& a, const NodeId& b) const;

 private:
  using DirectedLink = std::pair<NodeId, NodeId>;

  sim::Simulator* sim_;
  Rng rng_;
  LinkParams default_link_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::map<DirectedLink, sim::Time> link_free_at_;
  std::map<DirectedLink, bool> partitioned_;
  std::map<DirectedLink, sim::Duration> extra_delay_;
  std::unordered_map<NodeId, bool> down_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  Bytes bytes_delivered_ = 0;
  std::map<DirectedLink, Bytes> bytes_by_link_;
};

}  // namespace ustore::net
