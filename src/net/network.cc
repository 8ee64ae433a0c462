#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"

namespace ustore::net {

void Network::Register(const NodeId& id, Node* node) {
  assert(node != nullptr);
  nodes_[id] = node;
}

void Network::Unregister(const NodeId& id) { nodes_.erase(id); }

void Network::Send(const NodeId& from, const NodeId& to, MessagePtr msg) {
  assert(msg != nullptr);
  ++messages_sent_;
  if (down_.contains(from) || down_.contains(to)) {
    ++messages_dropped_;
    return;
  }
  if (auto it = partitioned_.find({from, to});
      it != partitioned_.end() && it->second) {
    ++messages_dropped_;
    return;
  }
  const LinkParams& link = default_link_;
  if (link.loss_probability > 0.0 && rng_.NextBool(link.loss_probability)) {
    ++messages_dropped_;
    return;
  }

  const Bytes size = msg->wire_size();
  const auto tx_time = static_cast<sim::Duration>(
      1e9 * static_cast<double>(size) / link.bandwidth);
  sim::Time& free_at = link_free_at_[{from, to}];
  const sim::Time start = std::max(free_at, sim_->now());
  free_at = start + tx_time;
  const sim::Time deliver_at = free_at + link.latency + ExtraDelay(from, to);

  sim_->ScheduleAt(deliver_at, [this, from, to, msg = std::move(msg), size] {
    // Re-check state at delivery time: the receiver may have crashed (or a
    // partition may have been installed) while the message was in flight.
    if (down_.contains(to) || down_.contains(from)) {
      ++messages_dropped_;
      return;
    }
    if (auto it = partitioned_.find({from, to});
        it != partitioned_.end() && it->second) {
      ++messages_dropped_;
      return;
    }
    auto node_it = nodes_.find(to);
    if (node_it == nodes_.end()) {
      ++messages_dropped_;
      return;
    }
    ++messages_delivered_;
    bytes_delivered_ += size;
    bytes_by_link_[{from, to}] += size;
    node_it->second->HandleMessage(from, msg);
  });
}

Bytes Network::bytes_between(const NodeId& a, const NodeId& b) const {
  Bytes total = 0;
  if (auto it = bytes_by_link_.find({a, b}); it != bytes_by_link_.end()) {
    total += it->second;
  }
  if (auto it = bytes_by_link_.find({b, a}); it != bytes_by_link_.end()) {
    total += it->second;
  }
  return total;
}

void Network::SetNodeDown(const NodeId& id, bool is_down) {
  if (is_down) {
    down_[id] = true;
  } else {
    down_.erase(id);
  }
}

void Network::SetPartitioned(const NodeId& a, const NodeId& b,
                             bool partitioned) {
  partitioned_[{a, b}] = partitioned;
  partitioned_[{b, a}] = partitioned;
}

void Network::SetExtraDelay(const NodeId& a, const NodeId& b,
                            sim::Duration extra) {
  if (extra <= 0) {
    extra_delay_.erase({a, b});
    extra_delay_.erase({b, a});
    return;
  }
  extra_delay_[{a, b}] = extra;
  extra_delay_[{b, a}] = extra;
}

sim::Duration Network::ExtraDelay(const NodeId& from, const NodeId& to) const {
  auto it = extra_delay_.find({from, to});
  return it != extra_delay_.end() ? it->second : 0;
}

}  // namespace ustore::net
