#include "consensus/paxos.h"
#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::consensus {
namespace {

// --- Wire messages (internal to the Paxos group) ----------------------------

struct PrepareMsg : net::Message {
  Ballot ballot;
  std::uint64_t from_slot = 1;
};

struct PromiseMsg : net::Message {
  bool ok = false;
  Ballot promised;  // on rejection: the ballot the acceptor holds
  // Accepted suffix from from_slot on: (slot, ballot, value).
  std::vector<std::tuple<std::uint64_t, Ballot, std::string>> accepted;
  std::uint64_t chosen_up_to = 0;
};

struct AcceptMsg : net::Message {
  Ballot ballot;
  std::uint64_t slot = 0;
  std::string value;
  Bytes wire_size() const override {
    return 128 + static_cast<Bytes>(value.size());
  }
};

struct AcceptedMsg : net::Message {
  bool ok = false;
  Ballot promised;
};

struct CommitMsg : net::Message {
  std::uint64_t slot = 0;
  std::string value;
  int leader = -1;
  Bytes wire_size() const override {
    return 128 + static_cast<Bytes>(value.size());
  }
};

struct HeartbeatMsg : net::Message {
  Ballot ballot;
  int leader = -1;
  std::uint64_t chosen_up_to = 0;
};

struct LearnRequestMsg : net::Message {
  std::uint64_t from_slot = 0;
};

struct LearnReplyMsg : net::Message {
  std::vector<std::pair<std::uint64_t, std::string>> chosen;
  Bytes wire_size() const override {
    Bytes total = 128;
    for (const auto& [slot, value] : chosen) {
      total += 16 + static_cast<Bytes>(value.size());
    }
    return total;
  }
};

}  // namespace

PaxosNode::PaxosNode(sim::Simulator* sim, net::Network* network,
                     PaxosConfig config, int my_index, ApplyFn apply, Rng rng)
    : sim_(sim),
      network_(network),
      config_(std::move(config)),
      my_index_(my_index),
      apply_(std::move(apply)),
      rng_(rng),
      endpoint_(std::make_unique<net::RpcEndpoint>(
          sim, network, config_.peers.at(my_index))),
      election_timer_(sim),
      heartbeat_timer_(sim),
      catchup_timer_(sim) {
  assert(apply_);
  log_.resize(1);  // index 0 unused
  RegisterHandlers();
  ResetElectionTimer();
}

PaxosNode::~PaxosNode() = default;

PaxosNode::Slot& PaxosNode::slot(std::uint64_t index) {
  if (index > 100'000'000) {
    std::fprintf(stderr, "paxos %s: absurd slot index %llu (log %zu)\n",
                 id().c_str(), static_cast<unsigned long long>(index),
                 log_.size());
    std::abort();
  }
  if (index >= log_.size()) log_.resize(index + 1);
  return log_[index];
}

void PaxosNode::Stop() {
  if (stopped_) return;
  stopped_ = true;
  election_timer_.Stop();
  heartbeat_timer_.Stop();
  catchup_timer_.Stop();
  // Volatile leader state is lost; fail outstanding proposals.
  for (auto& [index, pending] : pending_accepts_) {
    if (pending.callback) pending.callback(UnavailableError("node stopped"));
  }
  pending_accepts_.clear();
  role_ = Role::kFollower;
  // Process gone: no RPC served, in-flight calls vanish. The endpoint
  // object stays alive (deferred reply functors may reference it) but
  // drops everything while shut down.
  endpoint_->Shutdown();
}

void PaxosNode::Restart() {
  if (!stopped_) return;
  stopped_ = false;
  leader_hint_ = -1;
  endpoint_->Reopen();
  RegisterHandlers();
  ResetElectionTimer();
}

void PaxosNode::ResetElectionTimer() {
  const auto span = static_cast<std::uint64_t>(
      config_.election_timeout_max - config_.election_timeout_min);
  const sim::Duration timeout =
      config_.election_timeout_min +
      static_cast<sim::Duration>(span == 0 ? 0 : rng_.NextBelow(span));
  election_timer_.StartOneShot(timeout, [this] { StartElection(); });
}

void PaxosNode::StartElection() {
  if (stopped_) return;
  obs::Metrics().Increment("paxos.elections");
  obs::Tracer().Emit("paxos:" + id(), "election_started", sim_->now(),
                     sim_->now(), {});
  role_ = Role::kCandidate;
  leader_hint_ = -1;
  my_ballot_ = MakeBallot(std::max(promised_.round, my_ballot_.round) + 1);
  promised_ = std::max(promised_, my_ballot_);
  ++election_cookie_;
  const std::uint64_t cookie = election_cookie_;
  promise_acks_ = 1;  // self
  promise_merge_.clear();
  // Merge own accepted suffix.
  for (std::uint64_t s = applied_up_to_ + 1; s < log_.size(); ++s) {
    if (log_[s].has_accepted) {
      promise_merge_[s] = {log_[s].accepted_ballot, log_[s].accepted_value};
    }
  }
  ResetElectionTimer();  // retry if this round stalls

  auto prepare = std::make_shared<PrepareMsg>();
  prepare->ballot = my_ballot_;
  prepare->from_slot = applied_up_to_ + 1;

  for (std::size_t peer = 0; peer < config_.peers.size(); ++peer) {
    if (static_cast<int>(peer) == my_index_) continue;
    endpoint_->Call(
        config_.peers[peer], prepare, config_.rpc_timeout,
        [this, cookie](Result<net::MessagePtr> result) {
          if (stopped_ || cookie != election_cookie_ ||
              role_ != Role::kCandidate) {
            return;
          }
          if (!result.ok()) return;
          auto* promise = dynamic_cast<PromiseMsg*>(result->get());
          if (promise == nullptr) return;
          if (!promise->ok) {
            if (promise->promised > my_ballot_) {
              StepDown(promise->promised.node);
            }
            return;
          }
          for (const auto& [s, ballot, value] : promise->accepted) {
            auto it = promise_merge_.find(s);
            if (it == promise_merge_.end() || ballot > it->second.first) {
              promise_merge_[s] = {ballot, value};
            }
          }
          if (++promise_acks_ >= majority()) BecomeLeader();
        });
  }
  // Single-node groups elect themselves immediately.
  if (promise_acks_ >= majority()) BecomeLeader();
}

void PaxosNode::BecomeLeader() {
  if (role_ == Role::kLeader) return;
  obs::Metrics().Increment("paxos.leader_changes");
  obs::Tracer().Emit("paxos:" + id(), "became_leader", sim_->now(),
                     sim_->now(), {}, {{"round", my_ballot_.round}});
  role_ = Role::kLeader;
  leader_hint_ = my_index_;
  ++election_cookie_;  // no more promises accepted for this round
  election_timer_.Stop();
  USTORE_LOG(Info) << id() << " became leader (round "
                   << my_ballot_.round << ")";

  // Determine the first free slot and re-propose in-flight values.
  std::uint64_t max_seen = applied_up_to_;
  for (std::uint64_t s = 1; s < log_.size(); ++s) {
    if (log_[s].chosen || log_[s].has_accepted) max_seen = std::max(max_seen, s);
  }
  for (const auto& [s, entry] : promise_merge_) max_seen = std::max(max_seen, s);
  next_slot_ = max_seen + 1;

  for (std::uint64_t s = applied_up_to_ + 1; s < next_slot_; ++s) {
    // promise_merge_ may reference slots beyond our own log, so use the
    // extending accessor (bare log_[s] here was an out-of-bounds read).
    if (slot(s).chosen) {
      BroadcastCommit(s);
      continue;
    }
    auto it = promise_merge_.find(s);
    const std::string value =
        it != promise_merge_.end() ? it->second.second : kNoOpCommand;
    StartAccept(s, value, nullptr);
  }
  promise_merge_.clear();

  SendHeartbeats();
  heartbeat_timer_.StartPeriodic(config_.heartbeat_period,
                                 [this] { SendHeartbeats(); });
}

void PaxosNode::StepDown(int new_leader_hint) {
  const bool was_leader = role_ == Role::kLeader;
  if (was_leader) obs::Metrics().Increment("paxos.step_downs");
  role_ = Role::kFollower;
  leader_hint_ = new_leader_hint;
  ++election_cookie_;
  heartbeat_timer_.Stop();
  if (was_leader) {
    USTORE_LOG(Info) << id() << " stepped down";
  }
  for (auto& [index, pending] : pending_accepts_) {
    if (pending.callback) {
      pending.callback(UnavailableError("lost leadership"));
    }
  }
  pending_accepts_.clear();
  ResetElectionTimer();
}

void PaxosNode::SendHeartbeats() {
  auto hb = std::make_shared<HeartbeatMsg>();
  hb->ballot = my_ballot_;
  hb->leader = my_index_;
  hb->chosen_up_to = applied_up_to_;
  for (std::size_t peer = 0; peer < config_.peers.size(); ++peer) {
    if (static_cast<int>(peer) == my_index_) continue;
    endpoint_->Notify(config_.peers[peer], hb);
  }
}

void PaxosNode::Propose(const std::string& command,
                        ProposeCallback callback) {
  assert(callback);
  if (stopped_) {
    callback(UnavailableError("node stopped"));
    return;
  }
  if (role_ != Role::kLeader) {
    callback(UnavailableError(
        "not leader; hint=" + std::to_string(leader_hint_)));
    return;
  }
  StartAccept(next_slot_++, command, std::move(callback));
}

void PaxosNode::StartAccept(std::uint64_t s, std::string value,
                            ProposeCallback callback) {
  obs::Metrics().Increment("paxos.accept_rounds");
  PendingAccept pending;
  pending.ballot = my_ballot_;
  pending.value = value;
  pending.acks = 1;  // self-accept below
  pending.callback = std::move(callback);
  pending_accepts_[s] = std::move(pending);

  // Accept locally.
  Slot& entry = slot(s);
  entry.accepted_ballot = my_ballot_;
  entry.accepted_value = value;
  entry.has_accepted = true;

  auto accept = std::make_shared<AcceptMsg>();
  accept->ballot = my_ballot_;
  accept->slot = s;
  accept->value = std::move(value);

  for (std::size_t peer = 0; peer < config_.peers.size(); ++peer) {
    if (static_cast<int>(peer) == my_index_) continue;
    endpoint_->Call(
        config_.peers[peer], accept, config_.rpc_timeout,
        [this, s, ballot = my_ballot_](Result<net::MessagePtr> result) {
          if (stopped_ || role_ != Role::kLeader || my_ballot_ != ballot) {
            return;
          }
          auto it = pending_accepts_.find(s);
          if (it == pending_accepts_.end()) return;
          if (!result.ok()) return;  // timeout; majority may still form
          auto* accepted = dynamic_cast<AcceptedMsg*>(result->get());
          if (accepted == nullptr) return;
          if (!accepted->ok) {
            if (accepted->promised > my_ballot_) {
              StepDown(accepted->promised.node);
            }
            return;
          }
          if (++it->second.acks >= majority()) {
            const std::string value = it->second.value;
            auto callback = std::move(it->second.callback);
            pending_accepts_.erase(it);
            OnChosen(s, value);
            if (callback) callback(s);
          }
        });
  }

  // Single-node group: chosen immediately.
  if (static_cast<int>(config_.peers.size()) == 1) {
    auto it = pending_accepts_.find(s);
    auto cb = std::move(it->second.callback);
    pending_accepts_.erase(it);
    OnChosen(s, accept->value);
    if (cb) cb(s);
  }
}

void PaxosNode::OnChosen(std::uint64_t s, const std::string& value) {
  Slot& entry = slot(s);
  if (!entry.chosen) {
    entry.chosen = true;
    entry.chosen_value = value;
    obs::Metrics().Increment("paxos.slots_chosen");
  }
  if (role_ == Role::kLeader) BroadcastCommit(s);
  TryApply();
}

void PaxosNode::BroadcastCommit(std::uint64_t s) {
  auto commit = std::make_shared<CommitMsg>();
  commit->slot = s;
  commit->value = log_[s].chosen_value;
  commit->leader = my_index_;
  for (std::size_t peer = 0; peer < config_.peers.size(); ++peer) {
    if (static_cast<int>(peer) == my_index_) continue;
    endpoint_->Notify(config_.peers[peer], commit);
  }
}

void PaxosNode::TryApply() {
  while (applied_up_to_ + 1 < log_.size() &&
         log_[applied_up_to_ + 1].chosen) {
    ++applied_up_to_;
    apply_(applied_up_to_, log_[applied_up_to_].chosen_value);
  }
}

void PaxosNode::RequestCatchUp() {
  if (stopped_ || leader_hint_ < 0 || leader_hint_ == my_index_) return;
  auto request = std::make_shared<LearnRequestMsg>();
  request->from_slot = applied_up_to_ + 1;
  endpoint_->Call(
      config_.peers[leader_hint_], request, config_.rpc_timeout,
      [this](Result<net::MessagePtr> result) {
        if (stopped_ || !result.ok()) return;
        auto* reply = dynamic_cast<LearnReplyMsg*>(result->get());
        if (reply == nullptr) return;
        for (const auto& [s, value] : reply->chosen) {
          Slot& entry = slot(s);
          if (!entry.chosen) {
            entry.chosen = true;
            entry.chosen_value = value;
          }
        }
        TryApply();
      });
}

void PaxosNode::RegisterHandlers() {
  endpoint_->RegisterHandler<PrepareMsg>(
      [this](const net::NodeId&, net::MessagePtr request,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* prepare = static_cast<PrepareMsg*>(request.get());
        auto promise = std::make_shared<PromiseMsg>();
        if (prepare->ballot > promised_) {
          promised_ = prepare->ballot;
          if (role_ == Role::kLeader) StepDown(prepare->ballot.node);
          promise->ok = true;
          promise->chosen_up_to = applied_up_to_;
          for (std::uint64_t s = prepare->from_slot; s < log_.size(); ++s) {
            if (log_[s].has_accepted) {
              promise->accepted.emplace_back(s, log_[s].accepted_ballot,
                                             log_[s].accepted_value);
            }
          }
          ResetElectionTimer();
        } else {
          promise->ok = false;
          promise->promised = promised_;
        }
        reply(net::MessagePtr(std::move(promise)));
      });

  endpoint_->RegisterHandler<AcceptMsg>(
      [this](const net::NodeId&, net::MessagePtr request,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* accept = static_cast<AcceptMsg*>(request.get());
        auto response = std::make_shared<AcceptedMsg>();
        if (accept->ballot >= promised_) {
          promised_ = accept->ballot;
          Slot& entry = slot(accept->slot);
          entry.accepted_ballot = accept->ballot;
          entry.accepted_value = accept->value;
          entry.has_accepted = true;
          response->ok = true;
          leader_hint_ = accept->ballot.node;
          ResetElectionTimer();
        } else {
          response->ok = false;
          response->promised = promised_;
        }
        reply(net::MessagePtr(std::move(response)));
      });

  endpoint_->RegisterHandler<LearnRequestMsg>(
      [this](const net::NodeId&, net::MessagePtr request,
             std::function<void(Result<net::MessagePtr>)> reply) {
        auto* learn = static_cast<LearnRequestMsg*>(request.get());
        auto response = std::make_shared<LearnReplyMsg>();
        constexpr std::uint64_t kBatch = 64;
        for (std::uint64_t s = learn->from_slot;
             s < log_.size() && response->chosen.size() < kBatch; ++s) {
          if (log_[s].chosen) {
            response->chosen.emplace_back(s, log_[s].chosen_value);
          }
        }
        reply(net::MessagePtr(std::move(response)));
      });

  endpoint_->RegisterNotifyHandler<CommitMsg>(
      [this](const net::NodeId&, net::MessagePtr msg) {
        auto* commit = static_cast<CommitMsg*>(msg.get());
        Slot& entry = slot(commit->slot);
        if (!entry.chosen) {
          entry.chosen = true;
          entry.chosen_value = commit->value;
        }
        leader_hint_ = commit->leader;
        TryApply();
        // A gap means we missed commits: fetch them.
        if (applied_up_to_ + 1 < commit->slot) {
          catchup_timer_.StartOneShot(sim::MillisD(10),
                                      [this] { RequestCatchUp(); });
        }
      });

  endpoint_->RegisterNotifyHandler<HeartbeatMsg>(
      [this](const net::NodeId&, net::MessagePtr msg) {
        auto* hb = static_cast<HeartbeatMsg*>(msg.get());
        if (hb->ballot >= promised_) {
          promised_ = std::max(promised_, hb->ballot);
          if (role_ == Role::kLeader && hb->ballot > my_ballot_) {
            StepDown(hb->leader);
          }
          leader_hint_ = hb->leader;
          if (role_ != Role::kLeader) ResetElectionTimer();
          if (hb->chosen_up_to > applied_up_to_) {
            catchup_timer_.StartOneShot(sim::MillisD(10),
                                        [this] { RequestCatchUp(); });
          }
        }
      });
}

}  // namespace ustore::consensus
