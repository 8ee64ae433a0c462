#include "net/rpc.h"

#include <cassert>
#include <string_view>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ustore::net {

RpcEndpoint::RpcEndpoint(sim::Simulator* sim, Network* network, NodeId id)
    : sim_(sim), network_(network), id_(std::move(id)) {
  network_->Register(id_, this);
}

RpcEndpoint::~RpcEndpoint() {
  Shutdown();
  network_->Unregister(id_);
}

void RpcEndpoint::Call(const NodeId& to, MessagePtr request,
                       sim::Duration timeout, ResponseCallback callback,
                       obs::TraceContext ctx) {
  assert(request && callback);
  if (shut_down_) return;
  auto wrapper = std::make_shared<RpcRequest>();
  wrapper->rpc_id = next_rpc_id_++;
  wrapper->payload = std::move(request);

  const std::uint64_t rpc_id = wrapper->rpc_id;
  const sim::EventId timeout_event =
      sim_->Schedule(timeout, [this, rpc_id, to] {
        auto it = pending_.find(rpc_id);
        if (it == pending_.end()) return;
        auto cb = std::move(it->second.callback);
        obs::Metrics().Increment("rpc.timeouts");
        FinishCall(it->second, "timeout");
        pending_.erase(it);
        cb(DeadlineExceededError("rpc to " + to + " timed out"));
      });
  PendingCall call{std::move(callback), timeout_event, sim_->now(),
                   obs::kInvalidSpan};
  obs::Metrics().Increment("rpc.calls");
  call.span =
      obs::Tracer().Begin("rpc", "call", ctx, {{"from", id_}, {"to", to}});
  // The callee's spans parent under this call's span; with tracing
  // disabled the caller's context is forwarded untouched.
  wrapper->trace = call.span != obs::kInvalidSpan
                       ? obs::Tracer().ContextFor(call.span)
                       : ctx;
  pending_[rpc_id] = std::move(call);
  network_->Send(id_, to, std::move(wrapper));
}

void RpcEndpoint::FinishCall(PendingCall& call, const char* outcome) {
  // A shut-down endpoint's calls vanished rather than completed; keep them
  // out of the latency distribution but still close their spans.
  if (outcome != std::string_view("shutdown")) {
    obs::Metrics().Observe("rpc.latency_us",
                           sim::ToMicros(sim_->now() - call.started));
  }
  obs::Tracer().End(call.span, {{"outcome", outcome}});
  call.span = obs::kInvalidSpan;
}

void RpcEndpoint::Notify(const NodeId& to, MessagePtr msg) {
  if (shut_down_) return;
  obs::Metrics().Increment("rpc.notifies");
  network_->Send(id_, to, std::move(msg));
}

void RpcEndpoint::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& [id, call] : pending_) {
    sim_->Cancel(call.timeout_event);
    FinishCall(call, "shutdown");
  }
  // Deliberately do not invoke callbacks: a crashed process's continuations
  // simply vanish, which is the semantics the failover tests rely on.
  pending_.clear();
  handlers_.clear();
  notify_handlers_.clear();
}

void RpcEndpoint::Reopen() { shut_down_ = false; }

void RpcEndpoint::HandleMessage(const NodeId& from, const MessagePtr& msg) {
  if (shut_down_) return;
  if (auto* request = dynamic_cast<RpcRequest*>(msg.get())) {
    DispatchRequest(from, *request);
    return;
  }
  if (auto* response = dynamic_cast<RpcResponse*>(msg.get())) {
    auto it = pending_.find(response->rpc_id);
    if (it == pending_.end()) return;  // late response after timeout
    sim_->Cancel(it->second.timeout_event);
    auto cb = std::move(it->second.callback);
    obs::Metrics().Increment("rpc.responses");
    FinishCall(it->second, response->status.ok() ? "ok" : "error");
    pending_.erase(it);
    if (response->status.ok()) {
      cb(response->payload);
    } else {
      cb(response->status);
    }
    return;
  }
  // Bare notification.
  auto it = notify_handlers_.find(std::type_index(typeid(*msg)));
  if (it != notify_handlers_.end()) {
    it->second(from, msg);
  } else {
    USTORE_LOG(Debug) << id_ << ": dropping unhandled notification from "
                      << from;
  }
}

void RpcEndpoint::DispatchRequest(const NodeId& from,
                                  const RpcRequest& request) {
  const std::uint64_t rpc_id = request.rpc_id;
  auto reply = [this, from, rpc_id](Result<MessagePtr> result) {
    if (shut_down_) return;
    auto response = std::make_shared<RpcResponse>();
    response->rpc_id = rpc_id;
    if (result.ok()) {
      response->payload = std::move(result).value();
    } else {
      response->status = result.status();
    }
    network_->Send(id_, from, std::move(response));
  };

  assert(request.payload);
  auto it = handlers_.find(std::type_index(typeid(*request.payload)));
  if (it == handlers_.end()) {
    reply(InvalidArgumentError(id_ + ": no handler for request type"));
    return;
  }
  // Expose the caller's context for the synchronous part of the handler
  // (handlers that defer capture it at entry), then restore: dispatch can
  // nest when a handler replies to a local endpoint inline.
  const obs::TraceContext saved = inbound_context_;
  inbound_context_ = request.trace;
  it->second(from, request.payload, std::move(reply));
  inbound_context_ = saved;
}

}  // namespace ustore::net
