// UStore Controller (§IV-C).
//
// Two Controllers run per deploy unit on two of its controlling hosts
// (primary-backup). A Controller keeps its own model of the interconnect
// fabric — static wiring from SysConf plus the switch states it believes,
// reconciled with the USB tree reports every EndPoint streams to it — and
// executes the Master's topology scheduling commands:
//
//   1. lock the fabric (one command at a time);
//   2. run Algorithm 1 (SwitchesToTurn) to find the switches that must be
//      flipped, reporting a conflict if a needed flip would sever an
//      uninvolved disk's path;
//   3. drive the switches through its microcontroller, then verify through
//      the EndPoints' USB reports that every (disk, host) pair materialized;
//      on timeout, roll the switches back and report kAborted.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "fabric/builders.h"
#include "fabric/fabric_manager.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace ustore::core {

struct ControllerOptions {
  sim::Duration verify_poll = sim::MillisD(200);
  sim::Duration verify_timeout = sim::Seconds(30);  // §IV-C "pre-set time"
};

class Controller {
 public:
  // `wiring` is the static fabric description (same for both controllers);
  // `manager` + `mcu_index` is the physical control path (this controller's
  // board). `id` is the RPC address, e.g. "ctrl-0-primary".
  Controller(sim::Simulator* sim, net::Network* network, net::NodeId id,
             fabric::BuiltFabric wiring, fabric::FabricManager* manager,
             int mcu_index, ControllerOptions options = {});

  const net::NodeId& id() const { return endpoint_->id(); }
  bool busy() const { return executing_; }
  std::size_t queued_commands() const { return queue_.size(); }

  // The believed attachment of a disk (host index, -1 when detached).
  int BelievedHostOfDisk(const std::string& disk) const;

  // Pure Algorithm 1 against the believed fabric state: which switches
  // must turn (with their new positions) to realize `moves`. Exposed for
  // tests and for the Master's dry-run conflict checks.
  Result<std::vector<fabric::SwitchSetting>> SwitchesToTurn(
      const std::vector<DiskHostPair>& moves) const;

  // Crash / restart of the controller process (it dies with its host).
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  // Takeover support: powering this controller's microcontroller on/off.
  void PowerOnMcu();

 private:
  struct Command {
    std::vector<DiskHostPair> moves;
    std::function<void(Result<net::MessagePtr>)> reply;
    // Sender's trace context, captured at enqueue time (the command may
    // execute long after its RPC dispatch returns); the execute span joins
    // the scheduler's causal tree through it.
    obs::TraceContext ctx;
    obs::SpanId span = obs::kInvalidSpan;  // execute -> verify/rollback trace
  };

  void RegisterHandlers();
  // Infers actual switch positions from what hosts report seeing — the
  // paper's "keeps track of the detailed interconnect fabric configuration
  // by collecting USB status from the EndPoints". Keeps a backup
  // controller's beliefs fresh while the primary drives the fabric.
  void ReconcileBeliefs(int host_index);
  void MaybeExecuteNext();
  void Execute(Command command);
  void FinishCommand(Command& command, const Status& status);
  void VerifyLoop(Command command,
                  std::vector<fabric::SwitchSetting> turned,
                  sim::Time deadline);
  void RollBack(const std::vector<fabric::SwitchSetting>& turned);

  Result<fabric::NodeIndex> PortForHost(int host_index,
                                        fabric::NodeIndex disk) const;

  sim::Simulator* sim_;
  std::unique_ptr<net::RpcEndpoint> endpoint_;
  fabric::BuiltFabric wiring_;  // believed fabric state
  fabric::FabricManager* manager_;
  int mcu_index_;
  ControllerOptions options_;

  bool crashed_ = false;
  bool executing_ = false;
  std::deque<Command> queue_;

  // Latest USB report per host (recognized device names).
  std::map<int, std::set<std::string>> visible_;
};

}  // namespace ustore::core
