// Microbenchmarks (google-benchmark) for the hot paths of the simulation
// substrate: disk-model evaluation, the max-min-fair solver, event-queue
// throughput, Paxos commit throughput and fabric routing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "consensus/paxos.h"
#include "core/cluster.h"
#include "fabric/bandwidth.h"
#include "fabric/builders.h"
#include "hw/disk_model.h"
#include "hw/disk_soa.h"
#include "net/network.h"
#include "net/rpc.h"
#include "sim/simulator.h"

namespace {

using namespace ustore;

void BM_DiskModelEvaluate(benchmark::State& state) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{KiB(4), 0.5, hw::AccessPattern::kRandom};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(spec));
  }
}
BENCHMARK(BM_DiskModelEvaluate);

void BM_DiskModelServiceTime(benchmark::State& state) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::IoRequest request{MiB(4), hw::IoDirection::kWrite,
                        hw::AccessPattern::kRandom};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ServiceTime(request, hw::IoDirection::kRead));
  }
}
BENCHMARK(BM_DiskModelServiceTime);

void BM_MaxMinFairSolver(benchmark::State& state) {
  const int disks = static_cast<int>(state.range(0));
  fabric::BuiltFabric f = fabric::BuildSingleHostTree({.disks = disks});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{KiB(4), 1.0, hw::AccessPattern::kSequential};
  std::vector<fabric::FlowDemand> demands;
  for (int i = 0; i < disks; ++i) {
    demands.push_back(fabric::FlowDemand{
        f.topology.Disks()[i], model.Evaluate(spec).bytes_per_sec, 1.0,
        KiB(4)});
  }
  fabric::BandwidthSolver solver(&f, hw::UsbHostControllerParams{},
                                 hw::UsbLinkParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(demands));
  }
}
BENCHMARK(BM_MaxMinFairSolver)->Arg(4)->Arg(12)->Arg(48);

void BM_MaxMinFairSolverPrototype(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  fabric::BuiltFabric f = fabric::BuildPrototypeFabric({.groups = groups});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{KiB(64), 0.5, hw::AccessPattern::kSequential};
  std::vector<fabric::FlowDemand> demands;
  for (fabric::NodeIndex disk : f.topology.Disks()) {
    demands.push_back(fabric::FlowDemand{
        disk, model.Evaluate(spec).bytes_per_sec, 0.5, KiB(64)});
  }
  fabric::BandwidthSolver solver(&f, hw::UsbHostControllerParams{},
                                 hw::UsbLinkParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(demands));
  }
}
BENCHMARK(BM_MaxMinFairSolverPrototype)->Arg(4)->Arg(16);

void BM_MaxMinFairSolverColdStart(benchmark::State& state) {
  // The one-shot wrapper: paths re-resolved and the sparse constraint
  // structure rebuilt on every call (no cross-call caching).
  const int disks = static_cast<int>(state.range(0));
  fabric::BuiltFabric f = fabric::BuildSingleHostTree({.disks = disks});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{KiB(4), 1.0, hw::AccessPattern::kSequential};
  std::vector<fabric::FlowDemand> demands;
  for (int i = 0; i < disks; ++i) {
    demands.push_back(fabric::FlowDemand{
        f.topology.Disks()[i], model.Evaluate(spec).bytes_per_sec, 1.0,
        KiB(4)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric::SolveMaxMinFair(
        f, demands, hw::UsbHostControllerParams{}, hw::UsbLinkParams{}));
  }
}
BENCHMARK(BM_MaxMinFairSolverColdStart)->Arg(48);

void BM_MaxMinFairSolverSwitchChurn(benchmark::State& state) {
  // Worst case for the caches: a switch flips between solves, so every
  // solve re-resolves paths and rebuilds the constraint structure.
  fabric::BuiltFabric f = fabric::BuildPrototypeFabric({.groups = 4});
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::WorkloadSpec spec{KiB(64), 0.5, hw::AccessPattern::kSequential};
  std::vector<fabric::FlowDemand> demands;
  for (fabric::NodeIndex disk : f.topology.Disks()) {
    demands.push_back(fabric::FlowDemand{
        disk, model.Evaluate(spec).bytes_per_sec, 0.5, KiB(64)});
  }
  fabric::BandwidthSolver solver(&f, hw::UsbHostControllerParams{},
                                 hw::UsbLinkParams{});
  const fabric::NodeIndex sw =
      f.topology.NodesOfKind(fabric::NodeKind::kSwitch)[0];
  bool select = false;
  for (auto _ : state) {
    f.topology.SetSwitch(sw, select);
    select = !select;
    benchmark::DoNotOptimize(solver.Solve(demands));
  }
}
BENCHMARK(BM_MaxMinFairSolverSwitchChurn);

void BM_SoaSubmitPerDisk(benchmark::State& state) {
  // Steady-state drain over a whole unit, one SubmitBatch/FinishDrain pair
  // per disk per sweep — the pre-vectorization sharded path. Each disk pays
  // its own DiskModel evaluation.
  const int disks = static_cast<int>(state.range(0));
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::DiskStateArray soa(&model, disks, /*idle_timeout=*/0);
  const hw::IoRequest shape{KiB(512), hw::IoDirection::kRead,
                            hw::AccessPattern::kSequential};
  sim::Time now = 0;
  for (auto _ : state) {
    sim::Time last = 0;
    for (int d = 0; d < disks; ++d) {
      const auto out = soa.SubmitBatch(d, shape, 8, now);
      last = std::max(last, out.last_completion);
      soa.FinishDrain(d, out.last_completion);
    }
    now = last;
  }
  state.SetItemsProcessed(state.iterations() * disks);
}
BENCHMARK(BM_SoaSubmitPerDisk)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SoaSubmitRange(benchmark::State& state) {
  // The same steady-state drain through the vectorized range entry points
  // (SubmitBatchRange + FinishDrainRange): one pass over the SoA arrays
  // with the model evaluation hoisted to three calls per sweep. The
  // per-disk completion schedules are bit-identical to BM_SoaSubmitPerDisk
  // (DiskStateArrayTest.RangeEntryPointsMatchPerDiskLoop).
  const int disks = static_cast<int>(state.range(0));
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::DiskStateArray soa(&model, disks, /*idle_timeout=*/0);
  const hw::IoRequest shape{KiB(512), hw::IoDirection::kRead,
                            hw::AccessPattern::kSequential};
  sim::Time now = 0;
  for (auto _ : state) {
    const auto out = soa.SubmitBatchRange(0, disks, shape, 8, now);
    soa.FinishDrainRange(0, disks, out.last_completion);
    now = out.last_completion;
  }
  state.SetItemsProcessed(state.iterations() * disks);
}
BENCHMARK(BM_SoaSubmitRange)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(sim::Micros(i * 7 % 997), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueue);

void BM_EventQueueChurn(benchmark::State& state) {
  // Steady-state Schedule/Cancel/Step churn over a queue that never drains —
  // the control-plane pattern (timeouts armed, then cancelled on completion).
  // The captured payload mirrors a network-delivery closure (too big for
  // std::function's inline buffer).
  sim::Simulator sim;
  struct Payload {
    std::uint64_t src = 1, dst = 2, bytes = 4096;
  };
  constexpr int kBacklog = 1024;
  std::vector<sim::EventId> ids(kBacklog);
  std::uint64_t fired = 0;
  Payload p;
  for (int i = 0; i < kBacklog; ++i) {
    ids[i] = sim.Schedule(sim::Micros(100 + i),
                          [&fired, p] { fired += p.bytes; });
  }
  int slot = 0;
  for (auto _ : state) {
    sim.Cancel(ids[slot]);
    ids[slot] = sim.Schedule(sim::Micros(100 + slot),
                             [&fired, p] { fired += p.bytes; });
    slot = (slot + 1) % kBacklog;
    sim.Step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueChurn);

void BM_TimerRearm(benchmark::State& state) {
  // Heartbeat/timeout restart pattern: a Timer repeatedly re-armed before it
  // fires. Each batch restarts the timer 1024 times, then drains.
  sim::Simulator sim;
  sim::Timer timer(&sim);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      timer.StartOneShot(sim::Seconds(1), [&fired] { ++fired; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TimerRearm);

void BM_TimerPeriodicFire(benchmark::State& state) {
  // Steady-state periodic firing — heartbeats, report ticks, idle-disk
  // clocks. Each iteration drives the timer through 1024 periods. The
  // RearmCurrent fast path makes this closure-construction-free: every
  // firing re-queues its own EventFn storage, which the rearm_hits
  // counter proves (one hit per firing, or the run is flagged).
  sim::Simulator sim;
  sim::Timer timer(&sim);
  std::uint64_t fired = 0;
  timer.StartPeriodic(sim::Millis(1), [&fired] { ++fired; });
  for (auto _ : state) {
    sim.Run(1024);
  }
  timer.Stop();
  if (sim.rearm_hits() != sim.events_processed()) {
    state.SkipWithError("periodic firings constructed fresh closures");
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_TimerPeriodicFire);

void BM_ActivePathResolution(benchmark::State& state) {
  // Path walks on an unchanged topology — what the bandwidth solver and
  // FabricManager attachment recompute do between fabric mutations.
  fabric::BuiltFabric f = fabric::BuildPrototypeFabric({.groups = 8});
  for (auto _ : state) {
    for (fabric::NodeIndex disk : f.topology.Disks()) {
      benchmark::DoNotOptimize(f.topology.ActivePath(disk));
    }
  }
}
BENCHMARK(BM_ActivePathResolution);

void BM_FabricRouteTo(benchmark::State& state) {
  fabric::BuiltFabric f = fabric::BuildPrototypeFabric({.groups = 8});
  const fabric::NodeIndex port = f.topology.HostPorts()[2];
  for (auto _ : state) {
    for (fabric::NodeIndex disk : f.topology.Disks()) {
      benchmark::DoNotOptimize(f.topology.RouteTo(disk, port));
    }
  }
}
BENCHMARK(BM_FabricRouteTo);

void BM_MasterHeartbeat(benchmark::State& state) {
  // Full-heartbeat handling cost as a function of StorAlloc size. With the
  // disk->allocation reverse indexes this must be flat: processing a beat
  // touches only the listed disks, never the allocation table, so the
  // Arg(1000) run stays within ~2x of Arg(10) (setup noise, not scans).
  const int allocs = static_cast<int>(state.range(0));
  core::ClusterOptions options;
  options.seed = 99;
  core::Cluster cluster(options);
  cluster.Start();
  core::Master* master = cluster.active_master();
  net::RpcEndpoint admin(&cluster.sim(), &cluster.network(), "bench-admin");
  int created = 0;
  for (int i = 0; i < allocs; ++i) {
    auto request = std::make_shared<core::AllocateRequest>();
    request->service = "bench-svc";
    request->size = MiB(1);
    request->client = admin.id();
    request->disk_hint = "disk-" + std::to_string(i % 16);
    admin.Call(master->id(), request, sim::Seconds(60),
               [&created](Result<net::MessagePtr> result) {
                 if (result.ok()) ++created;
               });
    if (i % 32 == 31) cluster.RunFor(sim::Seconds(2));
  }
  cluster.RunFor(sim::Seconds(30));
  if (created != allocs) {
    state.SkipWithError("allocation setup failed");
    return;
  }

  // A synthetic full heartbeat from host 0 listing its four disks — the
  // same shape every EndPoint sends each full-beat period.
  auto heartbeat = std::make_shared<core::HeartbeatMsg>();
  heartbeat->host_index = 0;
  heartbeat->host = cluster.endpoint(0)->id();
  heartbeat->full = true;
  for (int d = 0; d < 4; ++d) {
    core::DiskStatusEntry entry;
    entry.name = "disk-" + std::to_string(d);
    entry.recognized = true;
    heartbeat->disks.push_back(entry);
  }
  for (auto _ : state) {
    admin.Notify(master->id(), heartbeat);
    cluster.RunFor(sim::MillisD(1));
  }
  benchmark::DoNotOptimize(master->allocation_count());
}
BENCHMARK(BM_MasterHeartbeat)->Arg(10)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_PaxosCommitThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(&sim, Rng(1));
    consensus::PaxosConfig config;
    config.peers = {"p0", "p1", "p2"};
    Rng rng(2);
    int applied = 0;
    std::vector<std::unique_ptr<consensus::PaxosNode>> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(std::make_unique<consensus::PaxosNode>(
          &sim, &network, config, i,
          [&applied](std::uint64_t, const std::string&) { ++applied; },
          rng.Fork()));
    }
    sim.RunFor(sim::Seconds(3));
    consensus::PaxosNode* leader = nullptr;
    for (auto& node : nodes) {
      if (node->is_leader()) leader = node.get();
    }
    if (leader != nullptr) {
      for (int i = 0; i < 100; ++i) {
        leader->Propose("command-" + std::to_string(i),
                        [](Result<std::uint64_t>) {});
      }
    }
    sim.RunFor(sim::Seconds(5));
    benchmark::DoNotOptimize(applied);
  }
}
BENCHMARK(BM_PaxosCommitThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
