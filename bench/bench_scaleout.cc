// Scale-out benchmark (DESIGN.md §13-§14): the real Cluster on the sharded
// engine, one deploy unit growing, and a fleet of deploy units on a worker
// pool. Two sweeps, each run when its size list is given:
//
//   * --disks-per-unit 1000,...: one core::ShardedCluster (the real Master,
//     meta quorum, EndPoints and live fabric) at each size, at each
//     --unit-threads count. --sharded-master repeats the sweep with
//     per-group meta leases (DESIGN.md §15).
//   * --units 1,4,...: core::RunShardedFleet of that many 32-disk prototype
//     units, one unit per outer worker (--threads).
//
// Reported: wall-clock events/second, simulated-seconds per wall-second and
// nanoseconds of wall time per simulated event (the figure tracked by
// tools/bench_compare --bench scaleout against a committed baseline).
//
// With --check-determinism every configuration is also run on the
// single-queue oracle (for the fleet: serial outer pool, single-queue inner
// engines) and the deterministic reports must match byte for byte.
//
// Output: a human table on stdout and, with --json, a google-benchmark
// compatible JSON document (one "iteration" entry per row whose real_time
// is ns/event).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cluster_sharded.h"
#include "core/fleet.h"

namespace {

using namespace ustore;

// Disks per fleet unit: the 8-group prototype with one leaf hub per group,
// which is also the smallest unit RealClusterOptionsFor builds. Smaller
// --disks-per-unit entries are rejected rather than run mislabelled.
constexpr int kFleetUnitDisks = 32;

struct Args {
  // Fleet sweep: unit counts; empty = no fleet sweep.
  std::vector<int> unit_counts;
  int threads = 0;  // outer fleet workers; 0 = hardware concurrency
  double sim_seconds = 20;
  int repeats = 3;  // best-of-N, to damp scheduler noise on busy machines
  std::string json_path;
  bool check_determinism = false;
  std::uint64_t seed = 42;
  // Intra-unit sweep: one real-cluster deploy unit of this many disks (at
  // least kFleetUnitDisks) on the sharded engine at each `unit_threads`
  // count; empty = no sweep. The first `unit_threads` entry must be 1: it
  // is the speedup baseline.
  std::vector<int> disks_per_unit;
  std::vector<int> unit_threads = {1, 2, 4, 8};
  int unit_shards = 8;
  // --sharded-master: after the central-Master real-cluster sweep, repeat
  // it with per-group meta leases (DESIGN.md §15) and report the control
  // pump's wall-clock occupancy next to the MasterShards' local decision
  // counts. The headline claim: the pump's serialized control work scales
  // with the number of GROUPS, not disks — meta traffic is answered on
  // the groups' shards, so central escalations per disk fall as the
  // population grows. Fleet units run with the sharded Master too.
  bool sharded_master = false;
  // --expect-flat-control X: exit non-zero if the sharded-master sweep's
  // centrally-serialized control decisions per disk (pump-served meta
  // lookups + lease grants — the deterministic, digested load that the
  // leases exist to bound) at the largest size exceed X times the
  // smallest size's. With leases the central load scales with groups,
  // not disks, so this ratio should be << 1 on a fixed-group sweep
  // (0 disables the gate). Wall-clock drain time is reported alongside
  // but not gated: it is polluted by cache displacement from the inner
  // simulator touching the whole (growing) disk population each quantum.
  double expect_flat_control = 0;
  // --chaos: drive the real-cluster runs with fault toggles and host
  // crashes so the lease revoke/re-grant path is on the measured profile.
  bool chaos = false;
  // --expect-speedup X: exit non-zero unless some multi-thread row reaches
  // X times the threads=1 baseline. Auto-skipped (with a note) when the
  // machine has a single hardware thread — the contract there is only that
  // determinism holds, not that threads help.
  double expect_speedup = 0;
};

// A comma-separated list of positive integers. False on an empty list, an
// empty entry, a non-numeric entry or a value below 1.
bool ParseIntList(const char* value, std::vector<int>& out) {
  out.clear();
  for (const char* p = value;; ++p) {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v < 1 || v > std::numeric_limits<int>::max()) {
      return false;
    }
    out.push_back(static_cast<int>(v));
    if (*end == '\0') return true;
    if (*end != ',') return false;
    p = end;
  }
}

bool ParseArgs(int argc, char** argv, Args& args) {
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--units") == 0) {
      const char* value = next_value(i);
      if (value == nullptr || !ParseIntList(value, args.unit_counts)) {
        return false;
      }
    } else if (std::strcmp(arg, "--disks-per-unit") == 0) {
      const char* value = next_value(i);
      if (value == nullptr || !ParseIntList(value, args.disks_per_unit) ||
          *std::min_element(args.disks_per_unit.begin(),
                            args.disks_per_unit.end()) < kFleetUnitDisks) {
        return false;
      }
    } else if (std::strcmp(arg, "--unit-threads") == 0) {
      const char* value = next_value(i);
      if (value == nullptr || !ParseIntList(value, args.unit_threads) ||
          args.unit_threads.front() != 1) {
        return false;
      }
    } else if (std::strcmp(arg, "--unit-shards") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.unit_shards = std::atoi(value);
    } else if (std::strcmp(arg, "--sharded-master") == 0) {
      args.sharded_master = true;
    } else if (std::strcmp(arg, "--chaos") == 0) {
      args.chaos = true;
    } else if (std::strcmp(arg, "--expect-flat-control") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.expect_flat_control = std::atof(value);
    } else if (std::strcmp(arg, "--expect-speedup") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.expect_speedup = std::atof(value);
    } else if (std::strcmp(arg, "--threads") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.threads = std::atoi(value);
    } else if (std::strcmp(arg, "--sim-seconds") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.sim_seconds = std::atof(value);
    } else if (std::strcmp(arg, "--repeats") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.repeats = std::atoi(value);
      if (args.repeats < 1) args.repeats = 1;
    } else if (std::strcmp(arg, "--json") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.json_path = value;
    } else if (std::strcmp(arg, "--seed") == 0) {
      const char* value = next_value(i);
      if (value == nullptr) return false;
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(arg, "--check-determinism") == 0) {
      args.check_determinism = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  return !args.unit_counts.empty() || !args.disks_per_unit.empty();
}

// --- The real Cluster on the sharded engine (DESIGN.md §13) -----------------

struct RealClusterResult {
  core::ShardedClusterReport report;
  double wall_seconds = 0;       // data-plane run only (Start() excluded)
  double start_seconds = 0;      // Cluster build + Start + handoff
  double events_per_second = 0;
  double ns_per_event = 0;
};

core::ShardedClusterOptions RealClusterOptionsFor(const Args& args, int disks,
                                                  int threads,
                                                  bool use_sharded,
                                                  bool sharded_master = false) {
  core::ShardedClusterOptions options;
  options.cluster.seed = args.seed;
  // One prototype deploy unit scaled by repeating the leaf-hub tier: 8
  // hosts / 8 root subtrees regardless of size, so the shard plan is
  // identical across the sweep and only the per-group population grows.
  options.cluster.fabric.groups = 8;
  options.cluster.fabric.disks_per_leaf = 4;
  options.cluster.fabric.leaf_hubs_per_group =
      std::max(1, disks / (8 * 4));
  options.shards = use_sharded ? args.unit_shards : 1;
  options.threads = threads;
  options.duration = static_cast<sim::Duration>(args.sim_seconds * 1e9);
  // Steady-state drain profile (the §IV-B workload): dense vectorized
  // sweeps over wide spin-group ranges, idle spin-down on, no chaos.
  options.burst_period = sim::Millis(5);
  options.burst_ops = 32;
  options.request_size = KiB(512);
  options.sweep_width = 256;
  options.idle_timeout = sim::Millis(100);
  options.fault_probability = args.chaos ? 0.01 : 0.0;
  // Directive cadence scaled with population so the control plane stays a
  // constant *fraction* of traffic instead of growing with disk count.
  options.directive_every_ops =
      static_cast<std::uint64_t>(std::max(disks, 1)) * 64;
  options.sharded_master = sharded_master;
  options.meta_lookups_per_burst = 1;
  if (args.chaos) {
    options.host_crash_probability = 0.002;
    options.host_crash_downtime = sim::Millis(300);
  }
  return options;
}

RealClusterResult RunRealCluster(const Args& args, int disks, int threads,
                                 bool use_sharded,
                                 bool sharded_master = false) {
  const core::ShardedClusterOptions options =
      RealClusterOptionsFor(args, disks, threads, use_sharded, sharded_master);
  RealClusterResult result;
  const auto t0 = std::chrono::steady_clock::now();
  core::ShardedCluster unit(options);
  const auto t1 = std::chrono::steady_clock::now();
  const sim::Duration lookahead = unit.plan().lookahead;
  if (use_sharded) {
    sim::ShardedEngine::Options engine_options;
    engine_options.shards = unit.plan().shards;
    engine_options.threads = threads;
    engine_options.lookahead = lookahead;
    sim::ShardedEngine engine(engine_options);
    result.report = unit.Run(engine);
  } else {
    sim::Simulator sim;
    sim::SingleQueueEngine engine(&sim, unit.plan().shards, lookahead);
    result.report = unit.Run(engine);
  }
  const auto t2 = std::chrono::steady_clock::now();
  result.start_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.wall_seconds = std::chrono::duration<double>(t2 - t1).count();
  const double events = static_cast<double>(result.report.events_processed);
  result.events_per_second =
      result.wall_seconds > 0 ? events / result.wall_seconds : 0;
  result.ns_per_event =
      events > 0 ? result.wall_seconds * 1e9 / events : 0;
  return result;
}

RealClusterResult BestOfReal(const Args& args, int disks, int threads,
                             bool use_sharded, bool sharded_master = false) {
  RealClusterResult best =
      RunRealCluster(args, disks, threads, use_sharded, sharded_master);
  for (int repeat = 1; repeat < args.repeats; ++repeat) {
    RealClusterResult again =
        RunRealCluster(args, disks, threads, use_sharded, sharded_master);
    if (again.wall_seconds < best.wall_seconds) best = std::move(again);
  }
  return best;
}

std::uint64_t LocalDecisions(const core::ShardedClusterReport& report) {
  std::uint64_t total = 0;
  for (const core::ShardedClusterGroupReport& group : report.per_group) {
    total += group.local_decisions;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(
        stderr,
        "usage: bench_scaleout [--units 1,4,16,64] [--threads N]\n"
        "                      [--disks-per-unit 1000,...]\n"
        "                      [--unit-threads 1,2,4,8] [--unit-shards N]\n"
        "                      [--sharded-master] [--chaos]\n"
        "                      [--sim-seconds S] [--repeats N] [--seed S]\n"
        "                      [--json PATH] [--check-determinism]\n"
        "                      [--expect-flat-control X] [--expect-speedup X]\n"
        "Give --units, --disks-per-unit or both. List entries are positive\n"
        "integers; --disks-per-unit entries are at least 32 (one leaf hub\n"
        "per group); the first --unit-threads entry must be 1 (the speedup\n"
        "baseline).\n");
    return 2;
  }
  int threads = args.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }

  bool determinism_ok = true;
  double max_speedup = 0;  // best multi-thread speedup seen in any sweep
  std::vector<std::string> entries;

  if (!args.disks_per_unit.empty()) {
    bench::PrintHeader(
        "Real Cluster on the sharded engine: live Master/EndPoints/fabric,\n"
        "vectorized SoA disk sweeps (" +
        bench::Fmt(args.sim_seconds, 0) + " simulated seconds, shards=" +
        std::to_string(args.unit_shards) +
        ", speedup vs threads=1)");
    std::vector<std::string> header = {"disks",    "threads", "start-s",
                                       "events",   "Mev/s",   "sim-s/s",
                                       "ns/event", "speedup"};
    if (args.check_determinism) header.push_back("identical");
    bench::PrintRow(header, 12);

    for (const int disks : args.disks_per_unit) {
      std::string oracle_json;
      if (args.check_determinism) {
        oracle_json = RunRealCluster(args, disks, 1, /*use_sharded=*/false)
                          .report.ToJson();
      }
      double baseline_wall = 0;
      for (std::size_t t = 0; t < args.unit_threads.size(); ++t) {
        const int unit_threads = args.unit_threads[t];
        const RealClusterResult best =
            BestOfReal(args, disks, unit_threads, /*use_sharded=*/true);
        if (t == 0) baseline_wall = best.wall_seconds;
        const double speedup =
            best.wall_seconds > 0 ? baseline_wall / best.wall_seconds : 0;
        if (unit_threads > 1) max_speedup = std::max(max_speedup, speedup);

        std::vector<std::string> row = {
            std::to_string(disks),
            std::to_string(unit_threads),
            bench::Fmt(best.start_seconds, 2),
            std::to_string(best.report.events_processed),
            bench::Fmt(best.events_per_second / 1e6, 2),
            bench::Fmt(best.wall_seconds > 0
                           ? args.sim_seconds / best.wall_seconds
                           : 0,
                       1),
            bench::Fmt(best.ns_per_event, 1),
            bench::Fmt(speedup, 2) + "x"};
        bool identical = true;
        if (args.check_determinism) {
          identical = best.report.ToJson() == oracle_json;
          determinism_ok = determinism_ok && identical;
          row.push_back(identical ? "yes" : "NO");
        }
        bench::PrintRow(row, 12);

        entries.push_back(
            "    {\"name\": \"scaleout/real/disks:" + std::to_string(disks) +
            "/threads:" + std::to_string(unit_threads) +
            "\", \"run_type\": \"iteration\", \"iterations\": " +
            std::to_string(args.repeats) +
            ", \"real_time\": " + bench::Fmt(best.ns_per_event, 1) +
            ", \"cpu_time\": " + bench::Fmt(best.ns_per_event, 1) +
            ", \"time_unit\": \"ns\", \"events\": " +
            std::to_string(best.report.events_processed) +
            ", \"events_per_second\": " +
            bench::Fmt(best.events_per_second, 1) +
            ", \"start_seconds\": " + bench::Fmt(best.start_seconds, 3) +
            ", \"pump_busy_ns\": " +
            std::to_string(best.report.pump_busy_wall_ns) +
            ", \"pump_busy_ns_per_disk\": " +
            bench::Fmt(static_cast<double>(best.report.pump_busy_wall_ns) /
                           std::max(disks, 1),
                       1) +
            ", \"speedup_vs_baseline\": " + bench::Fmt(speedup, 3) + "}");
      }
    }
  }

  // --- Sharded Master: per-group meta leases (DESIGN.md §15) ----------------
  //
  // Same real-cluster sweep with sharded_master on. Each group's
  // MasterShard answers heartbeats / meta lookups / directives on its own
  // shard, so the work the central pump must serialize scales with the
  // group count, not the disk count — central escalations per disk fall
  // as the population grows. That ratio is the payoff this sweep exists
  // to measure (and --expect-flat-control gates). Wall occupancy
  // ("pump-ms"/"drain-ms") is reported for context, not gated.
  if (args.sharded_master && !args.disks_per_unit.empty()) {
    bench::PrintHeader(
        "Sharded Master: per-group meta leases on the real Cluster\n"
        "(" +
        bench::Fmt(args.sim_seconds, 0) +
        " simulated seconds, chaos=" + std::string(args.chaos ? "on" : "off") +
        ", pump-ms = control pump wall occupancy,\n"
        "drain-ms = its control-decision share (the lease-offloaded part),\n"
        "local = MasterShard decisions, central = pump-served meta lookups)");
    std::vector<std::string> header = {"disks",   "threads",  "events",
                                       "ns/event", "pump-ms", "drain-ms",
                                       "local",    "central",  "speedup"};
    if (args.check_determinism) header.push_back("identical");
    bench::PrintRow(header, 12);

    // (disks, centrally-serialized decisions per disk) at the first
    // --unit-threads entry. Deterministic counts, not wall time: this is
    // the load the leases bound, and it is immune to the cache noise the
    // growing inner simulation injects into wall measurements.
    std::vector<std::pair<int, double>> flat;
    for (const int disks : args.disks_per_unit) {
      std::string oracle_json;
      if (args.check_determinism) {
        oracle_json = RunRealCluster(args, disks, 1, /*use_sharded=*/false,
                                     /*sharded_master=*/true)
                          .report.ToJson();
      }
      double baseline_wall = 0;
      for (std::size_t t = 0; t < args.unit_threads.size(); ++t) {
        const int unit_threads = args.unit_threads[t];
        const RealClusterResult best = BestOfReal(
            args, disks, unit_threads, /*use_sharded=*/true,
            /*sharded_master=*/true);
        if (t == 0) baseline_wall = best.wall_seconds;
        const double speedup =
            best.wall_seconds > 0 ? baseline_wall / best.wall_seconds : 0;
        if (unit_threads > 1) max_speedup = std::max(max_speedup, speedup);
        const double pump_per_disk =
            static_cast<double>(best.report.pump_busy_wall_ns) /
            std::max(disks, 1);
        const double drain_per_disk =
            static_cast<double>(best.report.pump_drain_wall_ns) /
            std::max(disks, 1);
        const double central_per_disk =
            static_cast<double>(best.report.central_meta_lookups +
                                best.report.lease_grants) /
            std::max(disks, 1);
        if (t == 0) flat.emplace_back(disks, central_per_disk);
        const std::uint64_t local = LocalDecisions(best.report);

        std::vector<std::string> row = {
            std::to_string(disks),
            std::to_string(unit_threads),
            std::to_string(best.report.events_processed),
            bench::Fmt(best.ns_per_event, 1),
            bench::Fmt(static_cast<double>(best.report.pump_busy_wall_ns) /
                           1e6,
                       2),
            bench::Fmt(static_cast<double>(best.report.pump_drain_wall_ns) /
                           1e6,
                       2),
            std::to_string(local),
            std::to_string(best.report.central_meta_lookups),
            bench::Fmt(speedup, 2) + "x"};
        bool identical = true;
        if (args.check_determinism) {
          identical = best.report.ToJson() == oracle_json;
          determinism_ok = determinism_ok && identical;
          row.push_back(identical ? "yes" : "NO");
        }
        bench::PrintRow(row, 12);

        entries.push_back(
            "    {\"name\": \"scaleout/real_sm/disks:" +
            std::to_string(disks) +
            "/threads:" + std::to_string(unit_threads) +
            "\", \"run_type\": \"iteration\", \"iterations\": " +
            std::to_string(args.repeats) +
            ", \"real_time\": " + bench::Fmt(best.ns_per_event, 1) +
            ", \"cpu_time\": " + bench::Fmt(best.ns_per_event, 1) +
            ", \"time_unit\": \"ns\", \"events\": " +
            std::to_string(best.report.events_processed) +
            ", \"events_per_second\": " +
            bench::Fmt(best.events_per_second, 1) +
            ", \"pump_busy_ns\": " +
            std::to_string(best.report.pump_busy_wall_ns) +
            ", \"pump_busy_ns_per_disk\": " + bench::Fmt(pump_per_disk, 1) +
            ", \"pump_drain_ns\": " +
            std::to_string(best.report.pump_drain_wall_ns) +
            ", \"pump_drain_ns_per_disk\": " +
            bench::Fmt(drain_per_disk, 1) +
            ", \"central_decisions_per_disk\": " +
            bench::Fmt(central_per_disk, 4) +
            ", \"local_decisions\": " + std::to_string(local) +
            ", \"central_meta_lookups\": " +
            std::to_string(best.report.central_meta_lookups) +
            ", \"lease_grants\": " +
            std::to_string(best.report.lease_grants) +
            ", \"speedup_vs_baseline\": " + bench::Fmt(speedup, 3) + "}");
      }
    }

    if (flat.size() >= 2) {
      const double first = std::max(flat.front().second, 1e-9);
      const double ratio = flat.back().second / first;
      std::printf(
          "\nsharded-master centrally-serialized control load: %d disks -> "
          "%.4f decisions/disk, %d disks -> %.4f decisions/disk "
          "(ratio %.2fx)\n",
          flat.front().first, flat.front().second, flat.back().first,
          flat.back().second, ratio);
      if (args.expect_flat_control > 0 && ratio > args.expect_flat_control) {
        std::fprintf(stderr,
                     "flat-control check FAILED: ratio %.2fx > %.2fx\n",
                     ratio, args.expect_flat_control);
        return 1;
      }
      if (args.expect_flat_control > 0) {
        std::printf("flat-control check OK: %.2fx <= %.2fx\n", ratio,
                    args.expect_flat_control);
      }
    }
  }

  // --- Fleet: one ShardedCluster per deploy unit (DESIGN.md §14) ------------
  if (!args.unit_counts.empty()) {
    bench::PrintHeader(
        "Fleet scale-out: one ShardedCluster per deploy unit, on a worker "
        "pool\n"
        "(" +
        bench::Fmt(args.sim_seconds, 0) + " simulated seconds, " +
        std::to_string(kFleetUnitDisks) + " disks/unit, sharded_master=" +
        std::string(args.sharded_master ? "on" : "off") + ", threads=" +
        std::to_string(threads) + ")");
    std::vector<std::string> header = {"units", "events", "Mev/s",
                                       "ns/event"};
    if (args.check_determinism) header.push_back("identical");
    bench::PrintRow(header, 12);

    for (const int units : args.unit_counts) {
      core::ShardedFleetOptions options;
      options.units = units;
      options.threads = threads;
      options.seed = args.seed;
      options.use_sharded_engine = true;
      options.unit = RealClusterOptionsFor(args, kFleetUnitDisks,
                                           /*threads=*/1,
                                           /*use_sharded=*/true,
                                           args.sharded_master);
      core::ShardedFleetReport best = core::RunShardedFleet(options);
      for (int repeat = 1; repeat < args.repeats; ++repeat) {
        core::ShardedFleetReport again = core::RunShardedFleet(options);
        if (again.wall_seconds < best.wall_seconds) best = std::move(again);
      }
      const double wall = best.wall_seconds;
      const double events = static_cast<double>(best.total_events);
      const double ns_per_event = events > 0 ? wall * 1e9 / events : 0;

      std::vector<std::string> row = {
          std::to_string(units), std::to_string(best.total_events),
          bench::Fmt(wall > 0 ? events / wall / 1e6 : 0, 2),
          bench::Fmt(ns_per_event, 1)};
      if (args.check_determinism) {
        // The oracle fleet: serial outer pool, single-queue inner engines.
        core::ShardedFleetOptions oracle_options = options;
        oracle_options.threads = 1;
        oracle_options.use_sharded_engine = false;
        const bool identical =
            core::RunShardedFleet(oracle_options).ToJson() == best.ToJson();
        determinism_ok = determinism_ok && identical;
        row.push_back(identical ? "yes" : "NO");
      }
      bench::PrintRow(row, 12);

      entries.push_back(
          "    {\"name\": \"scaleout/sharded_fleet/units:" +
          std::to_string(units) +
          "\", \"run_type\": \"iteration\", \"iterations\": " +
          std::to_string(args.repeats) +
          ", \"real_time\": " + bench::Fmt(ns_per_event, 1) +
          ", \"cpu_time\": " + bench::Fmt(ns_per_event, 1) +
          ", \"time_unit\": \"ns\", \"events\": " +
          std::to_string(best.total_events) +
          ", \"events_per_second\": " +
          bench::Fmt(wall > 0 ? events / wall : 0, 1) + "}");
    }
  }

  std::string json = "{\n  \"context\": {\"threads\": " +
                     std::to_string(threads) + ", \"sim_seconds\": " +
                     bench::Fmt(args.sim_seconds, 3) + "},\n"
                     "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    json += entries[i];
    json += i + 1 < entries.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!args.json_path.empty()) {
    std::FILE* f = std::fopen(args.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }

  if (args.check_determinism) {
    std::printf("\ndeterminism: %s\n",
                determinism_ok
                    ? "merged reports bit-identical across thread counts"
                    : "MISMATCH between threaded and serial runs");
    if (!determinism_ok) return 1;
  }
  if (args.expect_speedup > 0) {
    if (std::thread::hardware_concurrency() <= 1) {
      std::printf(
          "\nspeedup check SKIPPED: single hardware thread "
          "(expected >= %.2fx; see EXPERIMENTS.md for multi-core numbers)\n",
          args.expect_speedup);
    } else if (max_speedup < args.expect_speedup) {
      std::fprintf(stderr,
                   "\nspeedup check FAILED: best multi-thread speedup "
                   "%.2fx < expected %.2fx\n",
                   max_speedup, args.expect_speedup);
      return 1;
    } else {
      std::printf("\nspeedup check OK: %.2fx >= %.2fx\n", max_speedup,
                  args.expect_speedup);
    }
  }
  return 0;
}
