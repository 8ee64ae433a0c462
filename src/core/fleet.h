// Fleet scale-out: N independent deploy units on a worker pool (DESIGN.md
// §14).
//
// RunShardedFleet builds one core::ShardedCluster per deploy unit — the
// real Cluster on sim::UnitEngine, optionally with the sharded Master — so
// a fleet is many copies of the one unit model. Two nested levels of
// parallelism: `threads` outer workers each own one unit at a time, and
// every unit may itself run its ShardedEngine with `unit.threads` inner
// workers. Deploy units share nothing at runtime (that is the point of the
// paper's unit-granular design), so the outer pool needs no coordination
// beyond handing out unit ids.
//
// Determinism contract: unit k's seed is FleetUnitSeed(seed, k); per-unit
// reports land in per-unit slots and merge in unit order; and
// ShardedClusterReport is already a pure function of (options, seed) at
// any shard/thread count. ShardedFleetReport::ToJson() is therefore
// bit-identical for any (outer threads × inner shards × inner threads),
// sharded engine or single-queue oracle — tests/fleet_test.cc asserts it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_sharded.h"
#include "obs/metrics.h"

namespace ustore::core {

// The derived seed for unit `unit_id` of a fleet seeded with `fleet_seed`:
// a double splitmix64 mix, so adjacent unit ids land in unrelated parts of
// the sequence space.
std::uint64_t FleetUnitSeed(std::uint64_t fleet_seed, int unit_id);

struct ShardedFleetOptions {
  int units = 1;
  // Outer worker threads; 0 = hardware_concurrency, clamped to [1, units].
  // The merged report does not depend on this value.
  int threads = 1;
  std::uint64_t seed = 42;
  // false = run every unit on the SingleQueueEngine oracle instead of the
  // ShardedEngine. The report must be bit-identical either way.
  bool use_sharded_engine = true;
  // Per-unit template; cluster.unit_id and cluster.seed are overwritten
  // per unit. unit.shards/unit.threads shape each unit's inner engine.
  ShardedClusterOptions unit;
};

struct ShardedFleetReport {
  std::vector<ShardedClusterReport> units;  // indexed by unit id
  std::vector<std::uint64_t> unit_seeds;    // FleetUnitSeed(seed, k)
  std::uint64_t total_events = 0;  // engine events summed across units
  // Wall-clock of the run — measurement only, absent from ToJson().
  double wall_seconds = 0;
  // obs::MergeSnapshots over the units' merged snapshots, in unit order.
  obs::MetricsSnapshot merged;

  // Canonical deterministic rendering: per-unit ShardedClusterReport JSON
  // plus the fleet-level merge. Pure function of (options, seed).
  std::string ToJson() const;
  std::uint64_t Digest() const;  // FNV-1a of ToJson()
};

ShardedFleetReport RunShardedFleet(const ShardedFleetOptions& options);

}  // namespace ustore::core
