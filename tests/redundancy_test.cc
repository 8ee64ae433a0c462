// Property tests for the redundancy layer: Sequential-Checking placement
// (reallocation-free scale-out, balance bound, failure-domain separation,
// fuzzed over seeds and geometries), the declustered rebuild planner, the
// rebuild time model (flat vs the serial agent's linear growth) and the
// MTTDL estimators.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fabric/builders.h"
#include "fabric/failure_domains.h"
#include "fabric/placement.h"
#include "services/redundancy.h"

namespace ustore {
namespace {

using fabric::ChunkLocation;
using fabric::DeclusteredPlacement;
using fabric::PlacementOptions;
using services::redundancy::MttdlOptions;
using services::redundancy::PlanRebuild;
using services::redundancy::RebuildPlan;
using services::redundancy::RebuildTimeModel;
using services::redundancy::Stripe;
using services::redundancy::StripeMap;

struct Geometry {
  int data_chunks;
  int parity_chunks;
  int domains;
  int disks_per_domain;
};

const Geometry kGeometries[] = {
    {2, 1, 5, 2},
    {4, 2, 9, 3},
    {8, 3, 16, 4},
    {8, 3, 40, 4},
    {3, 0, 7, 1},
};

StripeMap MakeMap(const Geometry& g, std::uint64_t seed) {
  PlacementOptions options;
  options.data_chunks = g.data_chunks;
  options.parity_chunks = g.parity_chunks;
  options.seed = seed;
  StripeMap map(options);
  map.layout().AddDomains(g.domains, g.disks_per_domain);
  return map;
}

void CheckDomainSeparation(const StripeMap& map) {
  for (const Stripe& stripe : map.stripes()) {
    std::set<int> domains;
    for (const ChunkLocation& chunk : stripe.chunks) {
      EXPECT_EQ(map.layout().domain_of_disk(chunk.disk), chunk.domain);
      EXPECT_TRUE(domains.insert(chunk.domain).second)
          << "stripe " << stripe.id << " has two chunks in domain "
          << chunk.domain;
    }
  }
}

void CheckBalance(const StripeMap& map) {
  int max_load = 0;
  for (int d = 0; d < map.layout().disks(); ++d) {
    max_load = std::max(max_load, map.layout().disk_load(d));
  }
  EXPECT_LE(max_load, map.layout().BalanceBound());
}

// Disk loads must equal a recount over the stored stripes — any hidden
// relocation or double-count breaks this conservation law.
void CheckLoadConservation(const StripeMap& map) {
  std::vector<int> recount(map.layout().disks(), 0);
  for (const Stripe& stripe : map.stripes()) {
    for (const ChunkLocation& chunk : stripe.chunks) ++recount[chunk.disk];
  }
  for (int d = 0; d < map.layout().disks(); ++d) {
    EXPECT_EQ(recount[d], map.layout().disk_load(d)) << "disk " << d;
  }
}

TEST(PlacementProperty, DomainSeparationAndBalanceFuzzed) {
  for (const Geometry& g : kGeometries) {
    for (std::uint64_t seed = 1; seed <= 7; ++seed) {
      StripeMap map = MakeMap(g, seed);
      ASSERT_TRUE(map.AppendMany(200).ok());
      CheckDomainSeparation(map);
      CheckBalance(map);
      CheckLoadConservation(map);
    }
  }
}

TEST(PlacementProperty, SteadyStateEvenness) {
  // Pre-scale-out, sequential checking keeps every disk within a couple
  // of chunks of perfectly even once the unit has wrapped a few times.
  StripeMap map = MakeMap({8, 3, 20, 4}, 99);
  ASSERT_TRUE(map.AppendMany(400).ok());
  int min_load = 1 << 30, max_load = 0;
  for (int d = 0; d < map.layout().disks(); ++d) {
    min_load = std::min(min_load, map.layout().disk_load(d));
    max_load = std::max(max_load, map.layout().disk_load(d));
  }
  EXPECT_LE(max_load - min_load, 2);
}

TEST(PlacementProperty, ScaleOutMovesNothingFuzzed) {
  for (const Geometry& g : kGeometries) {
    for (std::uint64_t seed = 11; seed <= 15; ++seed) {
      StripeMap map = MakeMap(g, seed);
      ASSERT_TRUE(map.AppendMany(120).ok());

      // Snapshot every placed chunk, then scale out and keep writing.
      std::vector<std::vector<ChunkLocation>> before;
      for (const Stripe& stripe : map.stripes()) {
        before.push_back(stripe.chunks);
      }
      map.layout().AddDomains(g.domains / 2 + 1, g.disks_per_domain);
      ASSERT_TRUE(map.AppendMany(240).ok());

      // Reallocation-free: not one pre-existing chunk moved.
      for (std::size_t s = 0; s < before.size(); ++s) {
        EXPECT_EQ(before[s], map.stripe(s).chunks) << "stripe " << s;
      }
      CheckDomainSeparation(map);
      CheckBalance(map);
      CheckLoadConservation(map);
    }
  }
}

TEST(PlacementProperty, NewCapacityFillsFromNewWrites) {
  StripeMap map = MakeMap({4, 2, 12, 2}, 3);
  ASSERT_TRUE(map.AppendMany(200).ok());
  const int old_disks = map.layout().disks();
  map.layout().AddDomains(6, 2);
  ASSERT_TRUE(map.AppendMany(200).ok());
  // The emptier new disks must have absorbed writes without any transfer.
  int new_disk_chunks = 0;
  for (int d = old_disks; d < map.layout().disks(); ++d) {
    new_disk_chunks += map.layout().disk_load(d);
  }
  EXPECT_GT(new_disk_chunks, 0);
  CheckBalance(map);
}

TEST(PlacementProperty, DeterministicAcrossInstances) {
  const Geometry g{8, 3, 16, 4};
  StripeMap a = MakeMap(g, 7);
  StripeMap b = MakeMap(g, 7);
  ASSERT_TRUE(a.AppendMany(100).ok());
  ASSERT_TRUE(b.AppendMany(100).ok());
  for (std::size_t s = 0; s < a.count(); ++s) {
    EXPECT_EQ(a.stripe(s).chunks, b.stripe(s).chunks);
  }
  // Different seed, different layout (declustering actually varies).
  StripeMap c = MakeMap(g, 8);
  ASSERT_TRUE(c.AppendMany(100).ok());
  bool any_difference = false;
  for (std::size_t s = 0; s < a.count() && !any_difference; ++s) {
    any_difference = a.stripe(s).chunks != c.stripe(s).chunks;
  }
  EXPECT_TRUE(any_difference);
}

TEST(PlacementProperty, RefusesUndersizedUnit) {
  PlacementOptions options;
  options.data_chunks = 8;
  options.parity_chunks = 3;
  DeclusteredPlacement layout(options);
  layout.AddDomains(10, 4);  // 10 domains < 11 chunks
  EXPECT_EQ(layout.PlaceStripe(0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ChunkTagCode, RoundTripsForEveryChunk) {
  for (std::uint64_t tag : {0ULL, 1ULL, 42ULL, 0xDEADBEEFCAFEF00DULL}) {
    for (int chunk = 0; chunk < 16; ++chunk) {
      const std::uint64_t encoded = services::redundancy::ChunkTag(tag, chunk);
      EXPECT_EQ(services::redundancy::StripeTagFromChunk(encoded, chunk), tag);
      // A different chunk index must NOT decode to the same generator —
      // that is exactly how misdirected reads get detected.
      EXPECT_NE(services::redundancy::StripeTagFromChunk(encoded, chunk + 1),
                tag);
    }
  }
}

TEST(RebuildPlanner, DeclustersReadsAndSparesExcludeSurvivors) {
  StripeMap map = MakeMap({8, 3, 40, 4}, 21);
  ASSERT_TRUE(map.AppendMany(300).ok());
  int failed = 0;  // pick the busiest disk so the plan is non-trivial
  for (int d = 0; d < map.layout().disks(); ++d) {
    if (map.layout().disk_load(d) > map.layout().disk_load(failed)) {
      failed = d;
    }
  }
  const int lost_chunks =
      static_cast<int>(map.ChunksOnDisk(failed).size());
  ASSERT_GT(lost_chunks, 0);

  Result<RebuildPlan> plan = PlanRebuild(map, failed, /*apply=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(static_cast<int>(plan->ops.size()), lost_chunks);
  EXPECT_EQ(plan->total_chunk_reads, lost_chunks * 8);
  EXPECT_EQ(plan->total_chunk_writes, lost_chunks);
  EXPECT_EQ(plan->disk_reads[failed] + plan->disk_writes[failed], 0);

  for (const auto& op : plan->ops) {
    EXPECT_EQ(static_cast<int>(op.reads.size()), 8);  // k reads, not k+m-1
    const Stripe& stripe = map.stripe(op.stripe);
    std::set<int> surviving_domains;
    for (int c = 0; c < static_cast<int>(stripe.chunks.size()); ++c) {
      if (c != op.lost_chunk) surviving_domains.insert(stripe.chunks[c].domain);
    }
    for (const ChunkLocation& read : op.reads) {
      EXPECT_NE(read.disk, failed);
    }
    EXPECT_EQ(surviving_domains.count(op.spare.domain), 0u);
    EXPECT_NE(op.spare.disk, failed);
  }

  // Declustered: the busiest disk carries a small slice of the total work
  // (a serial mirror copy would put all reads on one disk).
  EXPECT_LT(plan->max_disk_ops * 8, plan->total_chunk_reads);
  EXPECT_GT(plan->disks_touched, 8);

  // Pure function: planning twice without apply gives the identical plan.
  Result<RebuildPlan> again = PlanRebuild(map, failed, /*apply=*/false);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(plan->ops.size(), again->ops.size());
  for (std::size_t i = 0; i < plan->ops.size(); ++i) {
    EXPECT_EQ(plan->ops[i].stripe, again->ops[i].stripe);
    EXPECT_EQ(plan->ops[i].spare, again->ops[i].spare);
    EXPECT_EQ(plan->ops[i].reads, again->ops[i].reads);
  }
}

TEST(RebuildPlanner, ApplyDrainsFailedDiskAndKeepsInvariants) {
  StripeMap map = MakeMap({4, 2, 12, 3}, 5);
  ASSERT_TRUE(map.AppendMany(150).ok());
  const int failed = 7;
  ASSERT_FALSE(map.ChunksOnDisk(failed).empty());

  Result<RebuildPlan> plan = PlanRebuild(map, failed, /*apply=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(map.ChunksOnDisk(failed).empty());
  EXPECT_EQ(map.layout().disk_load(failed), 0);
  CheckDomainSeparation(map);
  CheckLoadConservation(map);
}

TEST(RebuildTimeModel, DeclusteredFlatSerialLinear) {
  RebuildTimeModel model;
  // Same per-disk data, four unit sizes: the failed disk always loses the
  // same number of chunks, but a bigger unit spreads the rebuild wider.
  const int per_disk_chunks = 6;
  std::vector<sim::Duration> declustered;
  for (int domains : {25, 50, 100}) {
    StripeMap map = MakeMap({8, 3, domains, 4}, 77);
    const int disks = domains * 4;
    const int stripes = per_disk_chunks * disks / 11;
    ASSERT_TRUE(map.AppendMany(stripes).ok());
    int failed = 0;
    for (int d = 0; d < disks; ++d) {
      if (map.layout().disk_load(d) > map.layout().disk_load(failed)) {
        failed = d;
      }
    }
    Result<RebuildPlan> plan = PlanRebuild(map, failed, /*apply=*/false);
    ASSERT_TRUE(plan.ok());
    declustered.push_back(
        DeclusteredRebuildTime(*plan, model, map.layout().disks()));
  }
  // Flat-or-falling: 4x the disks must not cost more than a small factor,
  // while the serial agent is exactly linear in the data it copies.
  EXPECT_LE(declustered[2], declustered[0] * 3 / 2);
  const sim::Duration serial_small =
      SerialAgentRebuildTime(per_disk_chunks * 100, model);
  const sim::Duration serial_large =
      SerialAgentRebuildTime(per_disk_chunks * 400, model);
  EXPECT_GT(serial_large, serial_small * 3);
  // And the declustered rebuild beats the serial agent outright at size.
  EXPECT_LT(declustered[2], serial_large);
}

TEST(Mttdl, OrderingAndParitySensitivity) {
  MttdlOptions options;
  options.total_disks = 1000;
  const double declustered =
      services::redundancy::MttdlDeclusteredHours(options);
  const double dedicated =
      services::redundancy::MttdlDedicatedHours(options);
  const double reattach = services::redundancy::MttdlReattachHours(options);
  // Any RS(8+3) scheme beats no-redundancy by orders of magnitude.
  EXPECT_GT(declustered, reattach * 1e3);
  EXPECT_GT(dedicated, reattach * 1e3);

  // Declustering trades worse failure-combination exposure (any m+1
  // overlapping failures in the unit, conservatively) for a far shorter
  // repair window, so it only wins with the MTTR its parallel rebuild
  // actually achieves: minutes (work spread over ~N/4 powered disks)
  // against the serial agent's day-scale copy of a full disk. Feed both
  // sides their model-backed repair times and the ordering must flip to
  // declustered.
  MttdlOptions fast = options;
  fast.repair_hours = 0.1;  // ~6 min, DeclusteredRebuildTime at N=1000
  MttdlOptions slow = options;
  slow.repair_hours = 24;   // serial agent + detection/dispatch
  EXPECT_GT(services::redundancy::MttdlDeclusteredHours(fast),
            services::redundancy::MttdlDedicatedHours(slow));

  // More parity, more lifetime.
  MttdlOptions m1 = options;
  m1.parity_chunks = 1;
  EXPECT_GT(declustered, services::redundancy::MttdlDeclusteredHours(m1));
}

TEST(FailureDomains, PrototypeWiringGroupsByLeafHub) {
  const fabric::BuiltFabric fabric =
      fabric::BuildPrototypeFabric(fabric::PrototypeOptions{});
  const fabric::FailureDomainMap domains =
      fabric::EnumerateFailureDomains(fabric);
  ASSERT_EQ(domains.size(), 4);
  std::set<std::string> seen;
  for (const fabric::FailureDomain& domain : domains.domains) {
    EXPECT_EQ(domain.disks.size(), 4u);
    for (fabric::NodeIndex disk : domain.disks) {
      const std::string& name = fabric.topology.node(disk).name;
      EXPECT_TRUE(seen.insert(name).second) << name << " in two domains";
    }
  }
  EXPECT_EQ(seen.size(), fabric.topology.Disks().size());
}

}  // namespace
}  // namespace ustore
