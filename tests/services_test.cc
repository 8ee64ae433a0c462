// MiniDfs + Archiver on a live cluster, including the §VII-B experiment:
// switch a disk while HDFS writes — the write stalls for seconds and
// resumes, reads are never interrupted.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "services/archiver.h"
#include "services/mini_dfs.h"
#include "services/rebuild.h"
#include "services/redundancy.h"

namespace ustore::services {
namespace {

class DfsFixture : public ::testing::Test {
 protected:
  static constexpr int kDataNodes = 3;

  DfsFixture() {
    cluster_.Start();
    // One DataNode per host 1..3 with a volume allocated near that host
    // (host 0 is left as the failover target).
    std::vector<net::NodeId> dn_ids;
    for (int i = 0; i < kDataNodes; ++i) {
      dn_ids.push_back("dfs-dn-" + std::to_string(i));
    }
    for (int i = 0; i < kDataNodes; ++i) {
      auto client = cluster_.MakeClient("dn-client-" + std::to_string(i),
                                        /*locality=*/i + 1);
      Result<core::ClientLib::Volume*> volume = InternalError("pending");
      client->AllocateAndMount(
          "mini-dfs", GiB(10),
          [&](Result<core::ClientLib::Volume*> r) { volume = r; });
      cluster_.RunFor(sim::Seconds(10));
      EXPECT_TRUE(volume.ok()) << volume.status();
      datanodes_.push_back(std::make_unique<DataNode>(
          &cluster_.sim(), &cluster_.network(), dn_ids[i], *volume));
      dn_clients_.push_back(std::move(client));
      dn_volumes_.push_back(*volume);
    }
    namenode_ = std::make_unique<NameNode>(
        &cluster_.sim(), &cluster_.network(), "dfs-nn", dn_ids);
    dfs_client_ = std::make_unique<DfsClient>(
        &cluster_.sim(), &cluster_.network(), "dfs-client", "dfs-nn");
  }

  core::Cluster cluster_;
  std::vector<std::unique_ptr<core::ClientLib>> dn_clients_;
  std::vector<core::ClientLib::Volume*> dn_volumes_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<DfsClient> dfs_client_;
};

TEST_F(DfsFixture, WriteThenReadVerifiesTags) {
  DfsClient::WriteReport write;
  write.status = InternalError("pending");
  dfs_client_->WriteFile("/logs/day1", 5, 1000,
                         [&](DfsClient::WriteReport r) { write = r; });
  cluster_.RunFor(sim::Seconds(30));
  ASSERT_TRUE(write.status.ok()) << write.status;
  EXPECT_EQ(write.transient_errors, 0);

  DfsClient::ReadReport read;
  read.status = InternalError("pending");
  dfs_client_->ReadFile("/logs/day1",
                        [&](DfsClient::ReadReport r) { read = r; });
  cluster_.RunFor(sim::Seconds(30));
  ASSERT_TRUE(read.status.ok()) << read.status;
  ASSERT_EQ(read.tags.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(read.tags[i], 1000u + i);
  }
  EXPECT_EQ(read.replica_failovers, 0);
}

TEST_F(DfsFixture, DuplicateFileRejected) {
  DfsClient::WriteReport write;
  write.status = InternalError("pending");
  dfs_client_->WriteFile("/f", 1, 1, [&](auto r) { write = r; });
  cluster_.RunFor(sim::Seconds(20));
  ASSERT_TRUE(write.status.ok());
  dfs_client_->WriteFile("/f", 1, 1, [&](auto r) { write = r; });
  cluster_.RunFor(sim::Seconds(20));
  EXPECT_EQ(write.status.code(), StatusCode::kAlreadyExists);
}

TEST_F(DfsFixture, EveryBlockHasThreeReplicas) {
  DfsClient::WriteReport write;
  write.status = InternalError("pending");
  dfs_client_->WriteFile("/r", 4, 50, [&](auto r) { write = r; });
  cluster_.RunFor(sim::Seconds(60));
  ASSERT_TRUE(write.status.ok());
  std::size_t total = 0;
  for (const auto& dn : datanodes_) total += dn->blocks_stored();
  EXPECT_EQ(total, 4u * 3u);
}

TEST_F(DfsFixture, HostFailureDuringWriteStallsSecondsThenResumes) {
  // The §VII-B experiment, with a real failure driving the switch: crash
  // the host under DataNode 0's volume mid-write; UStore moves the disk
  // and the DFS write resumes after a few seconds of retries.
  const int dn0_host = cluster_.active_master()->CurrentHostOfDisk(
      dn_volumes_[0]->id().disk);
  ASSERT_GT(dn0_host, 0);

  DfsClient::WriteReport write;
  write.status = InternalError("pending");
  bool crashed = false;
  dfs_client_->WriteFile("/big", 24, 7000,
                         [&](DfsClient::WriteReport r) { write = r; });
  // Let a few blocks land, then yank the host.
  cluster_.RunFor(sim::Seconds(3));
  crashed = true;
  cluster_.CrashHost(dn0_host);
  cluster_.RunFor(sim::Seconds(120));

  ASSERT_TRUE(crashed);
  ASSERT_TRUE(write.status.ok()) << write.status;
  EXPECT_GT(write.transient_errors, 0);          // errors for a while...
  EXPECT_GT(write.stalled, sim::Seconds(1));     // ...a few seconds...
  EXPECT_LT(write.stalled, sim::Seconds(60));    // ...not forever.

  // And the data all round-trips afterwards.
  DfsClient::ReadReport read;
  read.status = InternalError("pending");
  dfs_client_->ReadFile("/big", [&](DfsClient::ReadReport r) { read = r; });
  cluster_.RunFor(sim::Seconds(120));
  ASSERT_TRUE(read.status.ok()) << read.status;
  ASSERT_EQ(read.tags.size(), 24u);
  for (int i = 0; i < 24; ++i) EXPECT_EQ(read.tags[i], 7000u + i);
}

TEST_F(DfsFixture, ReadsFailOverToReplicasWithoutInterruption) {
  DfsClient::WriteReport write;
  write.status = InternalError("pending");
  dfs_client_->WriteFile("/replicated", 6, 300, [&](auto r) { write = r; });
  cluster_.RunFor(sim::Seconds(60));
  ASSERT_TRUE(write.status.ok());

  // Take DataNode 0's volume host down and read immediately: the client
  // hops to another replica per block, no stall beyond the RPC timeout.
  const int dn0_host = cluster_.active_master()->CurrentHostOfDisk(
      dn_volumes_[0]->id().disk);
  cluster_.CrashHost(dn0_host);
  cluster_.RunFor(sim::MillisD(200));

  DfsClient::ReadReport read;
  read.status = InternalError("pending");
  dfs_client_->ReadFile("/replicated",
                        [&](DfsClient::ReadReport r) { read = r; });
  cluster_.RunFor(sim::Seconds(60));
  ASSERT_TRUE(read.status.ok()) << read.status;
  EXPECT_EQ(read.tags.size(), 6u);
  EXPECT_GT(read.replica_failovers, 0);
}

TEST(DfsClientTest, WriteRetryExhaustionReportsAccountingAndFiresOnce) {
  // A replica that never answers: the write retries write_max_retries
  // times (stalled accumulating one retry delay per attempt), then fails
  // exactly once with the final error. Standalone sim — the NameNode
  // places the only replica on a DataNode id nobody registered, so every
  // block write times out.
  sim::Simulator sim;
  net::Network network(&sim, Rng(17));
  DfsOptions options;
  options.replication = 1;
  options.write_max_retries = 3;
  options.write_retry_delay = sim::MillisD(100);
  options.rpc_timeout = sim::MillisD(500);
  NameNode namenode(&sim, &network, "dfs-nn", {"dfs-dn-ghost"}, options);
  DfsClient client(&sim, &network, "dfs-client", "dfs-nn", options);

  int completions = 0;
  DfsClient::WriteReport report;
  report.status = InternalError("pending");
  client.WriteFile("/doomed", 1, 9000, [&](DfsClient::WriteReport r) {
    ++completions;
    report = r;
  });
  sim.RunFor(sim::Seconds(30));

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded);
  // Initial attempt + write_max_retries retries, each a transient error;
  // only the retried attempts wait out the delay.
  EXPECT_EQ(report.transient_errors, options.write_max_retries + 1);
  EXPECT_EQ(report.stalled,
            options.write_max_retries * options.write_retry_delay);
}

// --- Archiver -------------------------------------------------------------------

class ArchiverFixture : public ::testing::Test {
 protected:
  ArchiverFixture() {
    cluster_.Start();
    client_ = cluster_.MakeClient("archive-client");
    Result<core::ClientLib::Volume*> volume = InternalError("pending");
    client_->AllocateAndMount(
        "cold-archive", GiB(50),
        [&](Result<core::ClientLib::Volume*> r) { volume = r; });
    cluster_.RunFor(sim::Seconds(10));
    EXPECT_TRUE(volume.ok());
    volume_ = *volume;
    archiver_ =
        std::make_unique<Archiver>(client_.get(), volume_, "cold-archive");
  }

  core::Cluster cluster_;
  std::unique_ptr<core::ClientLib> client_;
  core::ClientLib::Volume* volume_ = nullptr;
  std::unique_ptr<Archiver> archiver_;
};

TEST_F(ArchiverFixture, BatchArchiveAndVerify) {
  Status status = InternalError("pending");
  archiver_->ArchiveBatch(10, MiB(4), [&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(30));
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(archiver_->objects_archived(), 10u);
  EXPECT_EQ(archiver_->bytes_archived(), 10 * MiB(4));

  archiver_->VerifyBatch(0, 10, [&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(30));
  EXPECT_TRUE(status.ok()) << status;
}

TEST_F(ArchiverFixture, StandbySpinsDiskDownAndBatchWakesIt) {
  Status status = InternalError("pending");
  archiver_->ArchiveBatch(2, MiB(4), [&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(20));
  ASSERT_TRUE(status.ok());

  archiver_->EnterStandby([&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(cluster_.fabric().disk(volume_->id().disk)->state(),
            hw::DiskState::kSpunDown);

  // The next batch spins the disk up implicitly (with spin-up latency).
  const sim::Time start = cluster_.sim().now();
  archiver_->ArchiveBatch(1, MiB(4), [&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(30));
  ASSERT_TRUE(status.ok());
  EXPECT_GT(cluster_.sim().now() - start,
            hw::DiskParams{}.spin_up_time);
}

TEST_F(ArchiverFixture, VolumeFullReportsExhaustion) {
  core::ClientLibOptions options;
  Result<core::ClientLib::Volume*> small = InternalError("pending");
  client_->AllocateAndMount("cold-archive", MiB(8),
                            [&](auto r) { small = r; });
  cluster_.RunFor(sim::Seconds(10));
  ASSERT_TRUE(small.ok());
  Archiver tiny(client_.get(), *small, "cold-archive");
  Status status = InternalError("pending");
  tiny.ArchiveBatch(3, MiB(4), [&](Status s) { status = s; });
  cluster_.RunFor(sim::Seconds(20));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.objects_archived(), 2u);
}

// --- RebuildEngine over Master-placed stripes ------------------------------------

// A live cluster with RS(k+m) stripes (six RS(2+1) ones by default)
// allocated through the Master, every chunk tagged with the invertible
// stripe code, plus a client-side layout replica whose plan drives the
// RebuildEngine. Not a gtest fixture so the determinism test can spin up
// two identical worlds side by side.
class StripeWorld {
 public:
  static constexpr Bytes kChunk = MiB(1);
  static constexpr int kStripes = 6;
  static constexpr std::uint64_t kGenBase = 9000;

  explicit StripeWorld(int data = 2, int parity = 1, int stripes = kStripes)
      : data_(data),
        parity_(parity),
        stripe_count_(stripes),
        map_(MakeOptions(data, parity)) {
    cluster_.Start();
    client_ = cluster_.MakeClient("ec-client");
    for (int s = 0; s < stripe_count_; ++s) {
      Result<core::ClientLib::StripeVolumes> stripe =
          InternalError("pending");
      client_->AllocateStripe(
          "ec", kChunk, data_, parity_,
          [&](Result<core::ClientLib::StripeVolumes> r) { stripe = r; });
      cluster_.RunFor(sim::Seconds(10));
      EXPECT_TRUE(stripe.ok()) << stripe.status();
      if (stripe.ok()) stripes_.push_back(*stripe);
    }
    int acked = 0;
    for (int s = 0; s < stripe_count_; ++s) {
      for (int c = 0; c < data_ + parity_; ++c) {
        stripes_[s].chunks[c]->Write(
            0, kChunk, /*random=*/false,
            redundancy::ChunkTag(kGenBase + s, c), [&](Status status) {
              EXPECT_TRUE(status.ok()) << status;
              ++acked;
            });
      }
    }
    cluster_.RunFor(sim::Seconds(60));
    EXPECT_EQ(acked, stripe_count_ * (data_ + parity_));

    // The client-side layout replica the plan is computed against; its
    // dense locations are mapped onto the mounted volumes by the resolver.
    map_.layout().AddDomains(4, 4);
    EXPECT_TRUE(map_.AppendMany(stripe_count_).ok());
    engine_options_.chunk_size = kChunk;
    engine_options_.total_disks = map_.layout().disks();
  }

  static fabric::PlacementOptions MakeOptions(int data, int parity) {
    fabric::PlacementOptions options;
    options.data_chunks = data;
    options.parity_chunks = parity;
    options.seed = 77;
    return options;
  }

  // Busiest layout disk — the failure that exposes the most chunks.
  int BusiestDisk() const {
    int best = 0;
    for (int d = 1; d < map_.layout().disks(); ++d) {
      if (map_.ChunksOnDisk(d).size() > map_.ChunksOnDisk(best).size()) {
        best = d;
      }
    }
    return best;
  }

  // Plans (and applies) the rebuild of BusiestDisk(), then allocates one
  // spare volume per affected stripe.
  redundancy::RebuildPlan PlanAndPrepare() {
    failed_disk_ = BusiestDisk();
    Result<redundancy::RebuildPlan> plan =
        redundancy::PlanRebuild(map_, failed_disk_, /*apply=*/true);
    EXPECT_TRUE(plan.ok()) << plan.status();
    for (const redundancy::RebuildStripeOp& op : plan->ops) {
      Result<core::ClientLib::Volume*> spare = InternalError("pending");
      client_->AllocateAndMount(
          "ec-spare", MiB(4),
          [&](Result<core::ClientLib::Volume*> r) { spare = r; });
      cluster_.RunFor(sim::Seconds(10));
      EXPECT_TRUE(spare.ok()) << spare.status();
      if (spare.ok()) spares_[op.stripe] = *spare;
    }
    return *plan;
  }

  RebuildEngine::ChunkResolver MakeResolver(
      const redundancy::RebuildPlan& plan) {
    std::map<std::uint64_t, int> lost;
    for (const redundancy::RebuildStripeOp& op : plan.ops) {
      lost[op.stripe] = op.lost_chunk;
    }
    return [this, lost](std::uint64_t stripe, int chunk,
                        const fabric::ChunkLocation&) {
      auto it = lost.find(stripe);
      if (it != lost.end() && chunk == it->second) {
        return RebuildEngine::ChunkAddress{spares_.at(stripe), 0};
      }
      return RebuildEngine::ChunkAddress{
          stripes_[static_cast<std::size_t>(stripe)].chunks[chunk], 0};
    };
  }

  // Reads back the tag the spare of `stripe` holds.
  Result<std::uint64_t> ReadSpareTag(std::uint64_t stripe) {
    Result<std::uint64_t> tag = InternalError("pending");
    spares_.at(stripe)->Read(0, kChunk, /*random=*/false,
                             [&](Result<std::uint64_t> r) { tag = r; });
    cluster_.RunFor(sim::Seconds(10));
    return tag;
  }

  // Runs the engine over `plan` from `first_op`, through MakeResolver()
  // unless `resolver` is given.
  RebuildEngineReport Execute(const redundancy::RebuildPlan& plan,
                              int first_op = 0,
                              std::uint64_t corrupt_stripe = ~0ULL,
                              RebuildEngine::ChunkResolver resolver = {}) {
    RebuildEngine engine(&cluster_.sim(), &map_, engine_options_,
                         resolver ? std::move(resolver) : MakeResolver(plan));
    if (corrupt_stripe != ~0ULL) {
      engine.CorruptSpareWriteForTest(corrupt_stripe);
    }
    RebuildEngineReport report;
    report.status = InternalError("pending");
    bool done = false;
    engine.ExecuteFrom(first_op, plan, [&](RebuildEngineReport r) {
      report = r;
      done = true;
    });
    cluster_.RunFor(sim::Seconds(300));
    EXPECT_TRUE(done);
    return report;
  }

  const int data_;
  const int parity_;
  const int stripe_count_;
  core::Cluster cluster_;
  std::unique_ptr<core::ClientLib> client_;
  std::vector<core::ClientLib::StripeVolumes> stripes_;
  std::map<std::uint64_t, core::ClientLib::Volume*> spares_;
  redundancy::StripeMap map_;
  // What Execute() runs the engine with; tests may adjust it first.
  RebuildEngineOptions engine_options_;
  int failed_disk_ = -1;
};

TEST(StripeRebuild, MasterPlacementSeparatesFailureDomains) {
  StripeWorld world;
  core::Master* master = world.cluster_.active_master();
  ASSERT_NE(master, nullptr);
  EXPECT_EQ(master->stripe_count(),
            static_cast<std::size_t>(StripeWorld::kStripes));
  EXPECT_GE(master->failure_domain_count(), world.data_ + world.parity_);
  for (const core::ClientLib::StripeVolumes& stripe : world.stripes_) {
    ASSERT_EQ(stripe.chunks.size(),
              static_cast<std::size_t>(world.data_ + world.parity_));
    ASSERT_EQ(stripe.domains.size(), stripe.chunks.size());
    for (std::size_t a = 0; a < stripe.domains.size(); ++a) {
      for (std::size_t b = a + 1; b < stripe.domains.size(); ++b) {
        EXPECT_NE(stripe.domains[a], stripe.domains[b])
            << "stripe " << stripe.stripe_id
            << " put two chunks in one failure domain";
      }
    }
    const std::vector<core::SpaceId>* spaces =
        master->StripeChunks(stripe.stripe_id);
    ASSERT_NE(spaces, nullptr);
    EXPECT_EQ(spaces->size(), stripe.chunks.size());
  }
  std::string why;
  EXPECT_TRUE(master->CheckIndexesForTest(&why)) << why;
}

// RS(2+1), and RS(1+1): the whole-disk replica copy as a degenerate
// stripe, one surviving chunk read per lost chunk.
TEST(StripeRebuild, EngineRebuildsEveryChunkOfAFailedDisk) {
  for (const auto& [data, parity] : {std::pair{2, 1}, std::pair{1, 1}}) {
    SCOPED_TRACE("RS(" + std::to_string(data) + "+" +
                 std::to_string(parity) + ")");
    StripeWorld world(data, parity);
    const redundancy::RebuildPlan plan = world.PlanAndPrepare();
    const int ops = static_cast<int>(plan.ops.size());
    ASSERT_GT(ops, 0);

    const RebuildEngineReport report = world.Execute(plan);
    ASSERT_TRUE(report.status.ok()) << report.status;
    EXPECT_EQ(report.stripes_total, ops);
    EXPECT_EQ(report.stripes_rebuilt, ops);
    EXPECT_EQ(report.chunk_reads, data * ops);
    EXPECT_EQ(report.chunk_writes, ops);
    EXPECT_EQ(report.tag_mismatches, 0);
    EXPECT_EQ(report.read_failovers, 0);
    EXPECT_EQ(report.resume_from, ops);
    EXPECT_TRUE(report.throughput_valid);
    EXPECT_TRUE(CheckRebuildResumable(report).ok());

    // Each spare chunk now holds exactly the lost chunk's tag.
    for (const redundancy::RebuildStripeOp& op : plan.ops) {
      const Result<std::uint64_t> tag = world.ReadSpareTag(op.stripe);
      ASSERT_TRUE(tag.ok()) << tag.status();
      EXPECT_EQ(*tag, redundancy::ChunkTag(StripeWorld::kGenBase + op.stripe,
                                           op.lost_chunk));
    }
    // The applied plan drained the failed disk in the layout replica.
    EXPECT_TRUE(world.map_.ChunksOnDisk(world.failed_disk_).empty());
  }
}

TEST(StripeRebuild, CorruptSpareWriteIsDataLossAndRunResumes) {
  StripeWorld world;
  const redundancy::RebuildPlan plan = world.PlanAndPrepare();
  ASSERT_GT(plan.ops.size(), 0u);

  // Corrupt the first op's spare write: the verify read-back must trip,
  // fail the run with a distinct status, and leave an exact resume point.
  const RebuildEngineReport report =
      world.Execute(plan, /*first_op=*/0,
                    /*corrupt_stripe=*/plan.ops.front().stripe);
  ASSERT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_GE(report.tag_mismatches, 1);
  EXPECT_LT(report.stripes_rebuilt, report.stripes_total);
  EXPECT_TRUE(CheckRebuildResumable(report).ok());

  // A clean engine resumes from the reported op and finishes the rebuild.
  const RebuildEngineReport resumed = world.Execute(plan, report.resume_from);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  EXPECT_EQ(resumed.stripes_rebuilt, resumed.stripes_total);
  EXPECT_EQ(resumed.resume_from, static_cast<int>(plan.ops.size()));
}

// RS(1+1) stripes enough for every layout disk to hold several chunks,
// so the busiest disk's whole-disk copy takes several ops.
constexpr int kWholeDiskStripes = 24;

// At RS(1+1) a lost chunk has one survivor, so the engine makes the
// whole-disk copy chunk by chunk; a copy whose read-back disagrees is
// kDataLoss and not progress, and the copies before it are.
TEST(StripeRebuild, WholeDiskCopyCorruptSpareIsDataLossNotProgress) {
  StripeWorld world(/*data=*/1, /*parity=*/1, kWholeDiskStripes);
  const redundancy::RebuildPlan plan = world.PlanAndPrepare();
  const int ops = static_cast<int>(plan.ops.size());
  ASSERT_GE(ops, 2);
  world.engine_options_.max_stripes_in_flight = 1;  // in-order completion

  const int bad = ops - 1;
  const RebuildEngineReport report = world.Execute(
      plan, /*first_op=*/0, /*corrupt_stripe=*/plan.ops[bad].stripe);
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss) << report.status;
  EXPECT_EQ(report.tag_mismatches, 1);
  EXPECT_EQ(report.stripes_rebuilt, bad);
  EXPECT_EQ(report.chunk_writes, bad + 1);  // written, but not verified
  EXPECT_EQ(report.resume_from, bad);
  EXPECT_TRUE(CheckRebuildResumable(report).ok());

  const RebuildEngineReport resumed = world.Execute(plan, report.resume_from);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  EXPECT_EQ(resumed.stripes_rebuilt, ops - bad);
  EXPECT_EQ(resumed.resume_from, ops);
  const Result<std::uint64_t> tag = world.ReadSpareTag(plan.ops[bad].stripe);
  ASSERT_TRUE(tag.ok()) << tag.status();
  EXPECT_EQ(*tag, redundancy::ChunkTag(StripeWorld::kGenBase +
                                           plan.ops[bad].stripe,
                                       plan.ops[bad].lost_chunk));
}

// The whole-disk copy loses its source mid-copy: at RS(1+1) there is no
// second survivor to fail over to, so the run stops with the read's error
// (not kDataLoss), counts exactly the copies made before it, and finishes
// from there once the unit is repaired.
TEST(StripeRebuild, WholeDiskCopySourceLossReportsExactProgressAndResumes) {
  StripeWorld world(/*data=*/1, /*parity=*/1, kWholeDiskStripes);
  const redundancy::RebuildPlan plan = world.PlanAndPrepare();
  const int ops = static_cast<int>(plan.ops.size());
  ASSERT_GE(ops, 2);
  world.engine_options_.max_stripes_in_flight = 1;  // in-order completion

  // When the engine resolves op `cut`'s one read, every earlier copy is
  // done; fail the source's unit while that read is in flight.
  const int cut = ops / 2;
  const redundancy::RebuildStripeOp& victim_op = plan.ops[cut];
  std::string victim;
  const RebuildEngine::ChunkResolver resolve = world.MakeResolver(plan);
  const RebuildEngineReport report = world.Execute(
      plan, /*first_op=*/0, /*corrupt_stripe=*/~0ULL,
      [&](std::uint64_t stripe, int chunk, const fabric::ChunkLocation& at) {
        const RebuildEngine::ChunkAddress address = resolve(stripe, chunk, at);
        if (victim.empty() && stripe == victim_op.stripe &&
            chunk != victim_op.lost_chunk) {
          victim = address.volume->id().disk;
          world.cluster_.sim().Schedule(0, [&] {
            EXPECT_TRUE(world.cluster_.fabric().FailUnit(victim).ok());
          });
        }
        return address;
      });
  ASSERT_FALSE(victim.empty());
  ASSERT_FALSE(report.status.ok());
  EXPECT_NE(report.status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.stripes_rebuilt, cut);
  EXPECT_EQ(report.chunk_writes, cut);
  EXPECT_EQ(report.read_failovers, 0);
  EXPECT_EQ(report.tag_mismatches, 0);
  EXPECT_EQ(report.resume_from, cut);
  EXPECT_TRUE(CheckRebuildResumable(report).ok());

  ASSERT_TRUE(world.cluster_.fabric().RepairUnit(victim).ok());
  world.cluster_.RunFor(sim::Seconds(60));  // remount settles
  const RebuildEngineReport resumed = world.Execute(plan, report.resume_from);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status;
  EXPECT_EQ(resumed.stripes_rebuilt, ops - cut);
  EXPECT_EQ(resumed.resume_from, ops);

  // Copies on both sides of the resume point hold the lost chunk's tag.
  for (const redundancy::RebuildStripeOp& op : plan.ops) {
    const Result<std::uint64_t> tag = world.ReadSpareTag(op.stripe);
    ASSERT_TRUE(tag.ok()) << tag.status();
    EXPECT_EQ(*tag, redundancy::ChunkTag(StripeWorld::kGenBase + op.stripe,
                                         op.lost_chunk));
  }
}

// A spin budget smaller than one stripe's footprint (at RS(1+1), a source
// and a spare) still makes progress: one stripe at a time, each later one
// stalled exactly once.
TEST(StripeRebuild, SpinBudgetBelowOneStripeStillRebuildsOneAtATime) {
  StripeWorld world(/*data=*/1, /*parity=*/1, kWholeDiskStripes);
  const redundancy::RebuildPlan plan = world.PlanAndPrepare();
  const int ops = static_cast<int>(plan.ops.size());
  ASSERT_GE(ops, 2);
  world.engine_options_.max_active_disks = 1;

  const RebuildEngineReport report = world.Execute(plan);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.stripes_rebuilt, ops);
  EXPECT_EQ(report.chunk_writes, ops);
  EXPECT_EQ(report.admission_stalls, ops - 1);
  EXPECT_EQ(report.resume_from, ops);
  for (const redundancy::RebuildStripeOp& op : plan.ops) {
    const Result<std::uint64_t> tag = world.ReadSpareTag(op.stripe);
    ASSERT_TRUE(tag.ok()) << tag.status();
    EXPECT_EQ(*tag, redundancy::ChunkTag(StripeWorld::kGenBase + op.stripe,
                                         op.lost_chunk));
  }
}

// Nothing to rebuild is reported at once and explicitly, not as a run
// stalled at 0 MB/s: an empty plan, and a resume at or past the plan's
// end. No volume is touched, so the resolver must never be called.
TEST(StripeRebuild, NothingToRebuildIsExplicitNotStalled) {
  sim::Simulator sim;
  redundancy::StripeMap map(StripeWorld::MakeOptions(1, 1));
  map.layout().AddDomains(4, 4);
  ASSERT_TRUE(map.AppendMany(StripeWorld::kStripes).ok());
  int busiest = 0;
  for (int d = 1; d < map.layout().disks(); ++d) {
    if (map.ChunksOnDisk(d).size() > map.ChunksOnDisk(busiest).size()) {
      busiest = d;
    }
  }
  const Result<redundancy::RebuildPlan> plan =
      redundancy::PlanRebuild(map, busiest, /*apply=*/true);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const int ops = static_cast<int>(plan->ops.size());
  ASSERT_GT(ops, 0);
  const redundancy::RebuildPlan empty;

  RebuildEngine engine(&sim, &map, RebuildEngineOptions{},
                       [](std::uint64_t, int, const fabric::ChunkLocation&) {
                         ADD_FAILURE() << "resolver called with nothing to do";
                         return RebuildEngine::ChunkAddress{};
                       });
  struct Case {
    const redundancy::RebuildPlan* plan;
    int first_op;
    int resume_from;
  };
  for (const Case& c : {Case{&empty, 0, 0}, Case{&*plan, ops, ops},
                        Case{&*plan, ops + 3, ops}}) {
    SCOPED_TRACE("ops " + std::to_string(c.plan->ops.size()) + ", first " +
                 std::to_string(c.first_op));
    RebuildEngineReport report;
    report.status = InternalError("pending");
    bool done = false;
    engine.ExecuteFrom(c.first_op, *c.plan, [&](RebuildEngineReport r) {
      report = r;
      done = true;
    });
    ASSERT_TRUE(done);  // before any simulated time passes
    EXPECT_EQ(sim.now(), 0);
    ASSERT_TRUE(report.status.ok()) << report.status;
    EXPECT_EQ(report.stripes_total, 0);
    EXPECT_EQ(report.stripes_rebuilt, 0);
    EXPECT_EQ(report.chunk_reads, 0);
    EXPECT_EQ(report.chunk_writes, 0);
    EXPECT_EQ(report.resume_from, c.resume_from);
    EXPECT_EQ(report.elapsed, 0);
    EXPECT_FALSE(report.throughput_valid);
    EXPECT_EQ(report.throughput_mbps, 0.0);
    EXPECT_TRUE(CheckRebuildResumable(report).ok());
  }
}

TEST(StripeRebuild, ReportIsIdenticalAcrossIdenticalWorlds) {
  // The acceptance bar: the engine report is a pure function of (options,
  // volumes, fault schedule) — two identical clusters produce identical
  // reports, sim-time stamps included.
  auto run = [] {
    StripeWorld world;
    const redundancy::RebuildPlan plan = world.PlanAndPrepare();
    return world.Execute(plan);
  };
  const RebuildEngineReport a = run();
  const RebuildEngineReport b = run();
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.stripes_total, b.stripes_total);
  EXPECT_EQ(a.stripes_rebuilt, b.stripes_rebuilt);
  EXPECT_EQ(a.chunk_reads, b.chunk_reads);
  EXPECT_EQ(a.chunk_writes, b.chunk_writes);
  EXPECT_EQ(a.tag_mismatches, b.tag_mismatches);
  EXPECT_EQ(a.read_failovers, b.read_failovers);
  EXPECT_EQ(a.admission_stalls, b.admission_stalls);
  EXPECT_EQ(a.resume_from, b.resume_from);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
}

}  // namespace
}  // namespace ustore::services
