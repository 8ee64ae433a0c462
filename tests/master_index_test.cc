// Master reverse-index coverage (DESIGN.md §8).
//
// The Master's heartbeat and failover paths no longer scan allocations_;
// they rely on the disk->spaces, host->disks and per-disk exposed-host
// indexes. These tests pin (a) the behaviour the indexes replaced — admin
// disk moves still trigger re-exposure on the new host — and (b) the index
// invariants themselves, by driving a seeded random mix of allocate /
// release / host-crash / admin-move operations through a live cluster and
// asserting Master::CheckIndexesForTest after every step (the fuzz-driver
// pattern of consensus_fuzz_test.cc).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "consensus/meta_client.h"
#include "core/cluster.h"
#include "obs/metrics.h"

namespace ustore::core {
namespace {

class MasterIndexTest : public ::testing::Test {
 protected:
  MasterIndexTest() { cluster_.Start(); }

  Result<ClientLib::Volume*> AllocateSync(ClientLib* client,
                                          const std::string& service,
                                          Bytes size) {
    Result<ClientLib::Volume*> out = InternalError("pending");
    client->AllocateAndMount(service, size,
                             [&](Result<ClientLib::Volume*> r) { out = r; });
    cluster_.RunFor(sim::Seconds(10));
    return out;
  }

  Status MoveDisksToHost(const std::vector<std::string>& disks, int host) {
    net::RpcEndpoint admin(&cluster_.sim(), &cluster_.network(),
                           "index-admin");
    auto request = std::make_shared<ScheduleRequest>();
    for (const std::string& disk : disks) {
      request->moves.push_back(DiskHostPair{disk, host});
    }
    Status status = InternalError("pending");
    admin.Call("ctrl-0-0", request, sim::Seconds(60),
               [&](Result<net::MessagePtr> r) { status = r.status(); });
    cluster_.RunFor(sim::Seconds(30));
    return status;
  }

  void ExpectIndexesConsistent(const char* when) {
    Master* master = cluster_.active_master();
    ASSERT_NE(master, nullptr) << when;
    std::string why;
    EXPECT_TRUE(master->CheckIndexesForTest(&why)) << when << ": " << why;
  }

  Cluster cluster_;
};

// Regression: with re-exposure driven by the per-disk exposed-host counts
// (not an allocation scan), an admin-initiated disk move must still cause
// the Master to re-expose the disk's spaces on the new host, and clients
// must find the space there.
TEST_F(MasterIndexTest, AdminDiskMoveStillTriggersReExposure) {
  auto client = cluster_.MakeClient("client");
  auto volume = AllocateSync(client.get(), "svc", GiB(10));
  ASSERT_TRUE(volume.ok()) << volume.status();
  const std::string disk = (*volume)->id().disk;
  Master* master = cluster_.active_master();
  const int old_host = master->CurrentHostOfDisk(disk);
  const int new_host = (old_host + 1) % cluster_.host_count();

  // Group-granularity fabric: move the whole group of the disk's host.
  std::vector<std::string> group;
  for (int d = 0; d < 16; ++d) {
    const std::string name = "disk-" + std::to_string(d);
    if (master->CurrentHostOfDisk(name) == old_host) group.push_back(name);
  }
  ASSERT_TRUE(MoveDisksToHost(group, new_host).ok());
  cluster_.RunFor(sim::Seconds(30));

  EXPECT_EQ(master->CurrentHostOfDisk(disk), new_host);
  Result<LookupResponse> lookup = InternalError("pending");
  client->Lookup((*volume)->id(),
                 [&](Result<LookupResponse> r) { lookup = r; });
  cluster_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(lookup.ok()) << lookup.status();
  EXPECT_TRUE(lookup->available);
  EXPECT_EQ(lookup->host, cluster_.endpoint(new_host)->id())
      << "space not re-exposed on the new host";
  ExpectIndexesConsistent("after admin move");
}

// Deterministic time: delta beats alone must keep attributed disks from
// tripping disk_missing_timeout (the Master refreshes last_seen for
// `present` disks), while a really-missing disk still ages out.
TEST_F(MasterIndexTest, DeltaHeartbeatsKeepDisksAlive) {
  Master* master = cluster_.active_master();
  ASSERT_NE(master, nullptr);
  // Far beyond disk_missing_timeout (10 s) with a steady fabric: no disk
  // may be flagged failed even though most beats carry no disk list.
  cluster_.RunFor(sim::Seconds(60));
  for (int d = 0; d < 16; ++d) {
    EXPECT_EQ(master->CurrentHostOfDisk("disk-" + std::to_string(d)) >= 0,
              true);
  }
  const auto snapshot = obs::Metrics().Snapshot();
  auto full = snapshot.counters.find("endpoint.heartbeats_full");
  auto delta = snapshot.counters.find("endpoint.heartbeats_delta");
  ASSERT_NE(delta, snapshot.counters.end());
  ASSERT_NE(full, snapshot.counters.end());
  EXPECT_GT(delta->second, full->second)
      << "steady state should be dominated by delta beats";
  ExpectIndexesConsistent("after steady state");
}

// MonitorTick visits only the disks some heartbeat has listed. The check
// pins that set to {disks with last_seen >= 0} on the active Master, on a
// restarted one (which forgets every heartbeat) and on that Master once
// heartbeats have reached it again.
TEST_F(MasterIndexTest, SeenDiskSetTracksHeartbeatsAcrossRestart) {
  ExpectIndexesConsistent("after start");
  Master* master = cluster_.active_master();
  ASSERT_NE(master, nullptr);
  EXPECT_GE(master->CurrentHostOfDisk("disk-0"), 0);

  master->Crash();
  cluster_.RunFor(sim::Seconds(1));
  master->Restart();
  std::string why;
  EXPECT_TRUE(master->CheckIndexesForTest(&why)) << "just restarted: " << why;
  EXPECT_EQ(master->CurrentHostOfDisk("disk-0"), -1);

  cluster_.RunFor(sim::Seconds(30));
  EXPECT_TRUE(master->CheckIndexesForTest(&why)) << "after beats: " << why;
  EXPECT_GE(master->CurrentHostOfDisk("disk-0"), 0);
  ExpectIndexesConsistent("after restart");
}

// A Master's disk handle is the wiring ordinal, so a persisted allocation
// on a disk outside the wiring has nothing to be indexed under: the
// successor Master leaves it out, loads every other allocation, and
// answers NotFound for it.
TEST_F(MasterIndexTest, SuccessorSkipsPersistedAllocationOffTheWiring) {
  auto client = cluster_.MakeClient("client");
  auto volume = AllocateSync(client.get(), "svc", GiB(10));
  ASSERT_TRUE(volume.ok()) << volume.status();

  consensus::MetaClient writer(&cluster_.sim(), &cluster_.network(),
                               "stray-writer",
                               cluster_.meta_client_options());
  Status written = InternalError("pending");
  writer.Start([&](Status started) {
    if (!started.ok()) {
      written = started;
      return;
    }
    writer.Create("/ustore/alloc/u0/disk-999", "", false, [&](Status dir) {
      if (!dir.ok()) {
        written = dir;
        return;
      }
      writer.Create("/ustore/alloc/u0/disk-999/1", "svc|0|1073741824", false,
                    [&](Status space) { written = space; });
    });
  });
  cluster_.RunFor(sim::Seconds(5));
  ASSERT_TRUE(written.ok()) << written;

  Master* first = cluster_.active_master();
  ASSERT_NE(first, nullptr);
  const std::size_t allocations = first->allocation_count();
  first->Crash();
  cluster_.RunFor(sim::Seconds(30));
  Master* successor = cluster_.active_master();
  ASSERT_NE(successor, nullptr);
  ASSERT_NE(successor, first);
  EXPECT_EQ(successor->allocation_count(), allocations);
  ExpectIndexesConsistent("after failover");

  Result<LookupResponse> stray = InternalError("pending");
  Result<LookupResponse> kept = InternalError("pending");
  client->Lookup(SpaceId{0, "disk-999", 1},
                 [&](Result<LookupResponse> r) { stray = r; });
  client->Lookup((*volume)->id(),
                 [&](Result<LookupResponse> r) { kept = r; });
  cluster_.RunFor(sim::Seconds(5));
  EXPECT_EQ(stray.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(kept.ok()) << kept.status();
}

// Property test: a seeded random mix of control-plane operations never
// breaks the reverse-index invariants.
class MasterIndexFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MasterIndexFuzzTest, IndexesStayConsistent) {
  ClusterOptions options;
  options.seed = GetParam();
  Cluster cluster(options);
  cluster.Start();
  Rng rng(GetParam() * 7919 + 17);

  auto client = cluster.MakeClient("fuzz-client");
  std::vector<ClientLib::Volume*> volumes;
  int crashed_host = -1;

  auto check = [&](const std::string& when) {
    Master* master = cluster.active_master();
    if (master == nullptr) return;  // mid-election; checked next round
    std::string why;
    ASSERT_TRUE(master->CheckIndexesForTest(&why))
        << "seed " << GetParam() << ", " << when << ": " << why;
  };

  for (int step = 0; step < 24; ++step) {
    const int op = static_cast<int>(rng.NextBelow(10));
    if (op < 4) {
      // Allocate (sometimes pinned to a random disk).
      auto done = std::make_shared<Result<ClientLib::Volume*>>(
          InternalError("pending"));
      const Bytes size = GiB(1 + static_cast<Bytes>(rng.NextBelow(8)));
      if (rng.NextBool(0.3)) {
        const std::string disk =
            "disk-" + std::to_string(rng.NextBelow(16));
        client->AllocateAndMountOnDisk(
            "fuzz-svc", size, disk,
            [done](Result<ClientLib::Volume*> r) { *done = r; });
      } else {
        client->AllocateAndMount(
            "fuzz-svc", size,
            [done](Result<ClientLib::Volume*> r) { *done = r; });
      }
      cluster.RunFor(sim::Seconds(8));
      if (done->ok()) volumes.push_back(**done);
      check("after allocate");
    } else if (op < 6 && !volumes.empty()) {
      // Release a random volume.
      const std::size_t pick = rng.NextBelow(volumes.size());
      const SpaceId id = volumes[pick]->id();
      volumes.erase(volumes.begin() + static_cast<std::ptrdiff_t>(pick));
      client->Release(id, "fuzz-svc", [](Status) {});
      cluster.RunFor(sim::Seconds(3));
      check("after release");
    } else if (op < 7 && crashed_host < 0 && cluster.host_count() > 1) {
      // Crash a host and let failover re-home its disks.
      crashed_host = static_cast<int>(rng.NextBelow(
          static_cast<std::uint64_t>(cluster.host_count())));
      cluster.CrashHost(crashed_host);
      cluster.RunFor(sim::Seconds(40));
      check("after host crash");
    } else if (op < 8 && crashed_host >= 0) {
      cluster.RestartHost(crashed_host);
      crashed_host = -1;
      cluster.RunFor(sim::Seconds(20));
      check("after host restart");
    } else {
      cluster.RunFor(sim::Seconds(2));
      check("after idle");
    }
  }
  cluster.RunFor(sim::Seconds(30));
  check("final");
  // The canonical dump renders every allocation exactly once.
  Master* master = cluster.active_master();
  ASSERT_NE(master, nullptr);
  const std::string dump = master->DumpAllocations();
  std::size_t lines = 0;
  for (char c : dump) lines += c == '\n';
  EXPECT_EQ(lines, master->allocation_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MasterIndexFuzzTest,
                         ::testing::Values(1u, 7u, 23u, 1234u));

}  // namespace
}  // namespace ustore::core
