// Robustness and edge-case coverage: controller belief reconciliation,
// disk-failure handling end to end, expose deadlines, master allocation
// exhaustion across many disks, and double-failure behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/cluster.h"
#include "obs/metrics.h"

namespace ustore::core {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() { cluster_.Start(); }

  Result<ClientLib::Volume*> AllocateSync(ClientLib* client,
                                          const std::string& service,
                                          Bytes size) {
    Result<ClientLib::Volume*> out = InternalError("pending");
    client->AllocateAndMount(service, size,
                             [&](Result<ClientLib::Volume*> r) { out = r; });
    cluster_.RunFor(sim::Seconds(10));
    return out;
  }

  Cluster cluster_;
};

TEST_F(RobustnessTest, BackupControllerReconcilesBeliefsFromUsbReports) {
  // The primary controller moves group 0 to host 1; the backup only
  // watches USB reports, yet its beliefs must converge.
  net::RpcEndpoint admin(&cluster_.sim(), &cluster_.network(), "admin");
  auto request = std::make_shared<ScheduleRequest>();
  for (int d = 0; d < 4; ++d) {
    request->moves.push_back(DiskHostPair{"disk-" + std::to_string(d), 1});
  }
  Status status = InternalError("pending");
  admin.Call("ctrl-0-0", request, sim::Seconds(60),
             [&](Result<net::MessagePtr> r) { status = r.status(); });
  cluster_.RunFor(sim::Seconds(30));
  ASSERT_TRUE(status.ok()) << status;

  EXPECT_EQ(cluster_.controller(0)->BelievedHostOfDisk("disk-0"), 1);
  EXPECT_EQ(cluster_.controller(1)->BelievedHostOfDisk("disk-0"), 1)
      << "backup controller did not reconcile";

  // And the reconciled backup can plan correctly: moving group 0 back is
  // one flip, not a conflict.
  auto plan = cluster_.controller(1)->SwitchesToTurn(
      {{"disk-0", 0}, {"disk-1", 0}, {"disk-2", 0}, {"disk-3", 0}});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->size(), 1u);
}

TEST_F(RobustnessTest, DiskHardwareFailureIsDetectedAndReported) {
  auto client = cluster_.MakeClient("client");
  auto volume = AllocateSync(client.get(), "svc", GiB(10));
  ASSERT_TRUE(volume.ok());
  const std::string disk = (*volume)->id().disk;

  // Blow the disk hardware: the unit drops off the USB tree; after the
  // missing-disk timeout the Master flags the space unavailable (data
  // recovery is the upper layer's job, §IV-E).
  ASSERT_TRUE(cluster_.fabric().FailUnit(disk).ok());
  cluster_.RunFor(sim::Seconds(15));

  Result<LookupResponse> lookup = InternalError("pending");
  client->Lookup((*volume)->id(),
                 [&](Result<LookupResponse> r) { lookup = r; });
  cluster_.RunFor(sim::Seconds(3));
  ASSERT_TRUE(lookup.ok());
  EXPECT_FALSE(lookup->available);

  // A failed disk is never picked for new allocations.
  for (int i = 0; i < 3; ++i) {
    auto other = AllocateSync(client.get(), "svc", GiB(10));
    ASSERT_TRUE(other.ok());
    EXPECT_NE((*other)->id().disk, disk);
  }
}

TEST_F(RobustnessTest, AllocationSpreadsAcrossDisksWhenOneFills) {
  // Exhaust one disk (3 TB) and watch the allocator move on while keeping
  // service affinity where possible.
  auto client = cluster_.MakeClient("client");
  std::set<std::string> disks_used;
  for (int i = 0; i < 4; ++i) {
    auto volume = AllocateSync(client.get(), "big-svc", TB(1));
    ASSERT_TRUE(volume.ok()) << i;
    disks_used.insert((*volume)->id().disk);
  }
  EXPECT_GE(disks_used.size(), 2u);  // 4 TB does not fit one 3 TB disk
}

TEST_F(RobustnessTest, SecondHostFailureAfterRecoveryStillWorks) {
  // Crash host 2; after failover completes, crash host 3. Both groups end
  // up served; the fabric handles sequential (non-concurrent) failures.
  auto client2 = cluster_.MakeClient("c2", 2);
  auto client3 = cluster_.MakeClient("c3", 3);
  auto v2 = AllocateSync(client2.get(), "svc2", GiB(10));
  auto v3 = AllocateSync(client3.get(), "svc3", GiB(10));
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(v3.ok());

  cluster_.CrashHost(2);
  cluster_.RunFor(sim::Seconds(30));
  EXPECT_TRUE((*v2)->mounted());
  const int host_after_first =
      cluster_.active_master()->CurrentHostOfDisk((*v2)->id().disk);
  EXPECT_NE(host_after_first, 2);

  cluster_.CrashHost(3);
  cluster_.RunFor(sim::Seconds(40));
  EXPECT_TRUE((*v3)->mounted());
  const int host_after_second =
      cluster_.active_master()->CurrentHostOfDisk((*v3)->id().disk);
  EXPECT_NE(host_after_second, 2);
  EXPECT_NE(host_after_second, 3);
}

TEST_F(RobustnessTest, ExposeTimesOutWhenDiskNeverAppears) {
  // Ask host 3's EndPoint to expose a disk that is attached elsewhere: it
  // polls, then gives up with kUnavailable after its deadline.
  net::RpcEndpoint admin(&cluster_.sim(), &cluster_.network(), "admin");
  auto request = std::make_shared<ExposeRequest>();
  request->id = SpaceId{0, "disk-0", 77};
  request->disk = "disk-0";  // attached to host 0, not host 3
  request->offset = 0;
  request->length = GiB(1);
  Status status = InternalError("pending");
  admin.Call("host-3", request, sim::Seconds(60),
             [&](Result<net::MessagePtr> r) { status = r.status(); });
  cluster_.RunFor(sim::Seconds(40));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(RobustnessTest, MetaQuorumLossBlocksAllocationButNotIo) {
  auto client = cluster_.MakeClient("client");
  auto volume = AllocateSync(client.get(), "svc", GiB(10));
  ASSERT_TRUE(volume.ok());

  // Kill two of three metadata replicas: no quorum, so persistent
  // allocation must fail...
  cluster_.meta_service(0)->Stop();
  cluster_.meta_service(1)->Stop();
  cluster_.RunFor(sim::Seconds(5));
  Result<ClientLib::Volume*> blocked = InternalError("pending");
  client->AllocateAndMount("svc", GiB(10),
                           [&](Result<ClientLib::Volume*> r) { blocked = r; });
  cluster_.RunFor(sim::Seconds(60));
  EXPECT_FALSE(blocked.ok());

  // ...but the data plane keeps serving (metadata is off the I/O path).
  Status write = InternalError("pending");
  (*volume)->Write(0, KiB(4), false, 9, [&](Status s) { write = s; });
  cluster_.RunFor(sim::Seconds(5));
  EXPECT_TRUE(write.ok());
}

// Regression: a Master crashed mid-failover and restarted later must not
// inherit the dead process's in-flight failover. Its RPC callbacks were
// dropped with the endpoint, so nothing would ever clear the entry, and
// once this Master is active again its missing-disk check would stay off.
TEST_F(RobustnessTest, RestartedMasterDropsItsDeadProcessesFailovers) {
  Master* first = cluster_.active_master();
  ASSERT_NE(first, nullptr);
  Master* second = first == cluster_.master(0) ? cluster_.master(1)
                                               : cluster_.master(0);
  obs::Counter& failovers_started =
      obs::Metrics().GetCounter("master.failovers_started");
  obs::Counter& disk_failures =
      obs::Metrics().GetCounter("master.disk_failures");

  // Crash the active Master the moment it starts host 2's failover.
  const std::uint64_t started = failovers_started.value();
  cluster_.CrashHost(2);
  for (int step = 0; step < 1000 && failovers_started.value() == started;
       ++step) {
    cluster_.RunFor(sim::MillisD(10));
  }
  ASSERT_GT(failovers_started.value(), started);
  first->Crash();

  // The standby takes over; host 2's disks end up served elsewhere.
  cluster_.RunFor(sim::Seconds(60));
  ASSERT_EQ(cluster_.active_master(), second);
  const int host_of_disk_8 = second->CurrentHostOfDisk("disk-8");
  ASSERT_GE(host_of_disk_8, 0);
  ASSERT_NE(host_of_disk_8, 2);

  // The first Master comes back as the standby, then takes over again.
  first->Restart();
  cluster_.RunFor(sim::Seconds(10));
  second->Crash();

  // A disk lost now must still be detected by the missing-disk check.
  const std::uint64_t failures = disk_failures.value();
  ASSERT_TRUE(cluster_.fabric().FailUnit("disk-0").ok());
  for (int waited_s = 0; waited_s < 20 && disk_failures.value() == failures;
       ++waited_s) {
    cluster_.RunFor(sim::Seconds(1));
  }
  EXPECT_GT(disk_failures.value(), failures);
  EXPECT_EQ(cluster_.active_master(), first);
}

TEST_F(RobustnessTest, FlakyEnumerationHealedByPowerCycle) {
  // §V-B quirk end to end: with lossy enumeration, failover still
  // completes because the 30 s verification window outlasts retries via
  // power cycle... here we exercise the manager-level recovery directly.
  sim::Simulator sim;
  fabric::FabricManager::Options options;
  options.attach_loss_probability = 0.4;
  fabric::FabricManager manager(&sim, fabric::BuildPrototypeFabric(),
                                options, Rng(99));
  sim.RunFor(sim::Seconds(10));
  // Some disks may be stuck unrecognized; power-cycle every stuck disk.
  for (fabric::NodeIndex node : manager.topology().Disks()) {
    const std::string& name = manager.topology().node(node).name;
    if (manager.VisibleHostOfDisk(name) < 0) {
      ASSERT_TRUE(manager.DriveDiskPower(0, node, false).ok());
    }
  }
  sim.RunFor(sim::Seconds(2));
  for (fabric::NodeIndex node : manager.topology().Disks()) {
    const std::string& name = manager.topology().node(node).name;
    if (manager.disk(name)->state() == hw::DiskState::kPoweredOff) {
      ASSERT_TRUE(manager.DriveDiskPower(0, node, true).ok());
    }
  }
  sim.RunFor(sim::Seconds(15));
  for (fabric::NodeIndex node : manager.topology().Disks()) {
    const std::string& name = manager.topology().node(node).name;
    EXPECT_GE(manager.VisibleHostOfDisk(name), 0) << name;
  }
}

}  // namespace
}  // namespace ustore::core
