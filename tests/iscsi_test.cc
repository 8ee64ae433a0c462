#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "hw/disk.h"
#include "iscsi/iscsi.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ustore::iscsi {
namespace {

class IscsiTest : public ::testing::Test {
 protected:
  IscsiTest()
      : network_(&sim_, Rng(3)),
        host_endpoint_(&sim_, &network_, "host-0"),
        client_endpoint_(&sim_, &network_, "client-0"),
        disk_(&sim_, "disk-0", &model_),
        target_(&sim_, &host_endpoint_,
                [this](const std::string& name) -> hw::Disk* {
                  if (name == "disk-0" && disk_visible_) return &disk_;
                  return nullptr;
                }),
        initiator_(&sim_, &client_endpoint_) {}

  Status ExposeSync(const LunSpec& spec) {
    Status out = InternalError("pending");
    target_.Expose(spec, [&](Status s) { out = s; });
    sim_.RunFor(sim::Seconds(3));
    return out;
  }

  Result<Bytes> ConnectSync(const std::string& lun_id) {
    Result<Bytes> out = InternalError("pending");
    initiator_.Connect("host-0", lun_id, [&](Result<Bytes> r) { out = r; });
    sim_.RunFor(sim::Seconds(1));
    return out;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::RpcEndpoint host_endpoint_;
  net::RpcEndpoint client_endpoint_;
  const hw::DiskModel model_{hw::DiskParams{}, hw::UsbBridgeInterface()};
  hw::Disk disk_;
  bool disk_visible_ = true;
  IscsiTarget target_;
  IscsiInitiator initiator_;
};

TEST_F(IscsiTest, ExposeTakesSetupDelay) {
  Status out = InternalError("pending");
  target_.Expose({"/u0/disk-0/1", "disk-0", 0, GiB(10)},
                 [&](Status s) { out = s; });
  sim_.RunFor(sim::MillisD(500));
  EXPECT_FALSE(target_.IsExposed("/u0/disk-0/1"));  // still setting up
  sim_.RunFor(sim::Seconds(1));
  EXPECT_TRUE(out.ok());
  EXPECT_TRUE(target_.IsExposed("/u0/disk-0/1"));
}

TEST_F(IscsiTest, ExposeFailsWhenDiskNotRecognized) {
  disk_visible_ = false;
  Status out = ExposeSync({"/u0/disk-0/1", "disk-0", 0, GiB(10)});
  EXPECT_EQ(out.code(), StatusCode::kUnavailable);
}

TEST_F(IscsiTest, ExposeFailsIfDiskVanishesDuringSetup) {
  Status out = InternalError("pending");
  target_.Expose({"/u0/disk-0/1", "disk-0", 0, GiB(10)},
                 [&](Status s) { out = s; });
  sim_.RunFor(sim::MillisD(500));
  disk_visible_ = false;  // switched away mid-setup
  sim_.RunFor(sim::Seconds(2));
  EXPECT_EQ(out.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(target_.IsExposed("/u0/disk-0/1"));
}

TEST_F(IscsiTest, DuplicateExposeRejected) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  EXPECT_EQ(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(IscsiTest, LoginReturnsCapacity) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(10)}).ok());
  auto capacity = ConnectSync("/lun");
  ASSERT_TRUE(capacity.ok());
  EXPECT_EQ(*capacity, GiB(10));
  EXPECT_TRUE(initiator_.connected());
}

TEST_F(IscsiTest, LoginToUnknownLunFails) {
  auto result = ConnectSync("/ghost");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(initiator_.connected());
}

TEST_F(IscsiTest, WriteReadRoundTripPreservesTag) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(10)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());

  Status write_status = InternalError("pending");
  initiator_.Write(MiB(1), KiB(4), false, 0xDEADBEEF,
                   [&](Status s) { write_status = s; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(write_status.ok());

  Result<std::uint64_t> tag = InternalError("pending");
  initiator_.Read(MiB(1), KiB(4), false,
                  [&](Result<std::uint64_t> r) { tag = r; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, 0xDEADBEEFu);
}

TEST_F(IscsiTest, LunOffsetIsolatesExtents) {
  // Two LUNs on the same disk at different offsets must not alias.
  ASSERT_TRUE(ExposeSync({"/lun-a", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ExposeSync({"/lun-b", "disk-0", GiB(1), GiB(1)}).ok());

  IscsiInitiator second(&sim_, &client_endpoint_);
  ASSERT_TRUE(ConnectSync("/lun-a").ok());
  Result<Bytes> second_capacity = InternalError("pending");
  second.Connect("host-0", "/lun-b",
                 [&](Result<Bytes> r) { second_capacity = r; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(second_capacity.ok());

  Status status = InternalError("pending");
  initiator_.Write(0, KiB(4), false, 111, [&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(status.ok());
  second.Write(0, KiB(4), false, 222, [&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(status.ok());

  Result<std::uint64_t> tag = InternalError("pending");
  initiator_.Read(0, KiB(4), false,
                  [&](Result<std::uint64_t> r) { tag = r; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, 111u);
  second.Read(0, KiB(4), false, [&](Result<std::uint64_t> r) { tag = r; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(tag.ok());
  EXPECT_EQ(*tag, 222u);
}

TEST_F(IscsiTest, IoOutsideExtentRejected) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, MiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  Status status;
  initiator_.Write(MiB(1) - KiB(2), KiB(4), false, 1,
                   [&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(1));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(IscsiTest, IoFailsWhenDiskMovesAway) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  disk_visible_ = false;  // reconfigured to another host
  Status status = InternalError("pending");
  initiator_.Write(0, KiB(4), false, 1, [&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(1));
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
}

TEST_F(IscsiTest, UnexposeStopsServingIo) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  ASSERT_TRUE(target_.Unexpose("/lun").ok());
  Status status = InternalError("pending");
  initiator_.Read(0, KiB(4), false,
                  [&](Result<std::uint64_t> r) { status = r.status(); });
  sim_.RunFor(sim::Seconds(1));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(target_.Unexpose("/lun").code(), StatusCode::kNotFound);
}

TEST_F(IscsiTest, PingDetectsDeadHostAndDisconnects) {
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  Status lost;
  initiator_.set_connection_lost_listener([&](Status s) { lost = s; });
  network_.SetNodeDown("host-0", true);
  sim_.RunFor(sim::Seconds(5));
  EXPECT_EQ(lost.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(initiator_.connected());
  // I/O after disconnection fails fast.
  Status status = InternalError("pending");
  initiator_.Read(0, KiB(4), false,
                  [&](Result<std::uint64_t> r) { status = r.status(); });
  sim_.RunFor(sim::Seconds(1));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(IscsiTest, PingsSurviveSlowCommands) {
  // A command held by disk spin-up must not kill the session.
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  disk_.SpinDown();
  bool lost = false;
  initiator_.set_connection_lost_listener([&](Status) { lost = true; });
  Status status = InternalError("pending");
  initiator_.Write(0, KiB(4), false, 1, [&](Status s) { status = s; });
  sim_.RunFor(sim::Seconds(15));  // spin-up takes ~7 s
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_FALSE(lost);
}

TEST_F(IscsiTest, LargeTransfersPayNetworkTime) {
  // A 4 MiB read must take at least the 1 GbE serialization time (~35 ms)
  // on top of the disk service time.
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  ASSERT_TRUE(ConnectSync("/lun").ok());
  const sim::Time start = sim_.now();
  sim::Time done_at = 0;
  initiator_.Read(0, MiB(4), false, [&](Result<std::uint64_t> r) {
    ASSERT_TRUE(r.ok());
    done_at = sim_.now();
  });
  sim_.RunFor(sim::Seconds(2));
  ASSERT_GT(done_at, start);
  const double ms = sim::ToMillis(done_at - start);
  EXPECT_GT(ms, 22.0 + 30.0);  // disk transfer + network serialization
  EXPECT_LT(ms, 120.0);
}

TEST_F(IscsiTest, TargetFlapDuringPingDoesNotPoisonTheNewSession) {
  // A NOP ping can outlive its session: issue one that will time out,
  // then disconnect + reconnect (a target flap) while it is in flight.
  // The stale timeout must be dropped on the session-generation check —
  // with ping_failures_to_disconnect=1 it would otherwise tear down the
  // healthy new session the moment it lands.
  ASSERT_TRUE(ExposeSync({"/lun", "disk-0", 0, GiB(1)}).ok());
  net::RpcEndpoint endpoint(&sim_, &network_, "client-1");
  IscsiInitiatorOptions options;
  options.ping_failures_to_disconnect = 1;
  IscsiInitiator initiator(&sim_, &endpoint, options);
  bool lost = false;
  initiator.set_connection_lost_listener([&](Status) { lost = true; });

  Result<Bytes> connected = InternalError("pending");
  initiator.Connect("host-0", "/lun", [&](Result<Bytes> r) { connected = r; });
  sim_.RunFor(sim::Seconds(1));
  ASSERT_TRUE(connected.ok()) << connected.status();
  const std::uint64_t first_session = initiator.session_generation();

  // Drop the path so the next periodic NOP times out, and let one launch.
  network_.SetPartitioned("host-0", "client-1", true);
  sim_.RunFor(sim::MillisD(600));

  // Flap while that NOP is still in flight.
  initiator.Disconnect();
  network_.SetPartitioned("host-0", "client-1", false);
  connected = InternalError("pending");
  initiator.Connect("host-0", "/lun", [&](Result<Bytes> r) { connected = r; });
  sim_.RunFor(sim::MillisD(200));
  ASSERT_TRUE(connected.ok()) << connected.status();
  EXPECT_EQ(initiator.session_generation(), first_session + 2);

  // The stale ping's timeout lands here; the new session must ride it out.
  sim_.RunFor(sim::Seconds(2));
  EXPECT_TRUE(initiator.connected());
  EXPECT_FALSE(lost);
  EXPECT_EQ(initiator.ping_failures(), 0);
}

}  // namespace
}  // namespace ustore::iscsi
