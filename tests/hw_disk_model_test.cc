// Validates the calibrated disk/interface service-time model against the
// paper's Table II (single-disk throughput for SATA and USB-bridge
// connections) and checks model invariants.
#include <gtest/gtest.h>

#include <string>

#include "hw/disk_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustore::hw {
namespace {

struct TableIICase {
  const char* iface;     // "sata" or "usb"
  Bytes size;
  AccessPattern pattern;
  double read_fraction;
  double paper_value;    // IO/s for 4KB rows, MB/s for 4MB rows
  bool value_is_iops;
};

// Every cell of Table II.
const TableIICase kTableII[] = {
    // 4KB sequential (IO/s)
    {"sata", KiB(4), AccessPattern::kSequential, 1.0, 13378, true},
    {"sata", KiB(4), AccessPattern::kSequential, 0.5, 8066, true},
    {"sata", KiB(4), AccessPattern::kSequential, 0.0, 11211, true},
    {"usb", KiB(4), AccessPattern::kSequential, 1.0, 5380, true},
    {"usb", KiB(4), AccessPattern::kSequential, 0.5, 4294, true},
    {"usb", KiB(4), AccessPattern::kSequential, 0.0, 6166, true},
    // 4KB random (IO/s)
    {"sata", KiB(4), AccessPattern::kRandom, 1.0, 191.9, true},
    {"sata", KiB(4), AccessPattern::kRandom, 0.5, 105.4, true},
    {"sata", KiB(4), AccessPattern::kRandom, 0.0, 86.9, true},
    {"usb", KiB(4), AccessPattern::kRandom, 1.0, 189.0, true},
    {"usb", KiB(4), AccessPattern::kRandom, 0.5, 105.2, true},
    {"usb", KiB(4), AccessPattern::kRandom, 0.0, 85.2, true},
    // 4MB sequential (MB/s)
    {"sata", MiB(4), AccessPattern::kSequential, 1.0, 184.8, false},
    {"sata", MiB(4), AccessPattern::kSequential, 0.5, 105.7, false},
    {"sata", MiB(4), AccessPattern::kSequential, 0.0, 180.2, false},
    {"usb", MiB(4), AccessPattern::kSequential, 1.0, 185.8, false},
    {"usb", MiB(4), AccessPattern::kSequential, 0.5, 119.7, false},
    {"usb", MiB(4), AccessPattern::kSequential, 0.0, 184.0, false},
    // 4MB random (MB/s)
    {"sata", MiB(4), AccessPattern::kRandom, 1.0, 129.1, false},
    {"sata", MiB(4), AccessPattern::kRandom, 0.5, 78.7, false},
    {"sata", MiB(4), AccessPattern::kRandom, 0.0, 57.5, false},
    {"usb", MiB(4), AccessPattern::kRandom, 1.0, 147.9, false},
    {"usb", MiB(4), AccessPattern::kRandom, 0.5, 95.5, false},
    {"usb", MiB(4), AccessPattern::kRandom, 0.0, 79.3, false},
};

DiskModel MakeModel(const std::string& iface) {
  return DiskModel(DiskParams{},
                   iface == "sata" ? SataInterface() : UsbBridgeInterface());
}

class TableIITest : public ::testing::TestWithParam<TableIICase> {};

TEST_P(TableIITest, MatchesPaperWithinTolerance) {
  const TableIICase& c = GetParam();
  DiskModel model = MakeModel(c.iface);
  WorkloadSpec spec{c.size, c.read_fraction, c.pattern};
  auto result = model.Evaluate(spec);
  const double measured =
      c.value_is_iops ? result.iops : ToMBps(result.bytes_per_sec);
  // Calibration target: every cell within 6% of the published number.
  EXPECT_NEAR(measured / c.paper_value, 1.0, 0.06)
      << c.iface << " size=" << c.size << " rf=" << c.read_fraction
      << " measured=" << measured << " paper=" << c.paper_value;
}

INSTANTIATE_TEST_SUITE_P(AllCells, TableIITest, ::testing::ValuesIn(kTableII));

// --- Structural properties of the model --------------------------------------

TEST(DiskModelTest, HubAndSwitchPathEqualsPlainUsb) {
  // Table II's H&S column matches the USB column: hubs and switches add no
  // per-command cost in the model (their effect is shared-bandwidth only).
  // This test documents that the USB interface params are used for both.
  DiskModel usb = MakeModel("usb");
  WorkloadSpec spec{KiB(4), 1.0, AccessPattern::kSequential};
  auto a = usb.Evaluate(spec);
  auto b = usb.Evaluate(spec);
  EXPECT_DOUBLE_EQ(a.iops, b.iops);
}

TEST(DiskModelTest, SataBeatsUsbOnSmallSequential) {
  WorkloadSpec spec{KiB(4), 1.0, AccessPattern::kSequential};
  const double sata = MakeModel("sata").Evaluate(spec).iops;
  const double usb = MakeModel("usb").Evaluate(spec).iops;
  EXPECT_GT(sata / usb, 2.0);  // the paper's "2 times better"
}

TEST(DiskModelTest, UsbBeatsSataOnLargeRandom) {
  // Bridge read-ahead hides track-switch cost (Table II, 4MB random).
  WorkloadSpec spec{MiB(4), 1.0, AccessPattern::kRandom};
  const double sata = ToMBps(MakeModel("sata").Evaluate(spec).bytes_per_sec);
  const double usb = ToMBps(MakeModel("usb").Evaluate(spec).bytes_per_sec);
  EXPECT_GT(usb, sata);
}

TEST(DiskModelTest, LargeSequentialParityAcrossInterfaces) {
  WorkloadSpec spec{MiB(4), 1.0, AccessPattern::kSequential};
  const double sata = ToMBps(MakeModel("sata").Evaluate(spec).bytes_per_sec);
  const double usb = ToMBps(MakeModel("usb").Evaluate(spec).bytes_per_sec);
  EXPECT_NEAR(usb / sata, 1.0, 0.03);
}

TEST(DiskModelTest, ServiceTimeMonotonicInSize) {
  DiskModel model = MakeModel("sata");
  sim::Duration prev = 0;
  for (Bytes size : {KiB(4), KiB(64), MiB(1), MiB(4), MiB(16)}) {
    IoRequest req{size, IoDirection::kRead, AccessPattern::kSequential};
    sim::Duration t = model.ServiceTime(req, IoDirection::kRead);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DiskModelTest, RandomSlowerThanSequential) {
  DiskModel model = MakeModel("sata");
  for (Bytes size : {KiB(4), MiB(4)}) {
    for (IoDirection dir : {IoDirection::kRead, IoDirection::kWrite}) {
      IoRequest seq{size, dir, AccessPattern::kSequential};
      IoRequest rnd{size, dir, AccessPattern::kRandom};
      EXPECT_GT(model.ServiceTime(rnd, dir), model.ServiceTime(seq, dir));
    }
  }
}

TEST(DiskModelTest, DirectionSwitchCostsExtra) {
  DiskModel model = MakeModel("sata");
  IoRequest req{KiB(4), IoDirection::kWrite, AccessPattern::kSequential};
  EXPECT_GT(model.ServiceTime(req, IoDirection::kRead),
            model.ServiceTime(req, IoDirection::kWrite));
}

TEST(DiskModelTest, EvaluateConsistentWithServiceTimePureStreams) {
  DiskModel model = MakeModel("usb");
  for (auto pattern : {AccessPattern::kSequential, AccessPattern::kRandom}) {
    WorkloadSpec spec{KiB(4), 1.0, pattern};
    IoRequest req{KiB(4), IoDirection::kRead, pattern};
    const double per_io =
        static_cast<double>(model.ServiceTime(req, IoDirection::kRead));
    EXPECT_NEAR(model.Evaluate(spec).iops, 1e9 / per_io, 1.0);
  }
}

TEST(DiskModelTest, MixPenaltyPeaksAtHalf) {
  DiskModel model = MakeModel("sata");
  auto iops = [&](double rf) {
    return model.Evaluate({KiB(4), rf, AccessPattern::kSequential}).iops;
  };
  // Throughput at 50% mix is lower than the interpolation of the pure
  // streams (the Table II dip).
  const double interpolated = (iops(1.0) + iops(0.0)) / 2.0;
  EXPECT_LT(iops(0.5), interpolated);
  // And read fraction sweep has no discontinuities at the edges.
  EXPECT_NEAR(iops(0.999), iops(1.0), iops(1.0) * 0.05);
}

TEST(DiskModelTest, EvaluationRecordsNoMetrics) {
  // The model is pure: callers hoist and share evaluations (the SoA range
  // path evaluates once per range), so no call may leave a trail.
  obs::MetricsRegistry metrics;
  obs::TraceBuffer trace;
  obs::ScopedObsBinding bind(&metrics, &trace);
  DiskModel model = MakeModel("usb");
  const IoRequest req{KiB(64), IoDirection::kWrite, AccessPattern::kRandom};
  EXPECT_GT(model.ServiceTime(req, IoDirection::kRead), 0);
  EXPECT_GT(model.ServiceTime(req, IoDirection::kWrite), 0);
  EXPECT_GT(model.SteadyStateServiceTime(req), 0);
  EXPECT_GT(model.Evaluate({KiB(64), 0.5, AccessPattern::kRandom}).iops, 0);
  const obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(DiskModelTest, BytesPerSecMatchesIopsTimesSize) {
  DiskModel model = MakeModel("sata");
  WorkloadSpec spec{MiB(4), 0.5, AccessPattern::kRandom};
  auto result = model.Evaluate(spec);
  EXPECT_DOUBLE_EQ(result.bytes_per_sec,
                   result.iops * static_cast<double>(MiB(4)));
}

}  // namespace
}  // namespace ustore::hw
