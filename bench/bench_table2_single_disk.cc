// Reproduces Table II (§VII-A): throughput of one disk under SATA, USB and
// hub+switch (H&S) connections across 12 Iometer-style workloads.
//
// Two measurements per cell: the calibrated analytic model and an actual
// discrete-event run of 400 requests through the simulated disk — the DES
// numbers confirm the event-level machinery matches the closed form.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "hw/disk.h"
#include "hw/disk_model.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

using namespace ustore;

// Drives `n` queue-depth-1 requests and returns achieved IOPS.
double MeasureDes(const hw::DiskModel& model, const hw::WorkloadSpec& spec,
                  int n = 400) {
  sim::Simulator sim;
  // Stamp this run's metrics/trace events with the local sim clock.
  obs::BindSimulator(&sim);
  hw::Disk disk(&sim, "bench", &model);
  Rng rng(7);
  int completed = 0;
  std::function<void()> issue = [&] {
    if (completed >= n) return;
    hw::IoRequest request;
    request.size = spec.request_size;
    request.pattern = spec.pattern;
    request.direction = rng.NextBool(spec.read_fraction)
                            ? hw::IoDirection::kRead
                            : hw::IoDirection::kWrite;
    disk.SubmitIo(request, [&](Status status) {
      if (!status.ok()) return;
      ++completed;
      issue();
    });
  };
  issue();
  sim.Run();
  const double iops = completed / sim::ToSeconds(sim.now());
  obs::BindSimulator(nullptr);
  return iops;
}

void Section(const char* title, Bytes size, hw::AccessPattern pattern,
             bool as_mbps, const double paper_sata[3],
             const double paper_usb[3]) {
  bench::PrintHeader(std::string("Table II: ") + title);
  bench::PrintRow({"Read%", "SATA model", "SATA DES", "USB model",
                   "USB DES", "H&S model", "paper SATA", "paper USB/H&S"},
                  15);
  const hw::DiskModel sata(hw::DiskParams{}, hw::SataInterface());
  const hw::DiskModel usb(hw::DiskParams{}, hw::UsbBridgeInterface());
  const double read_fractions[3] = {1.0, 0.5, 0.0};
  for (int i = 0; i < 3; ++i) {
    hw::WorkloadSpec spec{size, read_fractions[i], pattern};
    auto scale = [&](double iops) {
      return as_mbps ? iops * static_cast<double>(size) / 1e6 : iops;
    };
    const double sata_model = scale(sata.Evaluate(spec).iops);
    const double usb_model = scale(usb.Evaluate(spec).iops);
    const double sata_des = scale(MeasureDes(sata, spec));
    const double usb_des = scale(MeasureDes(usb, spec));
    bench::PrintRow({std::to_string(static_cast<int>(read_fractions[i] * 100)) + "%",
                     bench::Fmt(sata_model), bench::Fmt(sata_des),
                     bench::Fmt(usb_model), bench::Fmt(usb_des),
                     bench::Fmt(usb_model),  // H&S == USB path cost
                     bench::Fmt(paper_sata[i]), bench::Fmt(paper_usb[i])},
                    15);
  }
}

}  // namespace

int main() {
  const double sata_4k_seq[3] = {13378, 8066, 11211};
  const double usb_4k_seq[3] = {5380, 4294, 6166};
  Section("4KB sequential (IO/s)", KiB(4), hw::AccessPattern::kSequential,
          false, sata_4k_seq, usb_4k_seq);

  const double sata_4k_rand[3] = {191.9, 105.4, 86.9};
  const double usb_4k_rand[3] = {189.0, 105.2, 85.2};
  Section("4KB random (IO/s)", KiB(4), hw::AccessPattern::kRandom, false,
          sata_4k_rand, usb_4k_rand);

  const double sata_4m_seq[3] = {184.8, 105.7, 180.2};
  const double usb_4m_seq[3] = {185.8, 119.7, 184.0};
  Section("4MB sequential (MB/s)", MiB(4), hw::AccessPattern::kSequential,
          true, sata_4m_seq, usb_4m_seq);

  const double sata_4m_rand[3] = {129.1, 78.7, 57.5};
  const double usb_4m_rand[3] = {147.9, 95.5, 79.3};
  Section("4MB random (MB/s)", MiB(4), hw::AccessPattern::kRandom, true,
          sata_4m_rand, usb_4m_rand);

  std::printf(
      "\nShape checks: SATA ~2.5x USB on 4KB sequential; parity on large\n"
      "transfers; USB ahead of SATA on 4MB random (bridge read-ahead).\n");
  bench::EmitMetricsJson();
  return 0;
}
