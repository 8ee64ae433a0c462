// hw::DiskStateArray against a real hw::Disk (DESIGN.md §12): the SoA
// closed-form batch drain schedules must be bit-exact with the per-request
// disk model, and the vectorized range sweeps bit-exact with a loop of the
// per-disk calls.
#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "hw/disk.h"
#include "hw/disk_soa.h"
#include "sim/simulator.h"

namespace ustore {
namespace {

std::vector<hw::IoCompletion> DriveRealDisk(
    sim::Simulator& sim, hw::Disk& disk,
    const std::vector<hw::IoRequest>& requests) {
  std::vector<hw::IoCompletion> results;
  disk.SubmitBatch(requests,
                   [&](std::span<const hw::IoCompletion> completions) {
                     results.assign(completions.begin(), completions.end());
                   });
  sim.Run();
  return results;
}

TEST(DiskStateArrayTest, MatchesRealDiskOnIdleBatch) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  for (const std::uint64_t ops : {1ull, 2ull, 16ull, 48ull}) {
    sim::Simulator sim;
    hw::Disk disk(&sim, "ref", model, /*start_powered=*/true,
                  {.queue_capacity = 256, .max_batch = 32});
    hw::IoRequest shape{KiB(512), hw::IoDirection::kRead,
                        hw::AccessPattern::kSequential};
    const auto real = DriveRealDisk(
        sim, disk, std::vector<hw::IoRequest>(ops, shape));
    ASSERT_EQ(real.size(), ops);

    hw::DiskStateArray soa(&model, 1, /*idle_timeout=*/0);
    const auto out = soa.SubmitBatch(0, shape, ops, 0);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.spin_wait, 0);
    for (std::uint64_t k = 0; k < ops; ++k) {
      EXPECT_EQ(real[k].completed_at,
                out.first_completion +
                    static_cast<sim::Duration>(k) * out.steady_service)
          << "ops=" << ops << " k=" << k;
      EXPECT_EQ(real[k].service_ns,
                k == 0 ? out.first_service : out.steady_service);
    }
    EXPECT_EQ(real.back().completed_at, out.last_completion);
    EXPECT_EQ(soa.total_ios(), ops);
  }
}

TEST(DiskStateArrayTest, MatchesRealDiskAcrossDirectionSwitch) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  sim::Simulator sim;
  hw::Disk disk(&sim, "ref", model, true, {.queue_capacity = 256});
  hw::DiskStateArray soa(&model, 1, 0);

  const hw::IoRequest read{KiB(256), hw::IoDirection::kRead,
                           hw::AccessPattern::kRandom};
  const hw::IoRequest write{KiB(256), hw::IoDirection::kWrite,
                            hw::AccessPattern::kRandom};

  auto real1 = DriveRealDisk(sim, disk, std::vector<hw::IoRequest>(8, read));
  const auto soa1 = soa.SubmitBatch(0, read, 8, 0);
  ASSERT_EQ(real1.back().completed_at, soa1.last_completion);

  // Second batch flips direction: its first request pays the switch
  // penalty (previous direction read), the rest run steady-state.
  const sim::Time t2 = sim.now();
  auto real2 = DriveRealDisk(sim, disk, std::vector<hw::IoRequest>(8, write));
  const auto soa2 = soa.SubmitBatch(0, write, 8, t2);
  ASSERT_TRUE(soa2.accepted);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(real2[k].completed_at,
              soa2.first_completion + k * soa2.steady_service);
  }
  EXPECT_GT(soa2.first_service, soa2.steady_service);  // switch penalty
}

TEST(DiskStateArrayTest, MatchesRealDiskSpinUpCharge) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  sim::Simulator sim;
  hw::Disk disk(&sim, "ref", model, /*start_powered=*/false,
                {.queue_capacity = 256});
  disk.PowerOn();  // spun-down, platter stopped
  ASSERT_EQ(disk.state(), hw::DiskState::kSpunDown);

  hw::IoRequest shape{MiB(4), hw::IoDirection::kRead,
                      hw::AccessPattern::kSequential};
  const auto real = DriveRealDisk(sim, disk, std::vector<hw::IoRequest>(4, shape));

  hw::DiskStateArray soa(&model, 1, 0);
  // Walk the SoA disk to spun-down through its own lifecycle: one batch,
  // drain, idle timer, spin-down. Then resubmit from t=0 equivalent.
  hw::DiskStateArray staged(&model, 1, sim::Millis(1));
  const auto warm = staged.SubmitBatch(0, shape, 1, 0);
  const sim::Time deadline = staged.FinishDrain(0, warm.last_completion);
  ASSERT_GE(deadline, 0);
  ASSERT_TRUE(staged.MaybeSpinDown(0, deadline));
  ASSERT_EQ(staged.state(0), hw::DiskState::kSpunDown);

  const auto out = soa.SubmitBatch(0, shape, 4, 0);  // soa[0] is idle: no spin
  EXPECT_EQ(out.spin_wait, 0);
  const auto cold = staged.SubmitBatch(0, shape, 4, deadline);
  ASSERT_TRUE(cold.accepted);
  EXPECT_EQ(cold.spin_wait, model.disk().spin_up_time);
  EXPECT_EQ(staged.total_spin_cycles(), 1u);

  // The real disk charged the whole spin-up to the first request and
  // chained completions from the spin-up end; the SoA math must agree on
  // both (modulo the absolute submit time, which differs by `deadline`).
  ASSERT_EQ(real.size(), 4u);
  EXPECT_EQ(real[0].spin_ns, model.disk().spin_up_time);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(real[k].completed_at,
              (cold.first_completion - deadline) + k * cold.steady_service);
  }
}

TEST(DiskStateArrayTest, QueuedBatchChainsBehindDrain) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  sim::Simulator sim;
  hw::Disk disk(&sim, "ref", model, true, {.queue_capacity = 256});
  hw::DiskStateArray soa(&model, 1, 0);
  const hw::IoRequest shape{KiB(64), hw::IoDirection::kWrite,
                            hw::AccessPattern::kSequential};

  // Submit two batches back-to-back (second while the first drains).
  std::vector<hw::IoCompletion> first, second;
  disk.SubmitBatch(std::vector<hw::IoRequest>(4, shape),
                   [&](std::span<const hw::IoCompletion> c) {
                     first.assign(c.begin(), c.end());
                   });
  disk.SubmitBatch(std::vector<hw::IoRequest>(4, shape),
                   [&](std::span<const hw::IoCompletion> c) {
                     second.assign(c.begin(), c.end());
                   });
  sim.Run();

  const auto soa1 = soa.SubmitBatch(0, shape, 4, 0);
  const auto soa2 = soa.SubmitBatch(0, shape, 4, 0);  // busy: chains
  EXPECT_EQ(first.back().completed_at, soa1.last_completion);
  EXPECT_EQ(second.front().completed_at, soa2.first_completion);
  EXPECT_EQ(second.back().completed_at, soa2.last_completion);
  EXPECT_GE(soa2.first_completion, soa1.last_completion);

  // Drain bookkeeping: only the final drain returns the spindle to idle.
  EXPECT_EQ(soa.FinishDrain(0, soa1.last_completion), -1);
  EXPECT_EQ(soa.queue_depth(0), 1);
  soa.FinishDrain(0, soa2.last_completion);
  EXPECT_EQ(soa.state(0), hw::DiskState::kIdle);
}

TEST(DiskStateArrayTest, FailRepairLifecycle) {
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  hw::DiskStateArray soa(&model, 2, 0);
  const hw::IoRequest shape{KiB(4), hw::IoDirection::kRead,
                            hw::AccessPattern::kSequential};
  soa.Fail(0);
  EXPECT_FALSE(soa.SubmitBatch(0, shape, 1, 0).accepted);
  EXPECT_TRUE(soa.SubmitBatch(1, shape, 1, 0).accepted);
  soa.Repair(0);
  EXPECT_EQ(soa.state(0), hw::DiskState::kSpunDown);
  const auto out = soa.SubmitBatch(0, shape, 1, 0);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.spin_wait, model.disk().spin_up_time);
  EXPECT_GT(soa.TotalPower(), 0.0);
}

TEST(DiskStateArrayTest, AdaptiveIdleTimeoutMatchesRealDisk) {
  // §IV-F: spin-ups arriving within 4x the configured idle timeout of the
  // previous one double the effective timeout, capped at 64x. Drive a real
  // hw::Disk and the SoA mirror through identical spin cycles and require
  // identical schedules, spin-down instants and effective timeouts.
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  const sim::Duration timeout = sim::Seconds(4);
  sim::Simulator sim;
  hw::Disk disk(&sim, "ref", model, /*start_powered=*/false,
                {.queue_capacity = 256});
  disk.PowerOn();
  disk.SetIdleSpinDown(timeout);
  hw::DiskStateArray soa(&model, 1, timeout);
  soa.SeedState(0, hw::DiskState::kSpunDown, false);

  const hw::IoRequest shape{KiB(64), hw::IoDirection::kRead,
                            hw::AccessPattern::kSequential};
  std::vector<sim::Duration> effective;
  sim::Time submit_at = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    sim.RunUntil(submit_at);
    const auto real =
        DriveRealDisk(sim, disk, std::vector<hw::IoRequest>(2, shape));
    ASSERT_EQ(real.size(), 2u) << "cycle " << cycle;
    const auto out = soa.SubmitBatch(0, shape, 2, submit_at);
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(real.front().completed_at, out.first_completion) << cycle;
    EXPECT_EQ(real.back().completed_at, out.last_completion) << cycle;

    const sim::Time deadline = soa.FinishDrain(0, out.last_completion);
    ASSERT_GE(deadline, 0) << cycle;
    EXPECT_TRUE(soa.MaybeSpinDown(0, deadline));
    // DriveRealDisk ran the sim dry: the real idle timer fired last, at
    // the instant the SoA deadline predicts, leaving the disk spun down.
    EXPECT_EQ(sim.now(), deadline) << cycle;
    EXPECT_EQ(disk.state(), hw::DiskState::kSpunDown) << cycle;
    EXPECT_EQ(disk.effective_idle_timeout(), soa.effective_idle_timeout(0))
        << cycle;
    effective.push_back(soa.effective_idle_timeout(0));
    submit_at = deadline + sim::Millis(1);
  }
  // 7s spin-up + 4s timeout: the second and third spin-ups land inside the
  // 16s window (doubling 4s -> 8s -> 16s); at 16s the cycle gap exceeds
  // the window and the back-off stops.
  EXPECT_EQ(effective[0], timeout);
  EXPECT_EQ(effective[1], 2 * timeout);
  EXPECT_EQ(effective[2], 4 * timeout);
  EXPECT_EQ(effective[3], 4 * timeout);
  EXPECT_EQ(effective[4], 4 * timeout);
}

TEST(DiskStateArrayTest, RangeEntryPointsMatchPerDiskLoop) {
  // The vectorized sweep path (SubmitBatchRange / FinishDrainRange /
  // SpinDownSweep) must evolve every disk bit-identically to a loop of the
  // per-disk calls — schedules, states, adaptive timeouts, aggregates.
  // (The model's obs call counters are exempt by the header contract.)
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  constexpr int kDisks = 32;
  constexpr int kWidth = 8;
  const sim::Duration timeout = sim::Millis(300);
  hw::DiskStateArray range_path(&model, kDisks, timeout);
  hw::DiskStateArray loop_path(&model, kDisks, timeout);
  for (int d = 0; d < kDisks; d += 5) {
    range_path.SeedState(d, hw::DiskState::kSpunDown, false);
    loop_path.SeedState(d, hw::DiskState::kSpunDown, false);
  }
  for (const int d : {3, 17}) {
    range_path.Fail(d);
    loop_path.Fail(d);
  }

  Rng rng(2026);
  sim::Time now = 0;
  for (int step = 0; step < 40; ++step) {
    const int first =
        static_cast<int>(rng.NextBelow(kDisks / kWidth)) * kWidth;
    const hw::IoRequest shape{
        KiB(64 << rng.NextBelow(3)),
        rng.NextBool(0.5) ? hw::IoDirection::kRead : hw::IoDirection::kWrite,
        rng.NextBool(0.5) ? hw::AccessPattern::kSequential
                          : hw::AccessPattern::kRandom};
    const std::uint64_t ops = 1 + rng.NextBelow(8);

    std::vector<hw::DiskStateArray::BatchOutcome> vec(kWidth);
    const auto range =
        range_path.SubmitBatchRange(first, kWidth, shape, ops, now, vec.data());
    int accepted = 0;
    sim::Time min_first = -1, max_last = -1;
    for (int d = first; d < first + kWidth; ++d) {
      const auto one = loop_path.SubmitBatch(d, shape, ops, now);
      const auto& two = vec[d - first];
      ASSERT_EQ(one.accepted, two.accepted) << "step " << step << " d " << d;
      if (!one.accepted) continue;
      EXPECT_EQ(one.first_completion, two.first_completion);
      EXPECT_EQ(one.last_completion, two.last_completion);
      EXPECT_EQ(one.first_service, two.first_service);
      EXPECT_EQ(one.steady_service, two.steady_service);
      EXPECT_EQ(one.spin_wait, two.spin_wait);
      ++accepted;
      if (min_first < 0 || one.first_completion < min_first) {
        min_first = one.first_completion;
      }
      max_last = std::max(max_last, one.last_completion);
    }
    EXPECT_EQ(range.accepted, accepted);
    EXPECT_EQ(range.rejected, kWidth - accepted);
    EXPECT_EQ(range.ops, static_cast<std::uint64_t>(accepted) * ops);
    EXPECT_EQ(range.first_completion, min_first);
    EXPECT_EQ(range.last_completion, max_last);

    if (range.last_completion >= 0) {
      // The range path retires the sweep with ONE drain event at the range
      // max; the per-disk path drains each disk at its own completion.
      // Idle deadlines (armed from each disk's own drain instant) and the
      // earliest-deadline summary must still agree.
      const sim::Time earliest =
          range_path.FinishDrainRange(first, kWidth, range.last_completion);
      sim::Time min_deadline = -1;
      for (int d = first; d < first + kWidth; ++d) {
        if (!vec[d - first].accepted) continue;
        const sim::Time dl =
            loop_path.FinishDrain(d, vec[d - first].last_completion);
        if (dl >= 0 && (min_deadline < 0 || dl < min_deadline)) {
          min_deadline = dl;
        }
      }
      EXPECT_EQ(earliest, min_deadline) << "step " << step;
      now = range.last_completion;
    }

    if (step % 3 == 2) {
      // Jump past every idle deadline: the range path fast-forwards with a
      // whole-array sweep, the per-disk path fires one timer per disk.
      now += 64 * timeout + sim::Seconds(1);
      const auto sweep = range_path.SpinDownSweep(0, kDisks, now);
      int spun = 0;
      for (int d = 0; d < kDisks; ++d) {
        if (loop_path.MaybeSpinDown(d, now)) ++spun;
      }
      EXPECT_EQ(sweep.spun_down, spun) << "step " << step;
      EXPECT_EQ(sweep.next_deadline, -1);
    } else {
      now += sim::Millis(static_cast<sim::Duration>(rng.NextBelow(50)));
    }

    for (int d = 0; d < kDisks; ++d) {
      ASSERT_EQ(range_path.state(d), loop_path.state(d))
          << "step " << step << " d " << d;
      EXPECT_EQ(range_path.effective_idle_timeout(d),
                loop_path.effective_idle_timeout(d));
    }
    EXPECT_EQ(range_path.total_ios(), loop_path.total_ios());
    EXPECT_EQ(range_path.total_bytes_read(), loop_path.total_bytes_read());
    EXPECT_EQ(range_path.total_bytes_written(),
              loop_path.total_bytes_written());
    EXPECT_EQ(range_path.total_spin_cycles(), loop_path.total_spin_cycles());
  }
  EXPECT_GT(range_path.total_spin_cycles(), 2u);  // lifecycle exercised
}

TEST(DiskStateArrayTest, RangeDrainChainsLikePerDisk) {
  // Two back-to-back sweeps on the same range: the second chains behind
  // the first's drain on both paths, and only the second drain arms the
  // idle timers.
  const hw::DiskModel model(hw::DiskParams{}, hw::UsbBridgeInterface());
  constexpr int kWidth = 8;
  hw::DiskStateArray range_path(&model, kWidth, sim::Millis(100));
  hw::DiskStateArray loop_path(&model, kWidth, sim::Millis(100));
  const hw::IoRequest shape{KiB(128), hw::IoDirection::kWrite,
                            hw::AccessPattern::kSequential};

  std::vector<hw::DiskStateArray::BatchOutcome> v1(kWidth), v2(kWidth);
  const auto r1 = range_path.SubmitBatchRange(0, kWidth, shape, 4, 0,
                                              v1.data());
  const auto r2 = range_path.SubmitBatchRange(0, kWidth, shape, 4, 0,
                                              v2.data());
  EXPECT_GE(r2.first_completion, r1.last_completion);
  for (int d = 0; d < kWidth; ++d) {
    const auto one = loop_path.SubmitBatch(d, shape, 4, 0);
    const auto two = loop_path.SubmitBatch(d, shape, 4, 0);
    EXPECT_EQ(one.last_completion, v1[d].last_completion);
    EXPECT_EQ(two.first_completion, v2[d].first_completion);
    EXPECT_EQ(two.last_completion, v2[d].last_completion);
  }

  EXPECT_EQ(range_path.FinishDrainRange(0, kWidth, r1.last_completion), -1);
  const sim::Time armed =
      range_path.FinishDrainRange(0, kWidth, r2.last_completion);
  sim::Time min_deadline = -1;
  for (int d = 0; d < kWidth; ++d) {
    EXPECT_EQ(loop_path.FinishDrain(d, v1[d].last_completion), -1);
    const sim::Time dl = loop_path.FinishDrain(d, v2[d].last_completion);
    if (dl >= 0 && (min_deadline < 0 || dl < min_deadline)) min_deadline = dl;
  }
  EXPECT_EQ(armed, min_deadline);
  for (int d = 0; d < kWidth; ++d) {
    EXPECT_EQ(range_path.state(d), loop_path.state(d));
    EXPECT_EQ(range_path.queue_depth(d), 0);
  }
}

}  // namespace
}  // namespace ustore
