#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace ustore {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("disk d3");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "disk d3");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: disk d3");
}

TEST(StatusTest, AllErrorConstructorsProduceDistinctCodes) {
  std::vector<Status> statuses = {
      NotFoundError(""),       AlreadyExistsError(""),
      InvalidArgumentError(""), FailedPreconditionError(""),
      UnavailableError(""),    DeadlineExceededError(""),
      ConflictError(""),       AbortedError(""),
      ResourceExhaustedError(""), InternalError(""),
  };
  std::set<StatusCode> codes;
  for (const auto& s : statuses) {
    EXPECT_FALSE(s.ok());
    codes.insert(s.code());
  }
  EXPECT_EQ(codes.size(), statuses.size());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = UnavailableError("down");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// --- Units -------------------------------------------------------------------

TEST(UnitsTest, SizeHelpers) {
  EXPECT_EQ(KiB(4), 4096);
  EXPECT_EQ(MiB(1), 1048576);
  EXPECT_EQ(TB(3), 3'000'000'000'000LL);
  EXPECT_EQ(PB(10), 10'000'000'000'000'000LL);
}

TEST(UnitsTest, RateHelpers) {
  EXPECT_DOUBLE_EQ(MBps(300), 3e8);
  EXPECT_DOUBLE_EQ(ToMBps(MBps(123.4)), 123.4);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(KiB(4)), "4.0 KiB");
  EXPECT_EQ(FormatBytes(MiB(4)), "4.0 MiB");
  EXPECT_EQ(FormatBytes(TB(3)), "3.0 TB");
  EXPECT_EQ(FormatBytes(512), "512 B");
}

// --- Hash mixers ---------------------------------------------------------------

// Every report digest, trace digest and derived seed is built from these
// two functions, so an edit that changes them moves every pinned digest.
TEST(HashTest, KnownAnswers) {
  EXPECT_EQ(Fnv1a(""), 0x14650fb0739d0383ULL);  // = kTruncatedFnvBasis
  EXPECT_EQ(Fnv1a("a"), 0x44bd8ad473cd9906ULL);
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SeedFromId("a"), Fnv1a("a"));
  // Rng seeds its xoshiro state from consecutive splitmix64 outputs.
  EXPECT_EQ(Rng(0).NextU64(), 0x53175d61490b23dfULL);
  EXPECT_EQ(Rng(42).NextU64(), 0xd0764d4f4476689fULL);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextNormal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng a(23);
  Rng child_a = a.Fork();
  Rng b(23);
  Rng child_b = b.Fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(child_a.NextU64(), child_b.NextU64());
  }
}

// --- Logging -------------------------------------------------------------------

TEST(LoggingTest, RespectsThresholdAndSink) {
  auto& logger = Logger::Instance();
  std::vector<std::pair<LogLevel, std::string>> lines;
  logger.set_sink([&](LogLevel level, const std::string& message) {
    lines.emplace_back(level, message);
  });
  logger.set_threshold(LogLevel::kWarning);

  USTORE_LOG(Info) << "hidden";
  USTORE_LOG(Warning) << "shown " << 42;
  USTORE_LOG(Error) << "also shown";

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].second, "shown 42");
  EXPECT_EQ(lines[1].first, LogLevel::kError);

  logger.set_sink(nullptr);
}

}  // namespace
}  // namespace ustore
