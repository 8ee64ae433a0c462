#include "common/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

#include "common/hash.h"

namespace ustore {
namespace {

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Four consecutive outputs of a splitmix64 generator seeded with `seed`.
  for (auto& s : s_) {
    s = SplitMix64(seed);
    seed += kSplitMixGamma;
  }
}

std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(NextU64());  // full range
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::NextNormal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::Fork() { return Rng(NextU64()); }

std::uint64_t SeedFromId(const std::string& id) { return Fnv1a(id); }

}  // namespace ustore
