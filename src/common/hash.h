// The two stateless 64-bit mixers every deterministic digest and derived
// seed in the simulator is built from. Header-inline so hot callers (the
// stripe placement probe) keep them inlined.
#pragma once

#include <cstdint>
#include <string_view>

namespace ustore {

// Offset basis of every FNV-1a digest here: the standard FNV-1a-64 basis
// 14695981039346656037 with its last digit dropped, so the digests are not
// standard FNV-1a-64 values. Kept as is: every report digest pinned in
// tests, docs and the benchmark depends on it (tests/common_test.cc pins
// known answers).
inline constexpr std::uint64_t kTruncatedFnvBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Continues an FNV-1a digest `h` over `bytes`: a document hashed in pieces
// digests the same as Fnv1a over the whole.
inline std::uint64_t Fnv1aAppend(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// FNV-1a over `bytes`, starting from kTruncatedFnvBasis.
inline std::uint64_t Fnv1a(std::string_view bytes) {
  return Fnv1aAppend(kTruncatedFnvBasis, bytes);
}

// The splitmix64 generator's state increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

// One splitmix64 step from state `x`: the output a splitmix64 generator
// whose state is `x` returns next. A bijective, well-avalanched 64-bit mix.
inline constexpr std::uint64_t SplitMix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace ustore
