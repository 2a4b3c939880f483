// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library draws from Rng, a xoshiro256++
// generator seeded through splitmix64. Sub-streams derived with
// Rng::Fork(index) are statistically independent and depend only on
// (seed, index), which makes parallel sampling bit-identical to serial
// sampling regardless of thread count.

#ifndef VULNDS_COMMON_RNG_H_
#define VULNDS_COMMON_RNG_H_

#include <cstdint>

namespace vulnds {

/// One-shot splitmix64 finalizer applied to `x` (stateless mixing): the
/// output of SplitMix64 from state `x`. Inline because every world coin
/// costs one or two of these in a dependent chain (simd/coin_kernels.h).
inline uint64_t Mix64(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and for stateless per-index hashing.
inline uint64_t SplitMix64(uint64_t* state) {
  const uint64_t x = *state;
  *state += 0x9E3779B97F4A7C15ULL;
  return Mix64(x);
}

/// xoshiro256++ generator with convenience distributions.
///
/// Not thread-safe; create one Rng per thread (see Fork).
class Rng {
 public:
  /// Seeds the generator; the full 256-bit state is expanded from `seed`
  /// through splitmix64 so that nearby seeds give unrelated streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next raw 64-bit output.
  uint64_t NextU64();

  /// Returns a uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  /// Returns a uniform double in the open interval (0, 1); never 0.
  double NextDoubleOpen();

  /// Returns true with probability `p` (clamped to [0, 1]). NaN
  /// deterministically returns false without consuming a draw, so a
  /// poisoned probability can never flip a coin or shift the stream.
  bool Bernoulli(double p);

  /// Returns a uniform integer in [0, bound); bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in [lo, hi).
  double NextRange(double lo, double hi);

  /// Returns a standard normal variate (Box–Muller, no caching).
  double NextGaussian();

  /// Returns an independent generator for sub-stream `index`; deterministic
  /// in (this generator's seed, index) and independent of draw history.
  Rng Fork(uint64_t index) const;

 private:
  uint64_t s_[4];
  uint64_t seed_;  // retained so Fork is history-independent
};

}  // namespace vulnds

#endif  // VULNDS_COMMON_RNG_H_
