#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace vulnds {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDoubleOpen() {
  // (x + 0.5) / 2^53 lies strictly inside (0, 1).
  return (static_cast<double>(NextU64() >> 11) + 0.5) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  // NaN compares false against everything, so without this check it would
  // fall through to NextDouble() < NaN — returning false but consuming a
  // draw, silently shifting every later coin in the stream. Return false
  // without touching the state instead.
  if (std::isnan(p)) return false;
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  unsigned __int128 m =
      static_cast<unsigned __int128>(NextU64()) * static_cast<unsigned __int128>(bound);
  auto lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    const uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      m = static_cast<unsigned __int128>(NextU64()) *
          static_cast<unsigned __int128>(bound);
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextRange(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::NextGaussian() {
  // Box–Muller; NextDoubleOpen avoids log(0).
  const double u1 = NextDoubleOpen();
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork(uint64_t index) const {
  // Derive the child seed from (parent seed, index) only, independent of the
  // parent's draw history, so parallel work is schedule-invariant.
  return Rng(Mix64(seed_ ^ Mix64(index + 0xA511E9B3CD8F3B27ULL)));
}

}  // namespace vulnds
