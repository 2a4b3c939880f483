// AVX2 kernels: 4 × u64 lanes per coin block, 32 × u8 per bitmap block.
//
// This is the only translation unit in the tree compiled with -mavx2
// (CMakeLists sets it per-file), so nothing here may be visible inline to
// baseline TUs — see kernels_internal.h. When the toolchain cannot build
// AVX2 the #else branch forwards every symbol to the scalar reference, so
// the link never breaks and dispatch.cc reports the tier unavailable.
//
// Bit-identity notes (the contract tests in tests/simd/ depend on these):
//  * Mix64Vec reproduces rng.h's Mix64 lane-for-lane: the splitmix64
//    constant add, two xor-shift-multiply rounds, final xor-shift. AVX2 has
//    no 64-bit low multiply, so Mul64Lo assembles it from 32×32→64 partial
//    products — exact mod 2^64, which is all Mix64's wrapping multiply needs.
//  * The survivor compare uses the SIGNED _mm256_cmpgt_epi64: safe because
//    both operands are < 2^53 (hash >> 11 and CoinThreshold's range), far
//    below the sign bit.
//  * Survivor extraction walks the movemask lowest-bit-first, so indices
//    come out ascending — BFS pushes neighbors in the scalar visitation
//    order.

#include "simd/coin_kernels.h"
#include "simd/kernels_internal.h"

#ifdef __AVX2__

#include <immintrin.h>

namespace vulnds::simd::internal {

bool Avx2Compiled() { return true; }

namespace {

// a * b mod 2^64 per lane (vpmullq is AVX-512; emulate with 32-bit parts:
// lo(a)lo(b) + ((lo(a)hi(b) + hi(a)lo(b)) << 32), the carry-free form).
inline __m256i Mul64Lo(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i XorShiftRight(__m256i z, int shift) {
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, shift));
}

// Mix64(x) per lane, bit-identical to common/rng.h.
inline __m256i Mix64Vec(__m256i x) {
  __m256i z = _mm256_add_epi64(
      x, _mm256_set1_epi64x(static_cast<long long>(0x9E3779B97F4A7C15ULL)));
  z = Mul64Lo(XorShiftRight(z, 30),
              _mm256_set1_epi64x(static_cast<long long>(0xBF58476D1CE4E5B9ULL)));
  z = Mul64Lo(XorShiftRight(z, 27),
              _mm256_set1_epi64x(static_cast<long long>(0x94D049BB133111EBULL)));
  return XorShiftRight(z, 31);
}

// The 4-bit survivor mask of one block: lane i set iff
// (Mix64(inner[i] ^ seed) >> 11) < threshold[i].
inline int CoinBlockMask(__m256i seed_v, const uint64_t* inner,
                         const uint64_t* threshold) {
  const __m256i inner_v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inner));
  const __m256i thr_v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(threshold));
  const __m256i hash =
      _mm256_srli_epi64(Mix64Vec(_mm256_xor_si256(inner_v, seed_v)), 11);
  const __m256i lt = _mm256_cmpgt_epi64(thr_v, hash);
  return _mm256_movemask_pd(_mm256_castsi256_pd(lt));
}

}  // namespace

std::size_t CoinSurvivorsAvx2(uint64_t seed, const uint64_t* inner,
                              const uint64_t* threshold, std::size_t n,
                              bool padded, uint32_t* out,
                              CoinKernelStats* stats) {
  const __m256i seed_v =
      _mm256_set1_epi64x(static_cast<long long>(seed));
  std::size_t found = 0;
  // With padded columns the slots in [n, blocks * kCoinLanes) carry
  // threshold 0 and can never survive, so rounding the loop up is harmless
  // and leaves no scalar tail at all.
  const std::size_t blocks =
      padded ? (n + kCoinLanes - 1) / kCoinLanes : n / kCoinLanes;
  // Mix64's two dependent multiply rounds make one block a ~25-cycle latency
  // chain; a single-block loop runs at chain latency, not multiply
  // throughput. Four independent blocks in flight keep the multiply ports
  // busy, and merging their masks (block b at bits [4b, 4b+4)) keeps the
  // lowest-bit-first walk emitting survivors in ascending index order.
  std::size_t b = 0;
  for (; b + 4 <= blocks; b += 4) {
    const std::size_t base = b * kCoinLanes;
    const unsigned m0 = static_cast<unsigned>(
        CoinBlockMask(seed_v, inner + base, threshold + base));
    const unsigned m1 = static_cast<unsigned>(CoinBlockMask(
        seed_v, inner + base + kCoinLanes, threshold + base + kCoinLanes));
    const unsigned m2 = static_cast<unsigned>(
        CoinBlockMask(seed_v, inner + base + 2 * kCoinLanes,
                      threshold + base + 2 * kCoinLanes));
    const unsigned m3 = static_cast<unsigned>(
        CoinBlockMask(seed_v, inner + base + 3 * kCoinLanes,
                      threshold + base + 3 * kCoinLanes));
    unsigned mask = m0 | (m1 << 4) | (m2 << 8) | (m3 << 12);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[found++] = static_cast<uint32_t>(base + lane);
      mask &= mask - 1;
    }
  }
  if (b + 2 <= blocks) {
    const std::size_t base = b * kCoinLanes;
    const unsigned m0 = static_cast<unsigned>(
        CoinBlockMask(seed_v, inner + base, threshold + base));
    const unsigned m1 = static_cast<unsigned>(CoinBlockMask(
        seed_v, inner + base + kCoinLanes, threshold + base + kCoinLanes));
    unsigned mask = m0 | (m1 << 4);
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[found++] = static_cast<uint32_t>(base + lane);
      mask &= mask - 1;
    }
    b += 2;
  }
  if (b < blocks) {
    const std::size_t base = b * kCoinLanes;
    int mask = CoinBlockMask(seed_v, inner + base, threshold + base);
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      out[found++] = static_cast<uint32_t>(base + lane);
      mask &= mask - 1;
    }
  }
  if (stats != nullptr) stats->batched_coins += blocks * kCoinLanes;
  if (!padded) {
    const std::size_t done = blocks * kCoinLanes;
    uint32_t tail[kCoinLanes];
    const std::size_t tail_found = CoinSurvivorsScalar(
        seed, inner + done, threshold + done, n - done, tail, stats);
    for (std::size_t i = 0; i < tail_found; ++i) {
      out[found++] = static_cast<uint32_t>(done) + tail[i];
    }
  }
  return found;
}

void HashBatchAvx2(uint64_t seed, uint64_t base, std::size_t n, uint64_t* out,
                   CoinKernelStats* stats) {
  const __m256i seed_v = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i ramp = _mm256_set_epi64x(3, 2, 1, 0);
  const std::size_t blocks = n / kCoinLanes;
  // Hash64(id) = Mix64(Mix64(id + C) ^ seed). The "+ C" of the inner round
  // is IN ADDITION to Mix64's own leading gamma add (Mix64Vec supplies
  // only the latter), so it is folded into the lane base here — modular
  // add, same wraparound as the scalar CoinInnerHash. Two blocks per
  // iteration for the same latency-hiding reason as CoinSurvivorsAvx2 (the
  // chain here is twice as long: two chained Mix64 rounds per lane).
  std::size_t b = 0;
  auto lane_base = [&](std::size_t block) {
    return _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(
            base + block * kCoinLanes + 0x9E3779B97F4A7C15ULL)),
        ramp);
  };
  for (; b + 2 <= blocks; b += 2) {
    const __m256i h0 =
        Mix64Vec(_mm256_xor_si256(Mix64Vec(lane_base(b)), seed_v));
    const __m256i h1 =
        Mix64Vec(_mm256_xor_si256(Mix64Vec(lane_base(b + 1)), seed_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b * kCoinLanes), h0);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + (b + 1) * kCoinLanes), h1);
  }
  for (; b < blocks; ++b) {
    const __m256i hash =
        Mix64Vec(_mm256_xor_si256(Mix64Vec(lane_base(b)), seed_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b * kCoinLanes),
                        hash);
  }
  if (stats != nullptr) stats->batched_coins += blocks * kCoinLanes;
  const std::size_t done = blocks * kCoinLanes;
  HashBatchScalar(seed, base + done, n - done, out + done, stats);
}

std::size_t FindActiveAvx2(const unsigned char* flags,
                           const unsigned char* veto, std::size_t n,
                           uint32_t* out) {
  constexpr std::size_t kBlock = 32;
  const __m256i zero = _mm256_setzero_si256();
  std::size_t found = 0;
  const std::size_t blocks = n / kBlock;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * kBlock;
    const __m256i f =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(flags + base));
    // active byte ⟺ flag != 0 && veto == 0.
    __m256i active = _mm256_cmpeq_epi8(f, zero);  // 0xFF where flag == 0
    if (veto != nullptr) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(veto + base));
      active = _mm256_or_si256(active,
                               _mm256_xor_si256(_mm256_cmpeq_epi8(v, zero),
                                                _mm256_set1_epi8(-1)));
    }
    // `active` now marks INACTIVE bytes; invert via movemask complement.
    unsigned mask = ~static_cast<unsigned>(_mm256_movemask_epi8(active));
    while (mask != 0) {
      const int lane = __builtin_ctz(mask);
      out[found++] = static_cast<uint32_t>(base + lane);
      mask &= mask - 1;
    }
  }
  const std::size_t done = blocks * kBlock;
  uint32_t tail[kBlock];
  const std::size_t tail_found =
      FindActiveScalar(flags + done, veto == nullptr ? nullptr : veto + done,
                       n - done, tail);
  for (std::size_t i = 0; i < tail_found; ++i) {
    out[found++] = static_cast<uint32_t>(done) + tail[i];
  }
  return found;
}

void AccumulateCountsAvx2(uint32_t* counts, const unsigned char* flags,
                          std::size_t n) {
  constexpr std::size_t kBlock = 8;  // 8 × u8 widened to 8 × u32
  const std::size_t blocks = n / kBlock;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t base = b * kBlock;
    const __m128i f8 = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(flags + base));
    const __m256i wide = _mm256_cvtepu8_epi32(f8);
    __m256i c =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(counts + base));
    c = _mm256_add_epi32(c, wide);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + base), c);
  }
  const std::size_t done = blocks * kBlock;
  AccumulateCountsScalar(counts + done, flags + done, n - done);
}

}  // namespace vulnds::simd::internal

#else  // !__AVX2__: forward to the scalar reference so the link holds.

namespace vulnds::simd::internal {

bool Avx2Compiled() { return false; }

std::size_t CoinSurvivorsAvx2(uint64_t seed, const uint64_t* inner,
                              const uint64_t* threshold, std::size_t n,
                              bool /*padded*/, uint32_t* out,
                              CoinKernelStats* stats) {
  return CoinSurvivorsScalar(seed, inner, threshold, n, out, stats);
}

void HashBatchAvx2(uint64_t seed, uint64_t base, std::size_t n, uint64_t* out,
                   CoinKernelStats* stats) {
  HashBatchScalar(seed, base, n, out, stats);
}

std::size_t FindActiveAvx2(const unsigned char* flags,
                           const unsigned char* veto, std::size_t n,
                           uint32_t* out) {
  return FindActiveScalar(flags, veto, n, out);
}

void AccumulateCountsAvx2(uint32_t* counts, const unsigned char* flags,
                          std::size_t n) {
  AccumulateCountsScalar(counts, flags, n);
}

}  // namespace vulnds::simd::internal

#endif  // __AVX2__
