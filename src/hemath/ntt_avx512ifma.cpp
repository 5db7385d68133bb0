// Harvey NTT vectorized inside one polynomial with AVX-512 IFMA. Separate TU
// compiled with -mavx512f -mavx512dq -mavx512ifma; NttTables only calls in
// when q < 2^50, n >= 16 and the active level is kAvx512Ifma.
//
// The modular product is a 52-bit Shoup multiply (Intel HEXL's form,
// arXiv:2103.16400): with w' = floor(w * 2^52 / q) — the 64-bit companion
// shifted right by 12, which is exact — and x < 2^52,
//   Q = hi52(x * w'),  r = (lo52(x * w) - lo52(Q * q)) mod 2^52,
// and r = x*w - Q*q lies in [0, 2q) (the proof is the 64-bit one with
// 2^52 in place of 2^64). The forward butterfly is the scalar Harvey one of
// simd_batch.cpp; the inverse keeps its values in [0, 2q) as HEXL does and
// folds N^-1 into its last stage. Values stay below 4q < 2^52, so every
// multiplicand fits the 52-bit IFMA inputs, and the final reduction makes
// the outputs canonical — bit-identical to ntt_forward_exact and
// ntt_inverse_exact even though the in-flight representatives differ.
//
// Stages with t >= 8 are straight 8-wide loops with a broadcast twiddle.
// The three stages with t = 4, 2, 1 run fused on 16 contiguous coefficients
// held in two registers: _mm512_permutex2var_epi64 regroups them into the
// X (even half) and Y (odd half) lanes of each stage, and each stage's
// twiddles come from one contiguous load of the bit-reversed table plus a
// permute that repeats each twiddle over its block — no per-stage tables.
#include "hemath/simd_batch.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include <immintrin.h>

namespace flash::hemath::simd_batch::detail {

namespace {

constexpr int kShoupShift = 64 - 52;  // 64-bit Shoup companion -> 52-bit

inline __m512i set1u64(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

inline __m512i idx(long long a, long long b, long long c, long long d, long long e, long long f,
                   long long g, long long h) {
  return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

// Conditional subtract: lanes with x >= m become x - m.
inline __m512i csub(__m512i x, __m512i m) {
  return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, m), x, m);
}

// x*w mod q with 52-bit Shoup companion ws; requires x < 2^52, lands in
// [0, 2q). neg_q holds 2^52 - q, so the accumulate subtracts Q*q mod 2^52.
inline __m512i mul_lazy(__m512i x, __m512i w, __m512i ws, __m512i neg_q, __m512i mask52) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i quot = _mm512_madd52hi_epu64(zero, x, ws);
  const __m512i xw = _mm512_madd52lo_epu64(zero, x, w);
  return _mm512_and_si512(_mm512_madd52lo_epu64(xw, quot, neg_q), mask52);
}

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }

inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

// The 2/4/8 twiddles of one 16-coefficient group, repeated over their
// blocks: a contiguous (masked) load and, for 2 and 4, one permute.
inline __m512i twiddles2(const u64* p) {
  return _mm512_permutexvar_epi64(idx(0, 0, 0, 0, 1, 1, 1, 1), _mm512_maskz_loadu_epi64(0x03, p));
}

inline __m512i twiddles4(const u64* p) {
  return _mm512_permutexvar_epi64(idx(0, 0, 1, 1, 2, 2, 3, 3), _mm512_maskz_loadu_epi64(0x0f, p));
}

struct Consts {
  __m512i q, two_q, neg_q, mask52;
  explicit Consts(u64 modulus)
      : q(set1u64(modulus)),
        two_q(set1u64(2 * modulus)),
        neg_q(set1u64((u64{1} << 52) - modulus)),
        mask52(set1u64((u64{1} << 52) - 1)) {}
};

// Forward CT butterfly on lanes X (first half) and Y (second half).
inline void fwd_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i ws, const Consts& c) {
  const __m512i u = csub(x, c.two_q);
  const __m512i v = mul_lazy(y, w, ws, c.neg_q, c.mask52);  // < 2q
  x = _mm512_add_epi64(u, v);                                // < 4q
  y = _mm512_add_epi64(u, _mm512_sub_epi64(c.two_q, v));     // < 4q
}

// Inverse GS butterfly on values in [0, 2q) (HEXL's invariant, one
// conditional subtract per butterfly instead of the scalar network's two):
// X' = X + Y and Y' = (X - Y) * w, both again in [0, 2q).
inline void inv_butterfly(__m512i& x, __m512i& y, __m512i w, __m512i ws, const Consts& c) {
  const __m512i diff = _mm512_add_epi64(x, _mm512_sub_epi64(c.two_q, y));  // < 4q
  x = csub(_mm512_add_epi64(x, y), c.two_q);
  y = mul_lazy(diff, w, ws, c.neg_q, c.mask52);
}

// 52-bit Shoup companions of a vector of 64-bit ones.
inline __m512i shoup52(__m512i ws64) { return _mm512_srli_epi64(ws64, kShoupShift); }

}  // namespace

void ntt_forward_ifma(u64* a, std::size_t n, const NttStageTables& tb) {
  const Consts c(tb.q);
  std::size_t t = n;
  std::size_t m = 1;
  for (; t > 8; m <<= 1) {
    t >>= 1;
    for (std::size_t i = 0; i < m; ++i) {
      const __m512i w = set1u64(tb.w[m + i]);
      const __m512i ws = set1u64(tb.ws[m + i] >> kShoupShift);
      u64* xp = a + 2 * i * t;
      u64* yp = xp + t;
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i x = load(xp + j);
        __m512i y = load(yp + j);
        fwd_butterfly(x, y, w, ws, c);
        store(xp + j, x);
        store(yp + j, y);
      }
    }
  }
  // Stages t = 4, 2, 1 (m = n/8, n/4, n/2), fused over 16 coefficients.
  const std::size_t m4 = n / 8, m2 = n / 4, m1 = n / 2;
  const __m512i lo_halves = idx(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i hi_halves = idx(4, 5, 6, 7, 12, 13, 14, 15);
  const __m512i to_t2_x = idx(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i to_t2_y = idx(2, 3, 10, 11, 6, 7, 14, 15);
  const __m512i to_t1_x = idx(0, 8, 2, 10, 4, 12, 6, 14);
  const __m512i to_t1_y = idx(1, 9, 3, 11, 5, 13, 7, 15);
  const __m512i interleave_lo = idx(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i interleave_hi = idx(4, 12, 5, 13, 6, 14, 7, 15);
  for (std::size_t base = 0; base < n; base += 16) {
    const __m512i v0 = load(a + base);
    const __m512i v1 = load(a + base + 8);
    // t = 4: lanes hold positions {0..3, 8..11} (X) and {4..7, 12..15} (Y).
    __m512i x = _mm512_permutex2var_epi64(v0, lo_halves, v1);
    __m512i y = _mm512_permutex2var_epi64(v0, hi_halves, v1);
    fwd_butterfly(x, y, twiddles2(tb.w + m4 + base / 8),
                  shoup52(twiddles2(tb.ws + m4 + base / 8)), c);
    // t = 2: X = positions {0,1,4,5,8,9,12,13}, Y = {2,3,6,7,10,11,14,15}.
    __m512i x2 = _mm512_permutex2var_epi64(x, to_t2_x, y);
    __m512i y2 = _mm512_permutex2var_epi64(x, to_t2_y, y);
    fwd_butterfly(x2, y2, twiddles4(tb.w + m2 + base / 4),
                  shoup52(twiddles4(tb.ws + m2 + base / 4)), c);
    // t = 1: X = even positions, Y = odd positions.
    x = _mm512_permutex2var_epi64(x2, to_t1_x, y2);
    y = _mm512_permutex2var_epi64(x2, to_t1_y, y2);
    fwd_butterfly(x, y, load(tb.w + m1 + base / 2), shoup52(load(tb.ws + m1 + base / 2)), c);
    // Canonical outputs: [0, 4q) -> [0, q).
    x = csub(csub(x, c.two_q), c.q);
    y = csub(csub(y, c.two_q), c.q);
    store(a + base, _mm512_permutex2var_epi64(x, interleave_lo, y));
    store(a + base + 8, _mm512_permutex2var_epi64(x, interleave_hi, y));
  }
}

void ntt_inverse_ifma(u64* a, std::size_t n, const NttStageTables& tb) {
  const Consts c(tb.q);
  // Stages t = 1, 2, 4 (h = n/2, n/4, n/8), fused over 16 coefficients; the
  // permutes are the forward ones in reverse.
  const std::size_t h1 = n / 2, h2 = n / 4, h4 = n / 8;
  const __m512i evens = idx(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odds = idx(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i to_t2_x = idx(0, 8, 2, 10, 4, 12, 6, 14);
  const __m512i to_t2_y = idx(1, 9, 3, 11, 5, 13, 7, 15);
  const __m512i to_t4_x = idx(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i to_t4_y = idx(2, 3, 10, 11, 6, 7, 14, 15);
  const __m512i lo_halves = idx(0, 1, 2, 3, 8, 9, 10, 11);
  const __m512i hi_halves = idx(4, 5, 6, 7, 12, 13, 14, 15);
  for (std::size_t base = 0; base < n; base += 16) {
    const __m512i v0 = load(a + base);
    const __m512i v1 = load(a + base + 8);
    __m512i x = _mm512_permutex2var_epi64(v0, evens, v1);
    __m512i y = _mm512_permutex2var_epi64(v0, odds, v1);
    inv_butterfly(x, y, load(tb.w + h1 + base / 2), shoup52(load(tb.ws + h1 + base / 2)), c);
    __m512i x2 = _mm512_permutex2var_epi64(x, to_t2_x, y);
    __m512i y2 = _mm512_permutex2var_epi64(x, to_t2_y, y);
    inv_butterfly(x2, y2, twiddles4(tb.w + h2 + base / 4),
                  shoup52(twiddles4(tb.ws + h2 + base / 4)), c);
    x = _mm512_permutex2var_epi64(x2, to_t4_x, y2);
    y = _mm512_permutex2var_epi64(x2, to_t4_y, y2);
    inv_butterfly(x, y, twiddles2(tb.w + h4 + base / 8),
                  shoup52(twiddles2(tb.ws + h4 + base / 8)), c);
    store(a + base, _mm512_permutex2var_epi64(x, lo_halves, y));
    store(a + base + 8, _mm512_permutex2var_epi64(x, hi_halves, y));
  }
  const std::size_t half = n / 2;
  for (std::size_t t = 8; t < half; t <<= 1) {
    const std::size_t h = n / (2 * t);
    for (std::size_t i = 0; i < h; ++i) {
      const __m512i w = set1u64(tb.w[h + i]);
      const __m512i ws = set1u64(tb.ws[h + i] >> kShoupShift);
      u64* xp = a + 2 * i * t;
      u64* yp = xp + t;
      for (std::size_t j = 0; j < t; j += 8) {
        __m512i x = load(xp + j);
        __m512i y = load(yp + j);
        inv_butterfly(x, y, w, ws, c);
        store(xp + j, x);
        store(yp + j, y);
      }
    }
  }
  // Last stage (t = n/2, one block) with the N^-1 scale folded in, so no
  // separate scaling pass: X' = (X + Y) / N and Y' = ((X - Y) * w) / N,
  // reduced to canonical residues.
  const __m512i w = set1u64(tb.w[1]);
  const __m512i ws = set1u64(tb.ws[1] >> kShoupShift);
  const __m512i ni = set1u64(tb.n_inv);
  const __m512i nis = set1u64(tb.n_inv_shoup >> kShoupShift);
  for (std::size_t j = 0; j < half; j += 8) {
    const __m512i x = load(a + j);
    const __m512i y = load(a + half + j);
    const __m512i diff = _mm512_add_epi64(x, _mm512_sub_epi64(c.two_q, y));  // < 4q
    const __m512i sum = _mm512_add_epi64(x, y);                              // < 4q
    const __m512i yw = mul_lazy(diff, w, ws, c.neg_q, c.mask52);             // < 2q
    store(a + j, csub(mul_lazy(sum, ni, nis, c.neg_q, c.mask52), c.q));
    store(a + half + j, csub(mul_lazy(yw, ni, nis, c.neg_q, c.mask52), c.q));
  }
}

}  // namespace flash::hemath::simd_batch::detail

#else  // No AVX-512 IFMA in this compiler/arch: unreachable stubs (dispatch never selects it).

#include <cstdlib>

namespace flash::hemath::simd_batch::detail {
void ntt_forward_ifma(u64*, std::size_t, const NttStageTables&) { std::abort(); }
void ntt_inverse_ifma(u64*, std::size_t, const NttStageTables&) { std::abort(); }
}  // namespace flash::hemath::simd_batch::detail

#endif
