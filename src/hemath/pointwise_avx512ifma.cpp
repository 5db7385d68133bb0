// AVX-512 IFMA Barrett pointwise mulmod for q < 2^50. Compiled with
// -mavx512f -mavx512dq -mavx512ifma (see CMakeLists); pointwise.cpp only
// calls in when the active level is kAvx512Ifma, q < 2^50 is not a power of
// two, and n >= 8.
//
// The AVX2 kernel's Barrett reduction (pointwise_avx2.cpp) with 2^52 in
// place of 2^64, so every product is one vpmadd52{lo,hi}uq instead of an
// emulated 64x64->128 multiply. With s = bitlen(q) <= 50 and a, b < q:
//   x    = a*b < q^2 < 2^(2s), held as (hi52, lo52) = (x >> 52, x mod 2^52);
//   c1   = x >> (s-1) < 2^(s+1) <= 2^51;
//   mu   = floor(2^(52+s-1) / q) < 2^52   (q > 2^(s-1): not a power of two);
//   quot = hi52(c1 * mu) = floor(c1 * mu / 2^52).
// c1*mu/2^52 <= x/q, so quot <= floor(x/q); and c1*mu/2^52 > x/q - 2^(s-1)/q
// - x/2^(51+s) > x/q - 3/2 (x < 2^(2s), s <= 50), so floor(x/q) - quot <= 2.
// Hence r = x - quot*q lies in [0, 3q) with 3q < 2^52, so it equals
// (lo52(x) - lo52(quot*q)) mod 2^52, and two conditional subtracts
// (min_epu64(r, r - q): r - q wraps above r when r < q) give the canonical
// residue — the same value mul_mod computes, hence bit-identical outputs.
// The accumulate adds it to acc < q and makes one more correction.
#include "hemath/pointwise.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include <immintrin.h>

#include <bit>

namespace flash::hemath::detail {

namespace {

inline __m512i set1u64(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }

/// r - q where r >= q, else r.
inline __m512i csub(__m512i r, __m512i q) { return _mm512_min_epu64(r, _mm512_sub_epi64(r, q)); }

struct Barrett52 {
  __m512i q;
  __m512i neg_q;     // 2^52 - q: adding lo52(quot * neg_q) subtracts quot*q mod 2^52
  __m512i mu;        // floor(2^(52+s-1) / q)
  __m512i mask52;    // 2^52 - 1
  __m128i shift_lo;  // s - 1
  __m128i shift_hi;  // 52 - (s - 1)
};

inline Barrett52 make_barrett52(u64 q) {
  const int s = static_cast<int>(std::bit_width(q));
  Barrett52 b;
  b.q = set1u64(q);
  b.neg_q = set1u64((u64{1} << 52) - q);
  b.mu = set1u64(static_cast<u64>((u128{1} << (52 + s - 1)) / q));
  b.mask52 = set1u64((u64{1} << 52) - 1);
  b.shift_lo = _mm_cvtsi32_si128(s - 1);
  b.shift_hi = _mm_cvtsi32_si128(52 - (s - 1));
  return b;
}

/// (a*b) mod q per lane; a, b < q < 2^50.
inline __m512i mulmod8(__m512i a, __m512i b, const Barrett52& bar) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i lo = _mm512_madd52lo_epu64(zero, a, b);
  const __m512i hi = _mm512_madd52hi_epu64(zero, a, b);
  const __m512i c1 = _mm512_or_si512(_mm512_srl_epi64(lo, bar.shift_lo),
                                     _mm512_sll_epi64(hi, bar.shift_hi));
  const __m512i quot = _mm512_madd52hi_epu64(zero, c1, bar.mu);
  __m512i r = _mm512_and_si512(_mm512_madd52lo_epu64(lo, quot, bar.neg_q), bar.mask52);
  r = csub(r, bar.q);
  return csub(r, bar.q);
}

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }

inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

}  // namespace

void pointwise_mulmod_ifma(const u64* a, const u64* b, u64* c, std::size_t n, u64 q) {
  const Barrett52 bar = make_barrett52(q);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store(c + i, mulmod8(load(a + i), load(b + i), bar));
  for (; i < n; ++i) c[i] = mul_mod(a[i], b[i], q);
}

void pointwise_mulmod_accumulate_ifma(u64* acc, const u64* a, const u64* b, std::size_t n,
                                      u64 q) {
  const Barrett52 bar = make_barrett52(q);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i prod = mulmod8(load(a + i), load(b + i), bar);
    store(acc + i, csub(_mm512_add_epi64(load(acc + i), prod), bar.q));
  }
  for (; i < n; ++i) acc[i] = add_mod(acc[i], mul_mod(a[i], b[i], q), q);
}

}  // namespace flash::hemath::detail

#else  // No AVX-512 IFMA in this compiler/arch: unreachable stubs (dispatch never selects it).

#include <cstdlib>

namespace flash::hemath::detail {
void pointwise_mulmod_ifma(const u64*, const u64*, u64*, std::size_t, u64) { std::abort(); }
void pointwise_mulmod_accumulate_ifma(u64*, const u64*, const u64*, std::size_t, u64) {
  std::abort();
}
}  // namespace flash::hemath::detail

#endif
