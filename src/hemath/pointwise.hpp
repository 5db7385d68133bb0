// Vectorized RNS pointwise modular multiplication.
//
// The spectral-domain inner loop of every NTT-backed PolyMul is
// c[i] = a[i]*b[i] mod q (optionally accumulated). The scalar mul_mod takes
// a 128-bit remainder per element — a library soft-division on x86-64. Two
// vector kernels compute the same exact residue with a Barrett reduction
// whose constant is precomputed per call:
//   * AVX-512 IFMA (pointwise_avx512ifma.cpp), for q < 2^50 at kAvx512Ifma:
//     eight lanes on 52-bit limbs, each product one vpmadd52{lo,hi}uq;
//   * AVX2 (pointwise_avx2.cpp), for every other q < 2^62 at kAvx2 and up:
//     four lanes with an emulated 64x64->128 multiply.
// Both land the unique representative in [0, q) (the bounds are in each
// TU's header comment), so every level is bit-identical to the scalar path
// by construction. Arrays shorter than 8 and power-of-two q stay scalar.
// Dispatch follows hemath/simd.hpp.
#pragma once

#include <cstddef>

#include "hemath/modular.hpp"

namespace flash::hemath {

/// c[i] = a[i]*b[i] mod q for i in [0, n). Inputs must be < q; q < 2^62.
/// a, b, c may alias elementwise (c == a is fine).
void pointwise_mulmod(const u64* a, const u64* b, u64* c, std::size_t n, u64 q);

/// acc[i] = (acc[i] + a[i]*b[i]) mod q for i in [0, n).
void pointwise_mulmod_accumulate(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q);

namespace detail {
/// AVX2 kernels (defined in pointwise_avx2.cpp, compiled with -mavx2).
/// Callers must check simd::active_simd_level() first.
void pointwise_mulmod_avx2(const u64* a, const u64* b, u64* c, std::size_t n, u64 q);
void pointwise_mulmod_accumulate_avx2(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q);
/// AVX-512 IFMA kernels (pointwise_avx512ifma.cpp); q < 2^50, not a power
/// of two, and the active level must be kAvx512Ifma.
void pointwise_mulmod_ifma(const u64* a, const u64* b, u64* c, std::size_t n, u64 q);
void pointwise_mulmod_accumulate_ifma(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q);
}  // namespace detail

}  // namespace flash::hemath
