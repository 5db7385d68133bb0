// Negacyclic number-theoretic transform over Z_q[X]/(X^N+1).
//
// Implements the standard merged-ψ NTT: the forward transform is a
// Cooley-Tukey butterfly network with powers of the primitive 2N-th root ψ
// folded into the twiddle factors, producing the evaluation of the polynomial
// at the odd powers of ψ. The inverse is a Gentleman-Sande network with ψ^-1
// and a final scaling by N^-1. Pointwise multiplication in this domain equals
// negacyclic convolution, which is the PolyMul at the heart of BFV HConv.
//
// Every transform runs Harvey's lazy-reduction butterflies with Shoup
// multiplication (hemath/simd_batch): each twiddle w carries a precomputed
// w' = floor(w * 2^64 / q), so a modular product is two 64-bit multiplies
// and a subtraction, and coefficients stay below 4q between stages. Outputs
// are reduced to canonical residues, so they are bit-identical to the
// full-reduction loop (ntt_forward_exact/ntt_inverse_exact below), which
// remains only as the q >= 2^61 fallback and as the tests' exact oracle.
//
// Kernel dispatch, per call (ARCHITECTURE.md §11):
//   * q < 2^50, n >= 16, level kAvx512Ifma → the IFMA kernel
//     (ntt_avx512ifma.cpp), vectorized inside one polynomial with 52-bit
//     Shoup products. Its bound: lazy values stay below 4q < 2^52, the
//     IFMA multiplier width. Its companions are the 64-bit ones shifted
//     right by 12 — floor(floor(w*2^64/q) / 2^12) = floor(w*2^52/q) — so it
//     costs no table and no division. Batches run as a loop of in-place
//     singles.
//   * q < 2^61 otherwise → the scalar Harvey network for singles and the
//     SoA lane-batched kernels (hemath/simd_batch.hpp) for batches.
//   * q >= 2^61 → the exact loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scratch.hpp"
#include "hemath/modular.hpp"

namespace flash::hemath {

namespace simd_batch {
struct NttStageTables;
}  // namespace simd_batch

/// Precomputed tables for a fixed (q, N) pair. Construction cost is O(N);
/// reuse tables across transforms of the same ring.
class NttTables {
 public:
  /// q must be prime with q ≡ 1 (mod 2N); N a power of two.
  NttTables(u64 q, std::size_t n);

  u64 modulus() const { return q_; }
  std::size_t degree() const { return n_; }
  u64 psi() const { return psi_; }

  /// Bit-reversed twiddle tables ψ^bitrev(i) / ψ^-bitrev(i) and N^-1 mod q.
  std::span<const u64> psi_br() const { return psi_br_; }
  std::span<const u64> psi_inv_br() const { return psi_inv_br_; }
  u64 n_inv() const { return n_inv_; }

  /// In-place forward negacyclic NTT. Input in standard order, output in
  /// bit-reversed order (matching the paper's Fig. 3 DIT dataflow). Never
  /// allocates.
  void forward(std::span<u64> a) const;
  void forward(std::vector<u64>& a) const { forward(std::span<u64>(a)); }

  /// In-place inverse: accepts bit-reversed order, returns standard order.
  void inverse(std::span<u64> a) const;
  void inverse(std::vector<u64>& a) const { inverse(std::span<u64>(a)); }

  /// Batched in-place transforms over same-ring polynomials (each pointer is
  /// n coefficients): one SoA butterfly stage sweeps the whole batch, so
  /// twiddles are loaded once per batch instead of once per polynomial —
  /// except on the IFMA kernel, which runs each polynomial in place.
  /// Outputs are bit-identical to a loop of forward()/inverse() calls at
  /// every SIMD level (enforced by tests/test_batch_transforms.cpp).
  /// Scratch comes from `arena` (nullptr → the calling thread's arena);
  /// steady state performs zero heap allocations. Falls back to the exact
  /// per-polynomial loop when q >= 2^61 (outside the Harvey lazy bound).
  void forward_batch_into(std::span<u64* const> polys,
                          core::ScratchArena* arena = nullptr) const;
  void inverse_batch_into(std::span<u64* const> polys,
                          core::ScratchArena* arena = nullptr) const;

  /// True when forward/inverse and the batch entry points take the IFMA
  /// kernel (hemath/ntt_avx512ifma.cpp) at the active SIMD level: q < 2^50,
  /// n >= 16 and the level is kAvx512Ifma. Otherwise they take the lazy
  /// Shoup kernels (q < 2^61) or the exact loop.
  bool uses_ifma_kernel() const;

  /// Pointwise product c[i] = a[i]*b[i] mod q (vectorized, hemath/pointwise).
  /// The span form writes into caller-sized storage and never allocates.
  void pointwise(std::span<const u64> a, std::span<const u64> b, std::span<u64> c) const;
  void pointwise(const std::vector<u64>& a, const std::vector<u64>& b,
                 std::vector<u64>& c) const {
    c.resize(n_);
    pointwise(std::span<const u64>(a), std::span<const u64>(b), std::span<u64>(c));
  }

 private:
  simd_batch::NttStageTables forward_stages() const;
  simd_batch::NttStageTables inverse_stages() const;

  u64 q_;
  std::size_t n_;
  int log_n_;
  u64 psi_;       // primitive 2N-th root of unity
  u64 n_inv_;     // N^-1 mod q
  std::vector<u64> psi_br_;      // ψ^bitrev(i), forward twiddles
  std::vector<u64> psi_inv_br_;  // ψ^-bitrev(i), inverse twiddles
  // Shoup companions for the lazy kernels (hemath/simd_batch); populated
  // only when q < 2^61 (shoup_ok_), otherwise every transform is exact.
  bool shoup_ok_ = false;
  u64 n_inv_shoup_ = 0;
  std::vector<u64> psi_br_shoup_;
  std::vector<u64> psi_inv_br_shoup_;
};

/// Negacyclic polynomial multiplication via NTT: c = a*b mod (X^N+1, q).
/// Convenience wrapper; allocates. a and b must have size N.
std::vector<u64> negacyclic_multiply(const NttTables& tables,
                                     const std::vector<u64>& a,
                                     const std::vector<u64>& b);

/// Full-reduction transforms over `tables`' twiddles: every butterfly is
/// reduced through a 128-bit mul_mod. Same orders and outputs as
/// NttTables::forward/inverse; NttTables falls back to them for q >= 2^61,
/// and the tests hold the lazy production path bit-equal to them.
void ntt_forward_exact(const NttTables& tables, std::span<u64> a);
void ntt_inverse_exact(const NttTables& tables, std::span<u64> a);

/// Schoolbook negacyclic multiplication (O(N^2)); the correctness oracle.
std::vector<u64> negacyclic_multiply_schoolbook(u64 q, const std::vector<u64>& a,
                                                const std::vector<u64>& b);

}  // namespace flash::hemath
