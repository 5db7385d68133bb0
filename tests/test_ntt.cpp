// Negacyclic NTT: inverse property, convolution theorem vs schoolbook,
// linearity, and ring identities; the lazy-reduction (Shoup/Harvey)
// production path held bit-identical to the full-reduction exact loop,
// including at the edge of the Harvey bound and on the q >= 2^61 fallback;
// the IFMA kernel held bit-identical to it for q < 2^50.
#include <gtest/gtest.h>

#include <random>

#include "hemath/ntt.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd.hpp"

namespace flash::hemath {
namespace {

std::vector<u64> random_poly(std::size_t n, u64 q, std::mt19937_64& rng) {
  std::vector<u64> a(n);
  for (auto& x : a) x = rng() % q;
  return a;
}

class NttTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    n_ = GetParam();
    q_ = find_ntt_prime(45, n_);
    tables_ = std::make_unique<NttTables>(q_, n_);
  }
  std::size_t n_;
  u64 q_;
  std::unique_ptr<NttTables> tables_;
};

TEST_P(NttTest, ForwardInverseIsIdentity) {
  std::mt19937_64 rng(11);
  const auto a = random_poly(n_, q_, rng);
  auto b = a;
  tables_->forward(b);
  EXPECT_NE(a, b);  // transform must do something
  tables_->inverse(b);
  EXPECT_EQ(a, b);
}

TEST_P(NttTest, ConvolutionMatchesSchoolbook) {
  std::mt19937_64 rng(12);
  const auto a = random_poly(n_, q_, rng);
  const auto b = random_poly(n_, q_, rng);
  EXPECT_EQ(negacyclic_multiply(*tables_, a, b), negacyclic_multiply_schoolbook(q_, a, b));
}

TEST_P(NttTest, MultiplyByOneIsIdentity) {
  std::mt19937_64 rng(13);
  const auto a = random_poly(n_, q_, rng);
  std::vector<u64> one(n_, 0);
  one[0] = 1;
  EXPECT_EQ(negacyclic_multiply(*tables_, a, one), a);
}

TEST_P(NttTest, MultiplyByXShiftsAndNegatesWraparound) {
  std::mt19937_64 rng(14);
  const auto a = random_poly(n_, q_, rng);
  std::vector<u64> x(n_, 0);
  x[1] = 1;
  const auto c = negacyclic_multiply(*tables_, a, x);
  // a * X = a[0] X + ... + a[N-1] X^N = -a[N-1] + a[0] X + ...
  EXPECT_EQ(c[0], neg_mod(a[n_ - 1], q_));
  for (std::size_t i = 1; i < n_; ++i) EXPECT_EQ(c[i], a[i - 1]);
}

TEST_P(NttTest, XToNIsMinusOne) {
  // (X^(N/2))^2 = X^N = -1 in the ring.
  std::vector<u64> half(n_, 0);
  half[n_ / 2] = 1;
  const auto c = negacyclic_multiply(*tables_, half, half);
  std::vector<u64> minus_one(n_, 0);
  minus_one[0] = q_ - 1;
  EXPECT_EQ(c, minus_one);
}

TEST_P(NttTest, TransformIsLinear) {
  std::mt19937_64 rng(15);
  auto a = random_poly(n_, q_, rng);
  auto b = random_poly(n_, q_, rng);
  std::vector<u64> sum(n_);
  for (std::size_t i = 0; i < n_; ++i) sum[i] = add_mod(a[i], b[i], q_);
  tables_->forward(a);
  tables_->forward(b);
  tables_->forward(sum);
  for (std::size_t i = 0; i < n_; ++i) EXPECT_EQ(sum[i], add_mod(a[i], b[i], q_));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttTest,
                         ::testing::Values(std::size_t{8}, std::size_t{64}, std::size_t{256},
                                           std::size_t{2048}));

TEST(Ntt, RejectsWrongModulus) {
  EXPECT_THROW(NttTables(17, 64), std::invalid_argument);  // 17 != 1 mod 128
}

TEST(Ntt, RejectsNonPowerOfTwo) {
  EXPECT_THROW(NttTables(find_ntt_prime(30, 64), 48), std::invalid_argument);
}

TEST(Ntt, SchoolbookSparseInputs) {
  // Sparse polynomials exercise the skip-zero fast path.
  const u64 q = find_ntt_prime(30, 32);
  NttTables tables(q, 32);
  std::vector<u64> a(32, 0), b(32, 0);
  a[3] = 5;
  b[30] = 7;
  const auto expect = negacyclic_multiply_schoolbook(q, a, b);
  // X^3 * X^30 = X^33 = -X^1.
  std::vector<u64> manual(32, 0);
  manual[1] = neg_mod(35 % q, q);
  EXPECT_EQ(expect, manual);
  EXPECT_EQ(negacyclic_multiply(tables, a, b), manual);
}

// --- Lazy-reduction path vs the exact full-reduction loop ---------------

class ShoupNtt : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ShoupNtt, MatchesReferenceForward) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  NttTables tables(q, n);
  std::mt19937_64 rng(n * 3 + bits);
  std::vector<u64> a = random_poly(n, q, rng);
  std::vector<u64> b = a;
  ntt_forward_exact(tables, a);
  tables.forward(b);
  EXPECT_EQ(a, b);
}

TEST_P(ShoupNtt, InverseRoundTrip) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  NttTables tables(q, n);
  std::mt19937_64 rng(n * 5 + bits);
  const std::vector<u64> a = random_poly(n, q, rng);
  std::vector<u64> b = a;
  tables.forward(b);
  tables.inverse(b);
  EXPECT_EQ(a, b);
}

TEST_P(ShoupNtt, OutputsFullyReduced) {
  const auto [bits, n] = GetParam();
  const u64 q = find_ntt_prime(bits, n);
  NttTables tables(q, n);
  std::mt19937_64 rng(n * 7 + bits);
  std::vector<u64> a = random_poly(n, q, rng);
  tables.forward(a);
  for (u64 x : a) EXPECT_LT(x, q);
  tables.inverse(a);
  for (u64 x : a) EXPECT_LT(x, q);
}

INSTANTIATE_TEST_SUITE_P(Cases, ShoupNtt,
                         ::testing::Combine(::testing::Values(30, 45, 59),
                                            ::testing::Values(std::size_t{8}, std::size_t{256},
                                                              std::size_t{4096})));

TEST(ShoupNttEdge, ExtremeCoefficients) {
  const std::size_t n = 64;
  const u64 q = find_ntt_prime(59, n);
  NttTables tables(q, n);
  std::vector<u64> a(n, q - 1);  // all coefficients at the modulus edge
  a[0] = 0;
  std::vector<u64> b = a;
  ntt_forward_exact(tables, a);
  tables.forward(b);
  EXPECT_EQ(a, b);
}

TEST(ShoupNttEdge, RejectsBadParameters) {
  EXPECT_THROW(NttTables(17, 64), std::invalid_argument);
  EXPECT_THROW(NttTables(find_ntt_prime(30, 64), 48), std::invalid_argument);
  const NttTables tables(find_ntt_prime(30, 64), 64);
  std::vector<u64> short_poly(32, 0);
  EXPECT_THROW(tables.forward(short_poly), std::invalid_argument);
  EXPECT_THROW(ntt_forward_exact(tables, short_poly), std::invalid_argument);
  EXPECT_THROW(ntt_inverse_exact(tables, short_poly), std::invalid_argument);
}

TEST(ShoupNttEdge, ConvolutionAgreesWithReference) {
  const std::size_t n = 128;
  const u64 q = find_ntt_prime(50, n);
  NttTables tables(q, n);
  std::mt19937_64 rng(99);
  const std::vector<u64> a = random_poly(n, q, rng);
  const std::vector<u64> b = random_poly(n, q, rng);
  // Pointwise products of exact-loop spectra, inverted by the lazy path.
  std::vector<u64> fa = a, fb = b;
  ntt_forward_exact(tables, fa);
  ntt_forward_exact(tables, fb);
  std::vector<u64> prod(n);
  for (std::size_t i = 0; i < n; ++i) prod[i] = mul_mod(fa[i], fb[i], q);
  tables.inverse(prod);
  EXPECT_EQ(prod, negacyclic_multiply_schoolbook(q, a, b));
}

// --- Harvey-bound edge: the largest NTT primes the lazy path accepts ------

/// Largest prime q < 2^bits with q ≡ 1 (mod 2n). At bits = 61 it is the
/// widest modulus the 64-bit lazy kernels run (their coefficients reach 4q,
/// which must stay below 2^64); at bits = 50, the widest the IFMA kernel
/// runs (4q must stay below 2^52).
u64 largest_ntt_prime_below(int bits, std::size_t n) {
  const u64 step = 2 * static_cast<u64>(n);
  u64 q = (u64{1} << bits) - step + 1;  // step divides 2^bits
  while (!is_prime(q)) q -= step;
  return q;
}

/// Forward, inverse and round trip of `input` under `tables`, each
/// bit-identical to the exact loop.
void expect_matches_exact(const NttTables& tables, const std::vector<u64>& input) {
  std::vector<u64> fwd = input, fwd_ref = input;
  tables.forward(fwd);
  ntt_forward_exact(tables, fwd_ref);
  ASSERT_EQ(fwd, fwd_ref) << "forward, n=" << tables.degree() << " q=" << tables.modulus();
  std::vector<u64> inv = input, inv_ref = input;
  tables.inverse(inv);
  ntt_inverse_exact(tables, inv_ref);
  ASSERT_EQ(inv, inv_ref) << "inverse, n=" << tables.degree() << " q=" << tables.modulus();
  tables.inverse(fwd);
  ASSERT_EQ(fwd, input) << "round trip, n=" << tables.degree() << " q=" << tables.modulus();
}

TEST(HarveyBound, LargestLazyPrimeMatchesExactAtEveryDegree) {
  for (std::size_t n = 2; n <= 32768; n *= 2) {
    const u64 q = largest_ntt_prime_below(61, n);
    ASSERT_LT(q, u64{1} << 61);
    ASSERT_GT(q, u64{1} << 60);
    const NttTables tables(q, n);
    std::mt19937_64 rng(n * 13 + 1);
    expect_matches_exact(tables, std::vector<u64>(n, q - 1));
    expect_matches_exact(tables, random_poly(n, q, rng));
  }
}

TEST(HarveyBound, PrimeAbove2To61TakesExactFallback) {
  for (std::size_t n : {std::size_t{2}, std::size_t{64}, std::size_t{4096}}) {
    const u64 q = find_ntt_prime(62, n);
    ASSERT_GE(q, u64{1} << 61);
    const NttTables tables(q, n);
    std::mt19937_64 rng(n * 17 + 2);
    expect_matches_exact(tables, std::vector<u64>(n, q - 1));
    expect_matches_exact(tables, random_poly(n, q, rng));
  }
  // The fallback is a correct ring multiply, not merely self-consistent.
  const std::size_t n = 64;
  const u64 q = find_ntt_prime(62, n);
  const NttTables tables(q, n);
  std::mt19937_64 rng(3);
  const std::vector<u64> a = random_poly(n, q, rng);
  const std::vector<u64> b = random_poly(n, q, rng);
  EXPECT_EQ(negacyclic_multiply(tables, a, b), negacyclic_multiply_schoolbook(q, a, b));
}

// --- IFMA kernel: q < 2^50 inside one polynomial ---------------------------

/// All q-1, alternating 0/q-1, and uniform random residues.
std::vector<std::vector<u64>> ifma_inputs(std::size_t n, u64 q, std::mt19937_64& rng) {
  std::vector<u64> alternating(n);
  for (std::size_t i = 0; i < n; ++i) alternating[i] = (i % 2 == 0) ? 0 : q - 1;
  return {std::vector<u64>(n, q - 1), alternating, random_poly(n, q, rng)};
}

TEST(IfmaNtt, BitIdenticalToExactLoopsFrom16To8192) {
  if (!simd::cpu_has_avx512ifma()) GTEST_SKIP() << "CPU lacks AVX512IFMA (vpmadd52luq/huq)";
  const simd::ScopedSimdLevel level(simd::SimdLevel::kAvx512Ifma);
  for (std::size_t n = 16; n <= 8192; n *= 2) {
    std::mt19937_64 rng(n * 19 + 5);
    for (const u64 q : {largest_ntt_prime_below(50, n), find_ntt_prime(49, n), find_ntt_prime(44, n),
                        find_ntt_prime(30, n)}) {
      ASSERT_LT(q, u64{1} << 50);
      const NttTables tables(q, n);
      ASSERT_TRUE(tables.uses_ifma_kernel()) << "n=" << n << " q=" << q;
      for (const auto& input : ifma_inputs(n, q, rng)) expect_matches_exact(tables, input);
    }
  }
}

TEST(IfmaNtt, OutsideItsRangeTheLazyKernelRuns) {
  if (!simd::cpu_has_avx512ifma()) GTEST_SKIP() << "CPU lacks AVX512IFMA (vpmadd52luq/huq)";
  const simd::ScopedSimdLevel level(simd::SimdLevel::kAvx512Ifma);
  // q >= 2^50 (the smallest NTT prime above the bound) and n < 16.
  for (const std::size_t n : {std::size_t{64}, std::size_t{4096}}) {
    const u64 q = next_prime_congruent(u64{1} << 50, 2 * n);
    const NttTables tables(q, n);
    EXPECT_FALSE(tables.uses_ifma_kernel()) << "n=" << n;
    std::mt19937_64 rng(n + 7);
    for (const auto& input : ifma_inputs(n, q, rng)) expect_matches_exact(tables, input);
  }
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const NttTables tables(largest_ntt_prime_below(50, n), n);
    EXPECT_FALSE(tables.uses_ifma_kernel()) << "n=" << n;
  }
  // Below the IFMA level the same tables take the lazy kernel.
  const simd::ScopedSimdLevel lower(simd::SimdLevel::kAvx512);
  EXPECT_FALSE(NttTables(largest_ntt_prime_below(50, 4096), 4096).uses_ifma_kernel());
}

}  // namespace
}  // namespace flash::hemath
