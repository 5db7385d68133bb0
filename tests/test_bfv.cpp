// BFV scheme: encrypt/decrypt round trips, homomorphic add/sub,
// plaintext multiplication across all three PolyMul backends, and noise
// budget behaviour (the kernel-level robustness of paper §III-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "bfv/noise.hpp"
#include "core/flash_accelerator.hpp"
#include "hemath/primes.hpp"
#include "hemath/simd.hpp"

namespace flash::bfv {
namespace {

BfvParams test_params() { return BfvParams::create(1024, 16, 45); }

struct Fixture {
  BfvContext ctx;
  hemath::Sampler sampler;
  KeyGenerator keygen;
  SecretKey sk;
  PublicKey pk;
  Encryptor enc;
  Decryptor dec;

  explicit Fixture(std::uint64_t seed = 99)
      : ctx(test_params()), sampler(seed), keygen(ctx, sampler), sk(keygen.secret_key()),
        pk(keygen.public_key(sk)), enc(ctx, sampler), dec(ctx, sk) {}
};

std::vector<i64> random_values(std::size_t count, i64 lo, i64 hi, std::mt19937_64& rng) {
  std::uniform_int_distribution<i64> dist(lo, hi);
  std::vector<i64> v(count);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(BfvParams, CreateAndValidate) {
  const BfvParams p = test_params();
  EXPECT_EQ(p.n, 1024u);
  EXPECT_EQ(p.t, u64{1} << 16);
  EXPECT_TRUE(hemath::is_prime(p.q));
  EXPECT_EQ((p.q - 1) % 2048, 0u);
  EXPECT_GT(p.noise_ceiling_bits(), 25.0);
}

TEST(BfvParams, RejectsBadCombos) {
  BfvParams p = test_params();
  p.q = p.q + 1;  // not prime / wrong congruence
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = test_params();
  p.t = p.q;  // q must exceed 2t
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(BfvParams, SecurityEstimateTracksHeStandard) {
  // HE-standard anchors: (N, max log q) at 128-bit security.
  EXPECT_NEAR(estimated_security_bits(1024, 27), 128.0, 2.0);
  EXPECT_NEAR(estimated_security_bits(4096, 109), 127.0, 5.0);
  // Bigger q at fixed N weakens; bigger N at fixed q strengthens.
  EXPECT_LT(estimated_security_bits(4096, 150), estimated_security_bits(4096, 109));
  EXPECT_GT(estimated_security_bits(8192, 109), estimated_security_bits(4096, 109));
  // Our default experiment set (N=4096, 49-bit q) is far above 128 bits.
  EXPECT_GT(estimated_security_bits(4096, 49), 128.0);
}

TEST(Bfv, EncodeDecodeSigned) {
  Fixture f;
  std::mt19937_64 rng(1);
  const auto vals = random_values(f.ctx.params().n, -1000, 1000, rng);
  const Plaintext pt = f.ctx.encode_signed(vals);
  EXPECT_EQ(f.ctx.decode_signed(pt), vals);
}

TEST(Bfv, EncodeRejectsOutOfRange) {
  Fixture f;
  const i64 big = static_cast<i64>(f.ctx.params().t);
  EXPECT_THROW(f.ctx.encode_signed({big}), std::out_of_range);
}

TEST(Bfv, SymmetricEncryptDecrypt) {
  Fixture f;
  std::mt19937_64 rng(2);
  const auto vals = random_values(f.ctx.params().n, -30000, 30000, rng);
  const Plaintext pt = f.ctx.encode_signed(vals);
  const Ciphertext ct = f.enc.encrypt_symmetric(pt, f.sk);
  EXPECT_EQ(f.ctx.decode_signed(f.dec.decrypt(ct)), vals);
}

TEST(Bfv, PublicKeyEncryptDecrypt) {
  Fixture f;
  std::mt19937_64 rng(3);
  const auto vals = random_values(f.ctx.params().n, -30000, 30000, rng);
  const Plaintext pt = f.ctx.encode_signed(vals);
  const Ciphertext ct = f.enc.encrypt(pt, f.pk);
  EXPECT_EQ(f.ctx.decode_signed(f.dec.decrypt(ct)), vals);
}

TEST(Bfv, FreshNoiseBudgetPositiveAndPredicted) {
  Fixture f;
  std::mt19937_64 rng(4);
  const Plaintext pt = f.ctx.encode_signed(random_values(f.ctx.params().n, -100, 100, rng));
  const Ciphertext ct = f.enc.encrypt(pt, f.pk);
  const double budget = f.dec.invariant_noise_budget(ct);
  EXPECT_GT(budget, 5.0);
  EXPECT_LT(budget, f.ctx.params().noise_ceiling_bits());
}

TEST(Bfv, HomomorphicAddSub) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  std::mt19937_64 rng(5);
  const auto va = random_values(f.ctx.params().n, -10000, 10000, rng);
  const auto vb = random_values(f.ctx.params().n, -10000, 10000, rng);
  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  const Ciphertext cb = f.enc.encrypt(f.ctx.encode_signed(vb), f.pk);
  ev.add_inplace(ca, cb);
  auto got = f.ctx.decode_signed(f.dec.decrypt(ca));
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], va[i] + vb[i]);
  ev.sub_inplace(ca, cb);
  got = f.ctx.decode_signed(f.dec.decrypt(ca));
  EXPECT_EQ(got, va);
}

TEST(Bfv, AddSubPlain) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  std::mt19937_64 rng(6);
  const auto va = random_values(f.ctx.params().n, -10000, 10000, rng);
  const auto vb = random_values(f.ctx.params().n, -10000, 10000, rng);
  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  ev.add_plain_inplace(ca, f.ctx.encode_signed(vb));
  auto got = f.ctx.decode_signed(f.dec.decrypt(ca));
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], va[i] + vb[i]);
  ev.sub_plain_inplace(ca, f.ctx.encode_signed(vb));
  EXPECT_EQ(f.ctx.decode_signed(f.dec.decrypt(ca)), va);
}

TEST(Bfv, NegateIsAdditiveInverse) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  std::mt19937_64 rng(7);
  const auto va = random_values(f.ctx.params().n, -100, 100, rng);
  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  ev.negate_inplace(ca);
  const auto got = f.ctx.decode_signed(f.dec.decrypt(ca));
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], -va[i]);
}

class MultiplyPlainBackend : public ::testing::TestWithParam<PolyMulBackend> {};

TEST_P(MultiplyPlainBackend, SparseWeightPolyMulDecryptsExactly) {
  Fixture f;
  const auto& p = f.ctx.params();
  std::optional<fft::FxpFftConfig> cfg;
  if (GetParam() == PolyMulBackend::kApproxFft) {
    // The no-retraining operating point (k = 18): errors land far below one
    // message LSB, so the result is bit-exact.
    cfg = core::high_accuracy_approx_config(p.n, p.t);
  }
  Evaluator ev(f.ctx, GetParam(), cfg);

  std::mt19937_64 rng(8);
  // Activation-like plaintext: small positive values.
  const auto va = random_values(p.n, 0, 15, rng);
  // Weight-like sparse plaintext: 72 nonzeros of 4-bit weights.
  std::vector<i64> vw(p.n, 0);
  for (int i = 0; i < 72; ++i) {
    i64 w = static_cast<i64>(rng() % 15) - 7;
    if (w == 0) w = 1;
    vw[rng() % p.n] = w;
  }

  Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  const Ciphertext prod = ev.multiply_plain(ca, f.ctx.encode_signed(vw));

  // Expected: negacyclic product mod t.
  hemath::Poly pa(p.t, p.n), pw(p.t, p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    pa[i] = hemath::from_signed(va[i], p.t);
    pw[i] = hemath::from_signed(vw[i], p.t);
  }
  const hemath::Poly expect = hemath::multiply_schoolbook(pa, pw);

  const Plaintext got = f.dec.decrypt(prod);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    if (got.poly[i] != expect[i]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "backend produced wrong coefficients";
  EXPECT_GT(f.dec.invariant_noise_budget(prod), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, MultiplyPlainBackend,
                         ::testing::Values(PolyMulBackend::kNtt, PolyMulBackend::kFft,
                                           PolyMulBackend::kApproxFft));

TEST(Bfv, ApproxSpectrumErrorScalesWithKeyWrap) {
  // Reproduction finding (documented in DESIGN.md): the paper's kernel-level
  // argument treats approximate-FFT error as additive ciphertext noise, but
  // in a faithful BFV implementation the weight-spectrum error delta is
  // multiplied by the *ciphertext-scale* elements c0, c1 before decryption
  // recombines them mod q. The residual error after decryption scales with
  // the plaintext modulus t (roughly t/8 rms at the paper's k = 5 point),
  // NOT with the message magnitude. Bit-exactness needs the high-accuracy
  // configuration — which this test also verifies.
  Fixture f;
  const auto& p = f.ctx.params();
  Evaluator exact(f.ctx, PolyMulBackend::kNtt);
  Evaluator approx_k5(f.ctx, PolyMulBackend::kApproxFft, core::default_approx_config(p.n, p.t));
  Evaluator approx_hi(f.ctx, PolyMulBackend::kApproxFft,
                      core::high_accuracy_approx_config(p.n, p.t));

  std::mt19937_64 rng(77);
  const auto va = random_values(p.n, 0, 15, rng);
  std::vector<i64> vw(p.n, 0);
  for (int i = 0; i < 72; ++i) vw[rng() % p.n] = static_cast<i64>(rng() % 15) - 7;
  const Plaintext ptw = f.ctx.encode_signed(vw);

  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  const auto ref = f.ctx.decode_signed(f.dec.decrypt(exact.multiply_plain(ca, ptw)));
  const auto got_k5 = f.ctx.decode_signed(f.dec.decrypt(approx_k5.multiply_plain(ca, ptw)));
  const auto got_hi = f.ctx.decode_signed(f.dec.decrypt(approx_hi.multiply_plain(ca, ptw)));

  i64 max_err_k5 = 0, max_err_hi = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_err_k5 = std::max(max_err_k5, std::abs(got_k5[i] - ref[i]));
    max_err_hi = std::max(max_err_hi, std::abs(got_hi[i] - ref[i]));
  }
  EXPECT_GT(max_err_k5, 0);  // k = 5 is not exact under faithful BFV
  EXPECT_LT(max_err_k5, static_cast<i64>(p.t) / 2);  // bounded by the sharing modulus
  EXPECT_EQ(max_err_hi, 0);  // the 48-bit/k=20 configuration is bit-exact
}

TEST(Bfv, MultiplyPlainNoiseGrowsWithWeightNorm) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kNtt);
  const auto& p = f.ctx.params();
  std::mt19937_64 rng(9);
  const auto va = random_values(p.n, 0, 15, rng);
  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  const double fresh = f.dec.invariant_noise_budget(ca);

  std::vector<i64> sparse(p.n, 0), dense_w(p.n, 0);
  for (int i = 0; i < 9; ++i) sparse[rng() % p.n] = 7;
  for (std::size_t i = 0; i < p.n; ++i) dense_w[i] = 7;
  const double after_sparse =
      f.dec.invariant_noise_budget(ev.multiply_plain(ca, f.ctx.encode_signed(sparse)));
  const double after_dense =
      f.dec.invariant_noise_budget(ev.multiply_plain(ca, f.ctx.encode_signed(dense_w)));
  EXPECT_LT(after_sparse, fresh);
  EXPECT_LT(after_dense, after_sparse);  // larger l1 norm, more noise
}

TEST(Bfv, EngineCountsOperations) {
  Fixture f;
  Evaluator ev(f.ctx, PolyMulBackend::kFft);
  std::mt19937_64 rng(10);
  const auto va = random_values(f.ctx.params().n, 0, 15, rng);
  std::vector<i64> vw(f.ctx.params().n, 0);
  vw[3] = 2;
  const Ciphertext ca = f.enc.encrypt(f.ctx.encode_signed(va), f.pk);
  const PlainSpectrum spec = ev.transform_plain(f.ctx.encode_signed(vw));
  (void)ev.multiply_plain(ca, spec);
  (void)ev.multiply_plain(ca, spec);  // weight spectrum reused
  const auto& c = ev.engine().counters();
  EXPECT_EQ(c.plain_transforms, 1u);
  EXPECT_EQ(c.cipher_transforms, 4u);   // 2 ciphertexts x 2 elements
  EXPECT_EQ(c.inverse_transforms, 4u);
}

TEST(Bfv, NoiseHelpersAreConsistent) {
  const BfvParams p = test_params();
  const double fresh = predicted_fresh_noise_bits(p);
  EXPECT_GT(fresh, 0.0);
  const double after = predicted_plain_mult_noise_bits(p, fresh, 72, 8.0);
  EXPECT_GT(after, fresh);
  EXPECT_LT(after, p.noise_ceiling_bits());  // decryption still safe
  const double headroom = approx_error_headroom_bits(p, after);
  EXPECT_GT(headroom, 0.0);  // room for approximate-FFT error
}

TEST(Bfv, BackendMismatchThrows) {
  Fixture f;
  Evaluator ntt_ev(f.ctx, PolyMulBackend::kNtt);
  Evaluator fft_ev(f.ctx, PolyMulBackend::kFft);
  std::vector<i64> vw(f.ctx.params().n, 0);
  vw[0] = 1;
  const PlainSpectrum spec = ntt_ev.transform_plain(f.ctx.encode_signed(vw));
  const Ciphertext ca =
      f.enc.encrypt(f.ctx.encode_signed(std::vector<i64>(f.ctx.params().n, 1)), f.pk);
  EXPECT_THROW(fft_ev.multiply_plain(ca, spec), std::invalid_argument);
}

TEST(Bfv, ForeignBackendAccumulatorThrows) {
  Fixture f;
  const PolyMulEngine ntt(f.ctx, PolyMulBackend::kNtt);
  const PolyMulEngine fft(f.ctx, PolyMulBackend::kFft);
  std::vector<i64> vw(f.ctx.params().n, 0);
  vw[1] = 3;
  const Plaintext pw = f.ctx.encode_signed(vw);
  const Ciphertext ct = f.enc.encrypt(f.ctx.encode_signed(vw), f.pk);
  const PlainSpectrum ntt_w = ntt.transform_plain(pw);
  const CipherSpectrum ntt_ct = ntt.transform_cipher_spectrum(ct.c0);
  SpectralAccumulator fft_acc;
  fft.multiply_accumulate(fft.transform_cipher_spectrum(ct.c0), fft.transform_plain(pw), fft_acc);

  // A filled accumulator of another backend, either way round.
  EXPECT_THROW(ntt.multiply_accumulate(ntt_ct, ntt_w, fft_acc), std::invalid_argument);
  EXPECT_THROW((void)ntt.finalize(fft_acc), std::invalid_argument);
  SpectralAccumulator ntt_acc;
  ntt.multiply_accumulate(ntt_ct, ntt_w, ntt_acc);
  EXPECT_THROW((void)fft.finalize(ntt_acc), std::invalid_argument);
  // The right tag over the wrong store kind.
  SpectralAccumulator forged = fft_acc;
  forged.backend = PolyMulBackend::kNtt;
  EXPECT_THROW(ntt.multiply_accumulate(ntt_ct, ntt_w, forged), std::invalid_argument);
  EXPECT_THROW((void)ntt.finalize(forged), std::invalid_argument);
  // Foreign ciphertext or weight operands.
  SpectralAccumulator acc;
  EXPECT_THROW(ntt.multiply_accumulate(fft.transform_cipher_spectrum(ct.c0), ntt_w, acc),
               std::invalid_argument);
  EXPECT_THROW(ntt.multiply_accumulate(ntt_ct, fft.transform_plain(pw), acc),
               std::invalid_argument);
  // An accumulator that was never filled is empty, not a zero polynomial.
  EXPECT_TRUE(acc.empty());
  EXPECT_THROW((void)ntt.finalize(acc), std::invalid_argument);
}

TEST(Bfv, OtherDegreeSpectrumThrows) {
  Fixture f;  // n = 1024
  const BfvContext wide_ctx(BfvParams::create(2048, 16, 45));
  for (const PolyMulBackend b : {PolyMulBackend::kNtt, PolyMulBackend::kFft}) {
    const PolyMulEngine small(f.ctx, b);
    const PolyMulEngine large(wide_ctx, b);
    std::vector<i64> vw(f.ctx.params().n, 0);
    vw[2] = -5;
    const PlainSpectrum small_w = small.transform_plain(f.ctx.encode_signed(vw));
    const CipherSpectrum small_ct = small.transform_cipher_spectrum(f.ctx.make_ciphertext().c0);
    SpectralAccumulator small_acc;
    small.multiply_accumulate(small_ct, small_w, small_acc);

    const PlainSpectrum large_w = large.transform_plain(wide_ctx.encode_signed(vw));
    const CipherSpectrum large_ct = large.transform_cipher_spectrum(wide_ctx.make_ciphertext().c0);
    SpectralAccumulator acc;
    EXPECT_THROW((void)large.finalize(small_acc), std::invalid_argument);
    EXPECT_THROW(large.multiply_accumulate(large_ct, large_w, small_acc), std::invalid_argument);
    EXPECT_THROW(large.multiply_accumulate(small_ct, large_w, acc), std::invalid_argument);
    EXPECT_THROW(large.multiply_accumulate(large_ct, small_w, acc), std::invalid_argument);
    EXPECT_THROW((void)large.multiply(f.ctx.make_ciphertext().c0, large_w), std::invalid_argument);
    EXPECT_THROW((void)large.transform_plain(f.ctx.encode_signed(vw)), std::invalid_argument);
  }
}

TEST(Bfv, PublicKeyEncryptMatchesSchoolbookFormula) {
  // encrypt(pt, pk) and encrypt(pt, prepare_public_key(pk)) both equal
  // (p0*u + e1 + Delta*m, p1*u + e2) recomputed by schoolbook from a sampler
  // seeded like the encryptor's, drawing u, e1, e2 in that order.
  Fixture f;
  const auto& p = f.ctx.params();
  std::mt19937_64 rng(21);
  const Plaintext pt = f.ctx.encode_signed(random_values(p.n, -100, 100, rng));
  constexpr std::uint64_t kSeed = 0xe5c;
  hemath::Sampler replay(kSeed);
  const Poly u = replay.ternary_poly(p.q, p.n);
  Poly c0(p.q, hemath::negacyclic_multiply_schoolbook(p.q, f.pk.p0.coeffs(), u.coeffs()));
  c0.add_inplace(replay.gaussian_poly(p.q, p.n, p.error_sigma));
  c0.add_inplace(f.ctx.delta_scaled(pt));
  Poly c1(p.q, hemath::negacyclic_multiply_schoolbook(p.q, f.pk.p1.coeffs(), u.coeffs()));
  c1.add_inplace(replay.gaussian_poly(p.q, p.n, p.error_sigma));

  hemath::Sampler s1(kSeed), s2(kSeed);
  Encryptor by_key(f.ctx, s1), by_prepared(f.ctx, s2);
  const PreparedPublicKey ppk = prepare_public_key(f.ctx, f.pk);
  for (const Ciphertext& ct : {by_key.encrypt(pt, f.pk), by_prepared.encrypt(pt, ppk)}) {
    EXPECT_EQ(ct.c0.coeffs(), c0.coeffs());
    EXPECT_EQ(ct.c1.coeffs(), c1.coeffs());
    EXPECT_EQ(f.dec.decrypt(ct).poly.coeffs(), pt.poly.coeffs());
  }
}

TEST(Bfv, DecryptBatchMatchesDecryptAtEveryLaneRemainder) {
  // Counts cover every remainder of the 4-lane (AVX2) and 8-lane (AVX-512)
  // SoA groups, a batch of one (the in-place scalar kernel) at each level,
  // and the IFMA singles where the CPU has them.
  Fixture f;
  const auto& p = f.ctx.params();
  std::mt19937_64 rng(77);
  std::vector<Plaintext> pts;
  std::vector<Ciphertext> cts;
  for (std::size_t i = 0; i < 9; ++i) {
    pts.push_back(f.ctx.encode_signed(random_values(p.n, -1000, 1000, rng)));
    cts.push_back(f.enc.encrypt(pts.back(), f.pk));
  }
  using hemath::simd::SimdLevel;
  for (const SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kAvx512Ifma}) {
    const hemath::simd::ScopedSimdLevel scoped(level);
    for (const std::size_t count : {1, 2, 3, 4, 5, 7, 8, 9}) {
      const std::vector<Plaintext> got =
          f.dec.decrypt_batch(std::span<const Ciphertext>(cts.data(), count));
      ASSERT_EQ(got.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(got[i].poly.coeffs(), pts[i].poly.coeffs()) << "count " << count << " i " << i;
        EXPECT_EQ(got[i].poly.coeffs(), f.dec.decrypt(cts[i]).poly.coeffs());
      }
    }
  }
  // A ciphertext of another degree is refused before any transform runs.
  const Ciphertext half{Poly(p.q, p.n / 2), Poly(p.q, p.n / 2)};
  EXPECT_THROW((void)f.dec.decrypt(half), std::invalid_argument);
  const std::vector<Ciphertext> mixed{cts[0], half};
  EXPECT_THROW((void)f.dec.decrypt_batch(mixed), std::invalid_argument);
}

// delta_scaled skips the modular reduction below t (Delta*|m| <= q/2); it
// must agree with the general lift-and-multiply expression on every
// coefficient below t and on malformed ones >= t, for prime and
// power-of-two q.
void expect_delta_scaled_matches_formula(const BfvParams& params) {
  const BfvContext ctx(params);
  const u64 t = params.t;
  const u64 q = params.q;
  std::vector<u64> coeffs;
  for (u64 a = 0; a < t; ++a) coeffs.push_back(a);
  for (const u64 a : {t, t + 1, t + t / 2, 2 * t - 1, 2 * t, q - 1, q, ~u64{0}}) {
    coeffs.push_back(a);
  }
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) coeffs.push_back(t + rng() % (q - t));
  for (std::size_t base = 0; base < coeffs.size(); base += params.n) {
    Plaintext pt = ctx.make_plaintext();
    const std::size_t count = std::min<std::size_t>(params.n, coeffs.size() - base);
    for (std::size_t i = 0; i < count; ++i) pt.poly[i] = coeffs[base + i];
    const Poly out = ctx.delta_scaled(pt);
    for (std::size_t i = 0; i < count; ++i) {
      const u64 a = coeffs[base + i];
      const u64 expect =
          hemath::mul_mod(hemath::from_signed(hemath::to_signed(a, t), q), params.delta(), q);
      ASSERT_EQ(out[i], expect) << "a=" << a << " t=" << t << " q=" << q;
    }
  }
}

/// A 60-bit NTT prime q with an odd plaintext modulus t.
BfvParams odd_t_params(u64 t) {
  BfvParams p;
  p.n = 1024;
  p.t = t;
  p.q = hemath::find_ntt_prime(60, p.n);
  p.validate();
  return p;
}

TEST(Bfv, DeltaScaledMatchesLiftMultiplyFormula) {
  expect_delta_scaled_matches_formula(BfvParams::create(4096, 20, 49));
  expect_delta_scaled_matches_formula(odd_t_params(65537));
  expect_delta_scaled_matches_formula(BfvParams::create_pow2(2048, 16, 40));
  expect_delta_scaled_matches_formula(BfvParams::create_pow2(1024, 20, 62));
}

// Decrypt's integer rounding against the long double expression it replaced,
// llroundl(to_signed(v) * (t/q)). A ciphertext (v, 0) decrypts exactly its
// c0 = v. Inputs: uniform v, constructed near-ties 2tv = +-d (mod q) with
// |d| <= 64 (inside the long double fallback window), and integers next to
// (2k+1)q/2t (a few t away from a tie in 2q-scaled units, mostly outside it).
u64 llroundl_oracle(u64 v, const BfvParams& p) {
  const long double scale = static_cast<long double>(p.t) / static_cast<long double>(p.q);
  const long double c = static_cast<long double>(hemath::to_signed(v, p.q));
  return hemath::from_signed(static_cast<i64>(std::llroundl(c * scale)), p.t);
}

/// How often two window-free integer roundings disagree with the oracle on
/// one parameter set's inputs: exact rounding (half away from zero), and the
/// double-estimate candidate k accepted whenever its 2q-scaled remainder
/// lies in [0, 2q). Nonzero counts show the near-ties reach the window.
struct RoundingMisses {
  std::size_t exact = 0;
  std::size_t candidate = 0;
};

RoundingMisses window_free_misses(u64 v, const BfvParams& p, u64 oracle) {
  const i64 c = hemath::to_signed(v, p.q);
  const i64 a = c < 0 ? -c : c;
  const auto exact_mag = static_cast<i64>((2 * static_cast<hemath::u128>(a) * p.t + p.q) /
                                          (2 * static_cast<hemath::u128>(p.q)));
  const auto k = static_cast<i64>(static_cast<double>(a) * (static_cast<double>(p.t) /
                                                             static_cast<double>(p.q)) + 0.5);
  const __int128 d = static_cast<__int128>(2) * a * p.t + p.q - static_cast<__int128>(2) * k * p.q;
  const bool candidate_taken = d >= 0 && d < static_cast<__int128>(2) * p.q;
  RoundingMisses out;
  out.exact = hemath::from_signed(c < 0 ? -exact_mag : exact_mag, p.t) != oracle;
  out.candidate = candidate_taken && hemath::from_signed(c < 0 ? -k : k, p.t) != oracle;
  return out;
}

/// The rounding inputs named above, in order: edge values, 2n uniform, the
/// near-ties, and the integers next to (2k+1)q/2t.
std::vector<u64> rounding_inputs(const BfvParams& params) {
  const u64 q = params.q;
  const u64 t = params.t;
  std::mt19937_64 rng(11);
  std::vector<u64> inputs = {0, 1, q - 1, q / 2, q / 2 + 1};
  for (std::size_t i = 0; i < 2 * params.n; ++i) inputs.push_back(rng() % q);
  const u64 inv_2t = hemath::inv_mod((2 * t) % q, q);
  for (i64 d = -64; d <= 64; ++d) {
    inputs.push_back(hemath::mul_mod(hemath::from_signed(d, q), inv_2t, q));
  }
  for (int i = 0; i < 200; ++i) {
    const u64 k = rng() % t;  // t*v/q near k + 1/2, v rounded to an integer
    const auto tie = static_cast<u64>((static_cast<hemath::u128>(2 * k + 1) * q) / (2 * t));
    for (i64 delta = -2; delta <= 2; ++delta) {
      inputs.push_back(hemath::from_signed(static_cast<i64>(tie) + delta, q));
    }
  }
  return inputs;
}

/// Ciphertexts (v, 0), n inputs each (the last zero-padded): each decrypts
/// exactly its inputs.
std::vector<Ciphertext> trivial_ciphertexts(const BfvContext& ctx, const std::vector<u64>& inputs) {
  const std::size_t n = ctx.params().n;
  std::vector<Ciphertext> cts;
  for (std::size_t base = 0; base < inputs.size(); base += n) {
    Ciphertext& ct = cts.emplace_back(ctx.make_ciphertext());
    const std::size_t count = std::min<std::size_t>(n, inputs.size() - base);
    for (std::size_t i = 0; i < count; ++i) ct.c0[i] = inputs[base + i];
  }
  return cts;
}

RoundingMisses expect_decrypt_rounding_matches_llroundl(const BfvParams& params) {
  const BfvContext ctx(params);
  hemath::Sampler sampler(5);
  KeyGenerator keygen(ctx, sampler);
  const Decryptor dec(ctx, keygen.secret_key());
  const u64 q = params.q;
  const u64 t = params.t;
  const std::vector<u64> inputs = rounding_inputs(params);
  RoundingMisses misses;
  const std::vector<Ciphertext> cts = trivial_ciphertexts(ctx, inputs);
  for (std::size_t base = 0; base < inputs.size(); base += params.n) {
    const Plaintext pt = dec.decrypt(cts[base / params.n]);
    const std::size_t count = std::min<std::size_t>(params.n, inputs.size() - base);
    for (std::size_t i = 0; i < count; ++i) {
      const u64 v = inputs[base + i];
      const u64 oracle = llroundl_oracle(v, params);
      EXPECT_EQ(pt.poly[i], oracle) << "v=" << v << " t=" << t << " q=" << q;
      const RoundingMisses m = window_free_misses(v, params, oracle);
      misses.exact += m.exact;
      misses.candidate += m.candidate;
    }
  }
  return misses;
}

TEST(Bfv, DecryptRoundingMatchesLongDoubleOracle) {
  expect_decrypt_rounding_matches_llroundl(BfvParams::create(4096, 20, 49));
  // At a 60-bit q the long double quotient is coarse enough that exact
  // rounding disagrees with it on the constructed near-ties.
  EXPECT_GT(expect_decrypt_rounding_matches_llroundl(odd_t_params(65537)).exact, 0u);
  // With the batching prime t = 3*2^18 + 1 some of those near-ties get a
  // double-estimate candidate on the exact side while llroundl lands on the
  // other: only the fallback window returns the oracle's value there.
  EXPECT_GT(expect_decrypt_rounding_matches_llroundl(odd_t_params(786433)).candidate, 0u);
}

// decrypt_batch_at rounds only the positions asked for, with the routine
// decrypt_batch runs over every coefficient: on the rounding inputs above
// (the llroundl-fallback near-ties included) both agree at every position,
// in any order and with repeats.
TEST(Bfv, DecryptBatchAtEqualsDecryptBatchAtThosePositions) {
  for (const BfvParams& params :
       {BfvParams::create(4096, 20, 49), odd_t_params(65537), odd_t_params(786433)}) {
    const BfvContext ctx(params);
    hemath::Sampler sampler(5);
    KeyGenerator keygen(ctx, sampler);
    const Decryptor dec(ctx, keygen.secret_key());
    const std::vector<Ciphertext> cts = trivial_ciphertexts(ctx, rounding_inputs(params));
    const std::vector<Plaintext> full = dec.decrypt_batch(cts);
    // Every position, shuffled (each near-tie is read), and HConv's shape: a
    // strided subset, here descending with a repeat.
    std::vector<std::size_t> every(params.n);
    std::iota(every.begin(), every.end(), std::size_t{0});
    std::shuffle(every.begin(), every.end(), std::mt19937_64(3));
    std::vector<std::size_t> strided{7, 7};
    for (std::size_t pos = params.n - 1; pos >= 16; pos -= 16) strided.push_back(pos);
    for (const std::vector<std::size_t>& positions : {every, strided}) {
      const std::vector<std::vector<u64>> got = dec.decrypt_batch_at(cts, positions);
      ASSERT_EQ(got.size(), cts.size());
      for (std::size_t c = 0; c < cts.size(); ++c) {
        ASSERT_EQ(got[c].size(), positions.size());
        for (std::size_t j = 0; j < positions.size(); ++j) {
          ASSERT_EQ(got[c][j], full[c].poly[positions[j]])
              << "q=" << params.q << " t=" << params.t << " ct " << c << " pos " << positions[j];
        }
      }
    }
  }
  Fixture f;
  const std::vector<Ciphertext> one{f.ctx.make_ciphertext()};
  const std::vector<std::size_t> outside{f.ctx.params().n};
  EXPECT_THROW((void)f.dec.decrypt_batch_at(one, outside), std::invalid_argument);
  EXPECT_TRUE(f.dec.decrypt_batch_at(one, {}).front().empty());
}

TEST(Bfv, ApproxBackendRequiresConfig) {
  Fixture f;
  EXPECT_THROW(Evaluator(f.ctx, PolyMulBackend::kApproxFft), std::invalid_argument);
}

}  // namespace
}  // namespace flash::bfv
