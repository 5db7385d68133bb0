// Approximation-aware training (the k: 18 -> 5 mechanism) and the static
// noise estimator.
#include <gtest/gtest.h>

#include "bfv/encrypt.hpp"
#include "bfv/evaluator.hpp"
#include "bfv/noise.hpp"
#include "tensor/train.hpp"

namespace flash {
namespace {

TEST(Train, SyntheticDataIsSeparable) {
  std::mt19937_64 rng(7);
  const auto data = tensor::LabeledDataset::synthetic(300, 32, 4, 4, 200.0, rng);
  EXPECT_EQ(data.features.size(), 300u);
  // Every class is represented.
  std::vector<int> counts(4, 0);
  for (std::size_t label : data.labels) ++counts[label];
  for (int c : counts) EXPECT_GT(c, 10);
  // Clean training reaches (near-)perfect accuracy.
  std::mt19937_64 trng(8);
  const auto model = tensor::train(data, {}, trng);
  std::mt19937_64 erng(9);
  EXPECT_GE(tensor::evaluate(model, data, 0.0, erng), 0.97);
}

TEST(Train, NoiseInjectionTrainingRecoversAccuracyUnderNoise) {
  // The paper's approximation-aware-training claim in miniature: at an
  // error level where the cleanly-trained model degrades, the noise-trained
  // model recovers most of the loss while staying perfect on clean inputs.
  std::mt19937_64 rng(7);
  const auto data = tensor::LabeledDataset::synthetic(400, 32, 4, 4, 200.0, rng);

  std::mt19937_64 t1(8), t2(8);
  const auto clean_model = tensor::train(data, {}, t1);
  tensor::TrainOptions noisy_opts;
  noisy_opts.train_noise_std = 5.0;
  noisy_opts.noise_draws = 2;
  const auto noisy_model = tensor::train(data, noisy_opts, t2);

  std::mt19937_64 e1(9), e2(9), e3(9), e4(9);
  const double clean_on_clean = tensor::evaluate(clean_model, data, 0.0, e1);
  const double noisy_on_clean = tensor::evaluate(noisy_model, data, 0.0, e2);
  const double clean_on_noisy = tensor::evaluate(clean_model, data, 4.0, e3);
  const double noisy_on_noisy = tensor::evaluate(noisy_model, data, 4.0, e4);

  EXPECT_GE(noisy_on_clean, clean_on_clean - 0.02);  // no clean-accuracy cost
  EXPECT_LT(clean_on_noisy, 0.97);                   // the noise hurts the baseline
  EXPECT_GE(noisy_on_noisy, clean_on_noisy + 0.02);  // training recovers margin
}

TEST(Train, MoreTrainingNoiseMoreRobustness) {
  std::mt19937_64 rng(17);
  const auto data = tensor::LabeledDataset::synthetic(400, 32, 4, 4, 200.0, rng);
  double prev = 0.0;
  for (double sigma : {0.0, 4.0, 8.0}) {
    tensor::TrainOptions opts;
    opts.train_noise_std = sigma;
    opts.noise_draws = 2;
    std::mt19937_64 trng(8), erng(9);
    const auto model = tensor::train(data, opts, trng);
    const double acc = tensor::evaluate(model, data, 8.0, erng);
    EXPECT_GE(acc, prev - 0.03) << sigma;  // robustness is (weakly) increasing
    prev = std::max(prev, acc);
  }
  EXPECT_GT(prev, 0.70);
}

// --- noise estimator ---------------------------------------------------------

struct NoiseFixture {
  bfv::BfvContext ctx;
  hemath::Sampler sampler;
  bfv::KeyGenerator keygen;
  bfv::SecretKey sk;
  bfv::PublicKey pk;
  bfv::Encryptor enc;
  bfv::Decryptor dec;
  bfv::Evaluator ev;
  bfv::NoiseEstimator est;

  NoiseFixture()
      : ctx(bfv::BfvParams::create_batching(1024, 14, 58)), sampler(77), keygen(ctx, sampler),
        sk(keygen.secret_key()), pk(keygen.public_key(sk)), enc(ctx, sampler), dec(ctx, sk),
        ev(ctx, bfv::PolyMulBackend::kNtt), est(ctx.params()) {}

  bfv::Ciphertext fresh_ct(std::mt19937_64& rng) {
    std::vector<hemath::i64> vals(ctx.params().n);
    for (auto& v : vals) v = static_cast<hemath::i64>(rng() % 31) - 15;
    return enc.encrypt(ctx.encode_signed(vals), pk);
  }
};

TEST(NoiseEstimator, FreshPredictionBracketsMeasurement) {
  NoiseFixture f;
  std::mt19937_64 rng(1);
  const auto ct = f.fresh_ct(rng);
  const double measured_noise = f.ctx.params().noise_ceiling_bits() - f.dec.invariant_noise_budget(ct);
  const double predicted = f.est.fresh();
  EXPECT_GE(predicted, measured_noise - 1.0);       // prediction is an upper estimate
  EXPECT_LE(predicted, measured_noise + 10.0);      // ... but not absurdly loose
}

TEST(NoiseEstimator, MultiplyPlainPrediction) {
  NoiseFixture f;
  std::mt19937_64 rng(2);
  const auto ct = f.fresh_ct(rng);
  std::vector<hemath::i64> vw(f.ctx.params().n, 0);
  for (int i = 0; i < 64; ++i) vw[rng() % f.ctx.params().n] = 7;
  const auto prod = f.ev.multiply_plain(ct, f.ctx.encode_signed(vw));
  const double measured = f.ctx.params().noise_ceiling_bits() - f.dec.invariant_noise_budget(prod);
  const double predicted = f.est.after_multiply_plain(f.est.fresh(), 64, 7.0);
  EXPECT_GE(predicted, measured - 1.0);
  EXPECT_LE(predicted, measured + 10.0);
}

TEST(NoiseEstimator, AddIsLogSumExp) {
  NoiseFixture f;
  EXPECT_NEAR(f.est.after_add(10.0, 10.0), 11.0, 1e-9);
  EXPECT_NEAR(f.est.after_add(20.0, 0.0), 20.0, 0.01);
}

TEST(NoiseEstimator, BudgetMatchesCeiling) {
  NoiseFixture f;
  EXPECT_NEAR(f.est.budget(0.0), f.ctx.params().noise_ceiling_bits(), 1e-9);
  EXPECT_LT(f.est.budget(50.0), f.est.budget(10.0));
}

}  // namespace
}  // namespace flash
