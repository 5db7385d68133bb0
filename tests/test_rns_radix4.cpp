// The radix-4 FFT dataflow against the radix-2 plan.
#include <gtest/gtest.h>

#include <random>

#include "fft/radix4.hpp"

namespace flash {
namespace {

class Radix4 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Radix4, MatchesRadix2Plan) {
  const std::size_t m = GetParam();
  std::mt19937_64 rng(m);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<fft::cplx> a(m);
  for (auto& v : a) v = {dist(rng), dist(rng)};
  auto b = a;
  fft::radix4_forward(a);
  fft::FftPlan(m, +1).forward(b);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), 1e-8 * static_cast<double>(m)) << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), 1e-8 * static_cast<double>(m)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Radix4,
                         ::testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{8},
                                           std::size_t{16}, std::size_t{64}, std::size_t{128},
                                           std::size_t{1024}, std::size_t{2048}));

TEST(Radix4Cost, FewerMultsThanRadix2) {
  for (std::size_t m : {std::size_t{64}, std::size_t{256}, std::size_t{2048}}) {
    const auto r4 = fft::radix4_dense_cost(m);
    const auto r2 = fft::radix2_dense_cost(m);
    EXPECT_LT(r4.complex_mults, r2.complex_mults) << m;
    // Classic result: radix-4 saves ~25% of the complex multiplications.
    const double ratio = static_cast<double>(r4.complex_mults) / static_cast<double>(r2.complex_mults);
    EXPECT_GT(ratio, 0.6) << m;
    EXPECT_LT(ratio, 0.95) << m;
  }
}

TEST(Radix4Cost, StatsMatchExecution) {
  const std::size_t m = 256;
  std::vector<fft::cplx> a(m, fft::cplx{1.0, -0.5});
  fft::Radix4Stats stats;
  fft::radix4_forward(a, &stats);
  const auto dense = fft::radix4_dense_cost(m);
  EXPECT_EQ(stats.complex_mults, dense.complex_mults);
  EXPECT_EQ(stats.complex_adds, dense.complex_adds);
}

}  // namespace
}  // namespace flash
