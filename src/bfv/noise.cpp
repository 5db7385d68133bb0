#include "bfv/noise.hpp"

#include <algorithm>
#include <cmath>

namespace flash::bfv {

double predicted_fresh_noise_bits(const BfvParams& params) {
  // Fresh ciphertext noise is dominated by the error polynomial (the message
  // is scaled by Delta exactly, so no Delta-rounding noise arises at
  // encryption; the floor(q/t) mismatch only shows up at decode, attenuated
  // by t/q). High-probability bound: 6 sigma.
  return std::log2(6.0 * params.error_sigma + 1.0);
}

double predicted_plain_mult_noise_bits(const BfvParams& params, double input_noise_bits,
                                       std::size_t weight_nnz, double max_abs) {
  // ct x pt multiplies the noise polynomial by the plaintext; the worst-case
  // growth is the plaintext l1 norm <= nnz * max_abs, the typical growth is
  // sqrt(nnz) * max_abs. We report the high-probability (2*sqrt) bound.
  (void)params;
  const double growth = 2.0 * std::sqrt(static_cast<double>(std::max<std::size_t>(weight_nnz, 1))) * max_abs;
  return input_noise_bits + std::log2(growth + 1.0);
}

double NoiseEstimator::fresh() const {
  // pk encryption: u*e + e1 + e2*s with ternary u, s: ~sigma * sqrt(2N) * 2.
  const double sigma = params_.error_sigma;
  const double n = static_cast<double>(params_.n);
  return std::log2(2.0 * sigma * std::sqrt(2.0 * n) + 6.0 * sigma + 1.0);
}

double NoiseEstimator::after_add(double a_bits, double b_bits) const {
  const double hi = std::max(a_bits, b_bits);
  const double lo = std::min(a_bits, b_bits);
  return hi + std::log2(1.0 + std::exp2(lo - hi));
}

double NoiseEstimator::after_multiply_plain(double noise_bits, std::size_t nnz,
                                            double max_abs) const {
  const double growth = 2.0 * std::sqrt(static_cast<double>(std::max<std::size_t>(nnz, 1))) * max_abs;
  return noise_bits + std::log2(growth + 1.0);
}

double approx_error_headroom_bits(const BfvParams& params, double current_noise_bits) {
  // Additive FFT error e_fft on (c0, c1) appears in decryption as
  // e0 + e1*s; with ternary s of ~N/2 nonzeros the amplification is about
  // sqrt(N). Tolerable when noise + amplified error < q/(2t).
  const double ceiling = params.noise_ceiling_bits();
  const double amplification = 0.5 * std::log2(static_cast<double>(params.n));
  const double headroom = ceiling - 1.0;  // 1 bit of safety under the ceiling
  // Remaining budget after current noise, shared with the amplification.
  const double budget = headroom - std::log2(std::exp2(current_noise_bits) + 1.0);
  return budget - amplification;
}

}  // namespace flash::bfv
