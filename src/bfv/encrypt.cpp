#include "bfv/encrypt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <utility>

#include "bfv/evaluator.hpp"

namespace flash::bfv {

namespace {
using hemath::u128;
using i128 = __int128;

/// Shared rounding of the noisy scaled message v: round(t/q * v[i]) mod t
/// for each i in `positions`, written to consecutive out[] entries. A
/// template so a full decryption passes iota(0, n) without materializing it
/// and a caller reading a few coefficients rounds only those.
///
/// The reference expression is llroundl(c * (t/q)) in long double on the
/// centered lift c. It is reproduced bit for bit with integer arithmetic on
/// all but a vanishing window of inputs (ARCHITECTURE.md §4, "Scalar
/// arithmetic around the transforms"):
///
/// * Candidate. For a = |c| <= q/2, x = t*a/q <= t/2. A double estimate
///   gives k ~ round(x), and d = 2t*a + q - 2k*q = 2q(x - k + 1/2) is exact
///   in 128 bits. k is round(x), rounding half away from zero, exactly when
///   0 <= d < 2q; then x lies min(d, 2q - d) / 2q from the nearest
///   half-integer.
/// * Agreement window. With p long-double mantissa bits and u = 2^-p, the
///   reference computes x~ = x(1+e_1)...(1+e_r), |e_i| <= u: one rounding
///   for t/q and one for the product (r = 2) when p >= 64 makes t, q and c
///   exact, plus one per conversion (r = 5) otherwise. So |x~ - x| <
///   (r+1)u*x <= (r+1)u*t/2, and llroundl(x~) can differ from round(x) only
///   if x lies that close to a half-integer: min(d, 2q - d) < (r+1)u*q*t.
///   window = (r+1)*(floor(q*t / 2^p) + 1) exceeds that bound, so any
///   window < d < 2q - window returns +-k. Everything else (a wrong
///   estimate, an exact tie, a near-tie) evaluates the reference itself.
///
/// At the bench parameters (49-bit q ~ 2^48, t = 2^20) the window is 51, so
/// the fallback essentially never runs on decryption noise; near-ties built
/// to land in it are pinned against the llroundl oracle in test_bfv.
template <class Positions>
void round_to_plaintext(const BfvParams& p, const Poly& v, const Positions& positions, u64* out) {
  const long double scale = static_cast<long double>(p.t) / static_cast<long double>(p.q);
  const double scale_d = static_cast<double>(p.t) / static_cast<double>(p.q);
  constexpr int kMantissa = std::numeric_limits<long double>::digits;
  constexpr i128 kRoundings = kMantissa >= 64 ? 2 : 5;
  const i128 window =
      (kRoundings + 1) * static_cast<i128>(((static_cast<u128>(p.q) * p.t) >> kMantissa) + 1);
  const i128 two_t = static_cast<i128>(2) * p.t;
  const i128 two_q = static_cast<i128>(2) * p.q;
  for (const std::size_t i : positions) {
    const i64 c = hemath::to_signed(v[i], p.q);
    const i64 sign = c >> 63;  // 0 or -1
    const i64 a = (c ^ sign) - sign;
    const auto k = static_cast<i64>(static_cast<double>(a) * scale_d + 0.5);
    const i128 d = a * two_t + p.q - k * two_q;
    i64 rounded;
    if (d > window && d < two_q - window) [[likely]] {
      rounded = (k ^ sign) - sign;
    } else {
      rounded = static_cast<i64>(std::llroundl(static_cast<long double>(c) * scale));
    }
    *out++ = hemath::from_signed(rounded, p.t);
  }
}

Plaintext round_to_plaintext(const BfvContext& ctx, const Poly& v) {
  Plaintext pt = ctx.make_plaintext();
  round_to_plaintext(ctx.params(), v, std::views::iota(std::size_t{0}, ctx.params().n),
                     pt.poly.coeffs().data());
  return pt;
}
}  // namespace

SecretKey KeyGenerator::secret_key() {
  return {sampler_.ternary_poly(ctx_.params().q, ctx_.params().n)};
}

PublicKey KeyGenerator::public_key(const SecretKey& sk) {
  const auto& p = ctx_.params();
  Poly a = sampler_.uniform_poly(p.q, p.n);
  Poly e = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly p0 = multiply(ctx_.ntt(), a, sk.s);
  p0.negate_inplace();
  p0.sub_inplace(e);
  return {std::move(p0), std::move(a)};
}

Ciphertext Encryptor::encrypt_symmetric(const Plaintext& pt, const SecretKey& sk) {
  const auto& p = ctx_.params();
  Poly a = sampler_.uniform_poly(p.q, p.n);
  Poly e = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly c0 = ctx_.delta_scaled(pt);
  c0.add_inplace(e);
  Poly as = multiply(ctx_.ntt(), a, sk.s);
  c0.sub_inplace(as);
  return {std::move(c0), std::move(a)};
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, const PublicKey& pk) {
  return encrypt(pt, prepare_public_key(ctx_, pk));
}

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk) {
  PreparedPublicKey out;
  out.p0_ntt = pk.p0.coeffs();
  out.p1_ntt = pk.p1.coeffs();
  ctx.ntt().forward(out.p0_ntt);
  ctx.ntt().forward(out.p1_ntt);
  return out;
}

Ciphertext Encryptor::encrypt(const Plaintext& pt, const PreparedPublicKey& pk) {
  const auto& p = ctx_.params();
  Poly u = sampler_.ternary_poly(p.q, p.n);
  Poly e1 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  Poly e2 = sampler_.gaussian_poly(p.q, p.n, p.error_sigma);
  // One forward of u shared by both key components; NTT residues are
  // canonical, so the products match multiply(ntt, pk.p_i, u) bit for bit.
  std::vector<u64> u_hat = u.coeffs();
  const auto& ntt = ctx_.ntt();
  ntt.forward(u_hat);
  std::vector<u64> c0v, c1v;
  ntt.pointwise(pk.p0_ntt, u_hat, c0v);
  ntt.pointwise(pk.p1_ntt, u_hat, c1v);
  u64* prods[] = {c0v.data(), c1v.data()};
  ntt.inverse_batch_into(prods);
  Poly c0(p.q, std::move(c0v));
  c0.add_inplace(e1);
  c0.add_inplace(ctx_.delta_scaled(pt));
  Poly c1(p.q, std::move(c1v));
  c1.add_inplace(e2);
  return {std::move(c0), std::move(c1)};
}

Decryptor::Decryptor(const BfvContext& ctx, SecretKey sk) : ctx_(ctx), sk_(std::move(sk)) {
  s_ntt_ = sk_.s.coeffs();
  ctx_.ntt().forward(s_ntt_);
}

std::vector<Poly> Decryptor::noisy_messages(std::span<const Ciphertext> cts) const {
  const auto& ntt = ctx_.ntt();
  std::vector<Poly> out;
  out.reserve(cts.size());
  std::vector<u64*> ptrs;
  ptrs.reserve(cts.size());
  for (const Ciphertext& ct : cts) {
    if (ct.c1.degree() != ntt.degree()) throw std::invalid_argument("decrypt: degree mismatch");
    ptrs.push_back(out.emplace_back(ct.c1).coeffs().data());
  }
  ntt.forward_batch_into(ptrs);
  for (Poly& v : out) ntt.pointwise(v.coeffs(), s_ntt_, v.coeffs());
  ntt.inverse_batch_into(ptrs);
  for (std::size_t i = 0; i < cts.size(); ++i) out[i].add_inplace(cts[i].c0);
  return out;
}

Plaintext Decryptor::decrypt(const Ciphertext& ct) const {
  return std::move(decrypt_batch(std::span<const Ciphertext>(&ct, 1)).front());
}

std::vector<Plaintext> Decryptor::decrypt_batch(std::span<const Ciphertext> cts) const {
  std::vector<Poly> noisy = noisy_messages(cts);
  std::vector<Plaintext> out;
  out.reserve(cts.size());
  // Each noisy message is freed once rounded, so the next plaintext reuses
  // its buffer and the batch never holds both sets of polynomials.
  for (Poly& v : noisy) out.push_back(round_to_plaintext(ctx_, std::exchange(v, Poly())));
  return out;
}

std::vector<std::vector<u64>> Decryptor::decrypt_batch_at(
    std::span<const Ciphertext> cts, std::span<const std::size_t> positions) const {
  const auto& p = ctx_.params();
  for (const std::size_t pos : positions) {
    if (pos >= p.n) throw std::invalid_argument("decrypt_batch_at: position out of range");
  }
  const std::vector<Poly> noisy = noisy_messages(cts);
  std::vector<std::vector<u64>> out(cts.size(), std::vector<u64>(positions.size()));
  for (std::size_t i = 0; i < cts.size(); ++i) {
    round_to_plaintext(p, noisy[i], positions, out[i].data());
  }
  return out;
}

Plaintext Decryptor::decrypt(const Ciphertext3& ct) const {
  // v = c0 + c1 s + c2 s^2.
  Poly v = multiply(ctx_.ntt(), ct.c1, sk_.s);
  const Poly s_squared = multiply(ctx_.ntt(), sk_.s, sk_.s);
  v.add_inplace(multiply(ctx_.ntt(), ct.c2, s_squared));
  v.add_inplace(ct.c0);
  return round_to_plaintext(ctx_, v);
}

double Decryptor::invariant_noise_budget(const Ciphertext& ct) const {
  const auto& p = ctx_.params();
  const Poly v = std::move(noisy_messages(std::span<const Ciphertext>(&ct, 1)).front());
  const Poly expect = ctx_.delta_scaled(round_to_plaintext(ctx_, v));
  u64 max_noise = 0;
  for (std::size_t i = 0; i < p.n; ++i) {
    const i64 centered = hemath::to_signed(hemath::sub_mod(v[i], expect[i], p.q), p.q);
    max_noise = std::max(max_noise, static_cast<u64>(centered < 0 ? -centered : centered));
  }
  const double ceiling = std::log2(static_cast<double>(p.q)) - std::log2(2.0 * static_cast<double>(p.t));
  const double level = std::log2(static_cast<double>(max_noise) + 1.0);
  return ceiling - level;
}

}  // namespace flash::bfv
