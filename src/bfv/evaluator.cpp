#include "bfv/evaluator.hpp"

namespace flash::bfv {

void Evaluator::add_inplace(Ciphertext& ct, const Ciphertext& other) const {
  ct.c0.add_inplace(other.c0);
  ct.c1.add_inplace(other.c1);
}

void Evaluator::sub_inplace(Ciphertext& ct, const Ciphertext& other) const {
  ct.c0.sub_inplace(other.c0);
  ct.c1.sub_inplace(other.c1);
}

void Evaluator::negate_inplace(Ciphertext& ct) const {
  ct.c0.negate_inplace();
  ct.c1.negate_inplace();
}

void Evaluator::add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  ct.c0.add_inplace(ctx_.delta_scaled(pt));
}

void Evaluator::sub_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  ct.c0.sub_inplace(ctx_.delta_scaled(pt));
}

Ciphertext Evaluator::multiply_plain(const Ciphertext& ct, const PlainSpectrum& w) const {
  return {engine_.multiply(ct.c0, w), engine_.multiply(ct.c1, w)};
}

Ciphertext Evaluator::multiply_plain(const Ciphertext& ct, const Plaintext& pt) const {
  return multiply_plain(ct, engine_.transform_plain(pt));
}

Evaluator::CiphertextSpectrum Evaluator::transform_ciphertext(const Ciphertext& ct) const {
  return {engine_.transform_cipher_spectrum(ct.c0), engine_.transform_cipher_spectrum(ct.c1)};
}

void Evaluator::multiply_accumulate(const CiphertextSpectrum& ct_spec, const PlainSpectrum& w,
                                    CiphertextAccumulator& accum) const {
  engine_.multiply_accumulate(ct_spec.c0, w, accum.c0);
  engine_.multiply_accumulate(ct_spec.c1, w, accum.c1);
}

Ciphertext Evaluator::finalize(const CiphertextAccumulator& accum) const {
  return {engine_.finalize(accum.c0), engine_.finalize(accum.c1)};
}

void Evaluator::finalize_batch(std::span<const CiphertextAccumulator> accums,
                               std::span<Ciphertext> out) const {
  if (out.size() != accums.size()) throw std::invalid_argument("finalize_batch: size mismatch");
  std::vector<const SpectralAccumulator*> elems;
  elems.reserve(2 * accums.size());
  for (const CiphertextAccumulator& a : accums) {
    elems.push_back(&a.c0);
    elems.push_back(&a.c1);
  }
  std::vector<Poly> polys(elems.size());
  engine_.finalize_batch(elems, polys);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {std::move(polys[2 * i]), std::move(polys[2 * i + 1])};
  }
}

const WideMultiplier& Evaluator::wide() const {
  std::lock_guard<std::mutex> lock(wide_mu_);
  if (!wide_) wide_ = std::make_unique<WideMultiplier>(ctx_);
  // Safe to hand out unlocked: once built, the object is immutable and the
  // pointer is never reset for the lifetime of the Evaluator.
  return *wide_;
}

Ciphertext3 Evaluator::multiply(const Ciphertext& a, const Ciphertext& b) const {
  const WideMultiplier& w = wide();
  Ciphertext3 out;
  out.c0 = w.scaled_product(a.c0, b.c0);
  out.c1 = w.scaled_product_sum(a.c0, b.c1, a.c1, b.c0);
  out.c2 = w.scaled_product(a.c1, b.c1);
  return out;
}

Ciphertext Evaluator::relinearize(const Ciphertext3& ct, const RelinKeys& keys) const {
  Ciphertext out{ct.c0, ct.c1};
  apply_key_switch(ctx_, keys.key, ct.c2, out.c0, out.c1);
  return out;
}

Ciphertext Evaluator::multiply_relin(const Ciphertext& a, const Ciphertext& b,
                                     const RelinKeys& keys) const {
  return relinearize(multiply(a, b), keys);
}

Ciphertext Evaluator::apply_galois(const Ciphertext& ct, u64 galois_element,
                                   const GaloisKeys& keys) const {
  const auto it = keys.keys.find(galois_element);
  if (it == keys.keys.end()) throw std::invalid_argument("apply_galois: no key for element");
  const auto& p = ctx_.params();
  Ciphertext out{bfv::Poly(p.q, p.n), bfv::Poly(p.q, p.n)};
  out.c0 = bfv::apply_galois(ct.c0, galois_element);
  const Poly rotated_c1 = bfv::apply_galois(ct.c1, galois_element);
  apply_key_switch(ctx_, it->second, rotated_c1, out.c0, out.c1);
  return out;
}

Ciphertext Evaluator::rotate_rows(const Ciphertext& ct, int steps, const GaloisKeys& keys) const {
  return apply_galois(ct, galois_element_for_step(steps, ctx_.params().n), keys);
}

Ciphertext Evaluator::rotate_columns(const Ciphertext& ct, const GaloisKeys& keys) const {
  return apply_galois(ct, galois_element_row_swap(ctx_.params().n), keys);
}

}  // namespace flash::bfv
