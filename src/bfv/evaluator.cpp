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

}  // namespace flash::bfv
