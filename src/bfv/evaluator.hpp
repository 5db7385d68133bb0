// Homomorphic evaluation: the ⊞ / ⊟ / ⊠ operations of the hybrid protocol.
// Only ct x pt is offered: Cheetah-style HConv multiplies a ciphertext by
// coefficient-encoded weights and masks the result, and never needs ct x ct,
// relinearization or rotations.
#pragma once

#include "bfv/polymul_engine.hpp"

namespace flash::bfv {

class Evaluator {
 public:
  Evaluator(const BfvContext& ctx, PolyMulBackend backend,
            std::optional<fft::FxpFftConfig> approx_config = std::nullopt)
      : ctx_(ctx), engine_(ctx, backend, std::move(approx_config)) {}

  const PolyMulEngine& engine() const { return engine_; }
  PolyMulEngine& engine() { return engine_; }

  void add_inplace(Ciphertext& ct, const Ciphertext& other) const;
  void sub_inplace(Ciphertext& ct, const Ciphertext& other) const;
  void negate_inplace(Ciphertext& ct) const;

  /// ct ⊞ pt: c0 += Delta * m.
  void add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;
  /// ct ⊟ pt.
  void sub_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;

  /// ct ⊠ pt through the engine's backend. The plaintext spectrum may be
  /// precomputed with transform_plain() and reused.
  Ciphertext multiply_plain(const Ciphertext& ct, const PlainSpectrum& w) const;
  Ciphertext multiply_plain(const Ciphertext& ct, const Plaintext& pt) const;

  PlainSpectrum transform_plain(const Plaintext& pt) const { return engine_.transform_plain(pt); }

  /// --- Spectral HConv pipeline (paper Fig. 4(b)) ---------------------------
  /// Transform a ciphertext once (both elements), point-wise multiply and
  /// accumulate any number of (ct, weight) pairs, and inverse-transform once
  /// per output ciphertext. This is the dataflow the accelerator implements:
  /// activation transforms are shared across output channels and channel
  /// tiles accumulate before the inverse.
  struct CiphertextSpectrum {
    CipherSpectrum c0, c1;
  };
  struct CiphertextAccumulator {
    SpectralAccumulator c0, c1;
  };
  CiphertextSpectrum transform_ciphertext(const Ciphertext& ct) const;
  void multiply_accumulate(const CiphertextSpectrum& ct_spec, const PlainSpectrum& w,
                           CiphertextAccumulator& accum) const;
  Ciphertext finalize(const CiphertextAccumulator& accum) const;
  /// out[i] = finalize(accums[i]); both elements of every accumulator go
  /// through one PolyMulEngine::finalize_batch call.
  void finalize_batch(std::span<const CiphertextAccumulator> accums,
                      std::span<Ciphertext> out) const;

 private:
  const BfvContext& ctx_;
  mutable PolyMulEngine engine_;
};

}  // namespace flash::bfv
