// Homomorphic evaluation: the ⊞ / ⊟ / ⊠ operations of the hybrid protocol,
// plus the full BFV extras (ct x ct with relinearization, Galois rotations)
// that round out the SEAL-style substrate.
#pragma once

#include <memory>
#include <mutex>

#include "core/thread_annotations.hpp"

#include "bfv/keyswitch.hpp"
#include "bfv/multiply.hpp"
#include "bfv/polymul_engine.hpp"

namespace flash::bfv {

/// A size-3 ciphertext produced by ct x ct before relinearization:
/// dec = round(t/q * (c0 + c1 s + c2 s^2)).
struct Ciphertext3 {
  Poly c0, c1, c2;
};

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

  /// --- Full BFV operations ------------------------------------------------
  /// ct x ct tensor product (exact CRT-based wide arithmetic).
  Ciphertext3 multiply(const Ciphertext& a, const Ciphertext& b) const;
  /// Fold the s^2 component back to a size-2 ciphertext.
  Ciphertext relinearize(const Ciphertext3& ct, const RelinKeys& keys) const;
  Ciphertext multiply_relin(const Ciphertext& a, const Ciphertext& b, const RelinKeys& keys) const;

  /// Apply the automorphism X -> X^g and switch back to the original key.
  Ciphertext apply_galois(const Ciphertext& ct, u64 galois_element, const GaloisKeys& keys) const;
  /// Batched-slot row rotation / row swap (BatchEncoder layout).
  Ciphertext rotate_rows(const Ciphertext& ct, int steps, const GaloisKeys& keys) const;
  Ciphertext rotate_columns(const Ciphertext& ct, const GaloisKeys& keys) const;

 private:
  const WideMultiplier& wide() const;

  const BfvContext& ctx_;
  mutable PolyMulEngine engine_;
  // Lazily built on the first ct x ct; the mutex makes the double-checked
  // initialization visible to the thread-safety analysis (a once_flag would
  // not be), and a WideMultiplier construction is far more expensive than an
  // uncontended lock acquisition per multiply.
  mutable std::mutex wide_mu_;
  mutable std::unique_ptr<WideMultiplier> wide_ FLASH_GUARDED_BY(wide_mu_);
};

}  // namespace flash::bfv
