// BFV key generation, encryption, decryption.
#pragma once

#include <span>

#include "bfv/context.hpp"

namespace flash::bfv {

class KeyGenerator {
 public:
  KeyGenerator(const BfvContext& ctx, hemath::Sampler& sampler) : ctx_(ctx), sampler_(sampler) {}

  SecretKey secret_key();
  PublicKey public_key(const SecretKey& sk);

 private:
  const BfvContext& ctx_;
  hemath::Sampler& sampler_;
};

/// Public key held in the NTT domain. Every public-key encryption computes
/// p0*u and p1*u; with the key spectra precomputed, an encryption costs one
/// forward transform (of u) plus one batched inverse pair instead of four
/// forwards and two inverses. Pure function of the key, so a long-lived
/// party (the HConv client, a serving process) builds it once.
struct PreparedPublicKey {
  std::vector<u64> p0_ntt;  // forward NTT of pk.p0
  std::vector<u64> p1_ntt;  // forward NTT of pk.p1
};

PreparedPublicKey prepare_public_key(const BfvContext& ctx, const PublicKey& pk);

class Encryptor {
 public:
  Encryptor(const BfvContext& ctx, hemath::Sampler& sampler) : ctx_(ctx), sampler_(sampler) {}

  /// Symmetric encryption: ct = (Delta*m + e - a*s, a), a uniform.
  Ciphertext encrypt_symmetric(const Plaintext& pt, const SecretKey& sk);

  /// Public-key encryption: ct = (p0*u + e1 + Delta*m, p1*u + e2), u ternary;
  /// draws u, e1, e2 from the sampler in that order.
  Ciphertext encrypt(const Plaintext& pt, const PreparedPublicKey& pk);
  /// Same encryption against an unprepared key: prepares it, then encrypts.
  Ciphertext encrypt(const Plaintext& pt, const PublicKey& pk);

 private:
  const BfvContext& ctx_;
  hemath::Sampler& sampler_;
};

struct Ciphertext3;  // bfv/evaluator.hpp

class Decryptor {
 public:
  /// Precomputes the secret key's NTT spectrum: every decrypt needs c1*s, so
  /// caching fwd(s) removes one of the two forward transforms per call.
  Decryptor(const BfvContext& ctx, SecretKey sk);

  /// Batched decryption: the c1 forward transforms and the product inverse
  /// transforms run through the batched SoA NTT (hemath/ntt), loading each
  /// twiddle once per batch. Bit-identical to a loop of decrypt() calls.
  std::vector<Plaintext> decrypt_batch(std::span<const Ciphertext> cts) const;
  /// decrypt_batch read at `positions` only: out[i][j] is coefficient
  /// positions[j] of cts[i]'s plaintext, rounded by the same routine, so a
  /// caller that reads a few coefficients (HConv's output positions) skips
  /// rounding the rest. Throws std::invalid_argument on a position >= n.
  std::vector<std::vector<u64>> decrypt_batch_at(std::span<const Ciphertext> cts,
                                                 std::span<const std::size_t> positions) const;
  /// decrypt_batch of one (the batch of one runs the in-place scalar NTT).
  Plaintext decrypt(const Ciphertext& ct) const;

  /// Decrypt a pre-relinearization size-3 ciphertext (needs s^2).
  Plaintext decrypt(const Ciphertext3& ct) const;

  /// Bits of noise budget remaining, SEAL-style: log2(q/2t) minus the log of
  /// the largest noise coefficient. <= 0 means decryption is unreliable.
  double invariant_noise_budget(const Ciphertext& ct) const;

 private:
  /// c0 + c1*s mod q for each ciphertext, through the batched NTT.
  std::vector<Poly> noisy_messages(std::span<const Ciphertext> cts) const;

  const BfvContext& ctx_;
  SecretKey sk_;
  std::vector<u64> s_ntt_;  // forward NTT of sk.s, shared by every decrypt
};

}  // namespace flash::bfv
