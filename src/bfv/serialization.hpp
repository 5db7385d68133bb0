// Binary serialization for BFV objects (keys, ciphertexts, plaintexts).
//
// A deliberately simple little-endian format with a magic header and type
// tags; every loader validates sizes and moduli against the header so a
// truncated or mismatched buffer fails loudly instead of decoding garbage.
//
// Adversarial-input contract (the wire layer feeds these loaders bytes from
// untrusted peers): every failure — truncation, oversized length fields,
// inconsistent headers — raises SerializationError. In particular a length
// field is checked against the bytes actually remaining in the buffer BEFORE
// any allocation sized by it, so a forged "degree = 2^60" header costs the
// attacker a rejected frame, never a bad_alloc or an OOM-killed server.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bfv/context.hpp"

namespace flash::bfv {

using Bytes = std::vector<std::uint8_t>;

/// Typed failure for every loader in this header (and the wire codecs built
/// on them). Derives from std::runtime_error so pre-existing catch sites
/// keep working; new code should catch this type.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// Hard ceiling on any ring degree a loader will honor (2^20 is far past
/// every parameter set this codebase instantiates). Length fields are
/// additionally capped by the bytes actually present in the buffer.
inline constexpr u64 kMaxPolyDegree = u64{1} << 20;

/// Append-only writer.
class ByteWriter {
 public:
  void write_u64(u64 v);
  void write_i64(i64 v) { write_u64(static_cast<u64>(v)); }
  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  const Bytes& bytes() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

/// Bounds-checked reader; throws SerializationError on underflow.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& bytes) : bytes_(bytes) {}
  u64 read_u64();
  i64 read_i64() { return static_cast<i64>(read_u64()); }
  std::uint8_t read_u8();
  bool exhausted() const { return pos_ == bytes_.size(); }
  /// Bytes left to read — what every element-count header must be capped
  /// against before the loader allocates.
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const Bytes& bytes_;
  std::size_t pos_ = 0;
};

Bytes serialize(const BfvParams& params);
BfvParams deserialize_params(ByteReader& reader);

void serialize(const Poly& poly, ByteWriter& writer);
Poly deserialize_poly(ByteReader& reader);

Bytes serialize(const BfvParams& params, const Plaintext& pt);
Plaintext deserialize_plaintext(const BfvContext& ctx, const Bytes& bytes);

Bytes serialize(const BfvParams& params, const Ciphertext& ct);
Ciphertext deserialize_ciphertext(const BfvContext& ctx, const Bytes& bytes);

Bytes serialize(const BfvParams& params, const SecretKey& sk);
SecretKey deserialize_secret_key(const BfvContext& ctx, const Bytes& bytes);

Bytes serialize(const BfvParams& params, const PublicKey& pk);
PublicKey deserialize_public_key(const BfvContext& ctx, const Bytes& bytes);

}  // namespace flash::bfv
