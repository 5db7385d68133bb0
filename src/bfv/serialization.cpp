#include "bfv/serialization.hpp"

#include <stdexcept>

namespace flash::bfv {

namespace {
constexpr u64 kMagic = 0x464C415348424656ULL;  // "FLASHBFV"
constexpr std::uint8_t kTagParams = 1;
constexpr std::uint8_t kTagPlaintext = 2;
constexpr std::uint8_t kTagCiphertext = 3;
constexpr std::uint8_t kTagSecretKey = 4;
constexpr std::uint8_t kTagPublicKey = 5;

void write_header(ByteWriter& w, std::uint8_t tag, const BfvParams& p) {
  w.write_u64(kMagic);
  w.write_u8(tag);
  w.write_u64(p.n);
  w.write_u64(p.t);
  w.write_u64(p.q);
}

void check_header(ByteReader& r, std::uint8_t tag, const BfvParams& p) {
  if (r.read_u64() != kMagic) throw SerializationError("deserialize: bad magic");
  if (r.read_u8() != tag) throw SerializationError("deserialize: wrong object type");
  if (r.read_u64() != p.n || r.read_u64() != p.t || r.read_u64() != p.q) {
    throw SerializationError("deserialize: parameter mismatch");
  }
}

// Top-level loaders own the whole buffer; leftover bytes mean a framing bug
// (or a concatenated/corrupted stream), not a valid object.
void check_exhausted(const ByteReader& r) {
  if (!r.exhausted()) throw SerializationError("deserialize: trailing bytes after object");
}
}  // namespace

void ByteWriter::write_u64(u64 v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(v & 0xff));
    v >>= 8;
  }
}

u64 ByteReader::read_u64() {
  if (pos_ + 8 > bytes_.size()) throw SerializationError("ByteReader: underflow");
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(bytes_[pos_++]) << (8 * i);
  return v;
}

std::uint8_t ByteReader::read_u8() {
  if (pos_ >= bytes_.size()) throw SerializationError("ByteReader: underflow");
  return bytes_[pos_++];
}

Bytes serialize(const BfvParams& params) {
  ByteWriter w;
  w.write_u64(kMagic);
  w.write_u8(kTagParams);
  w.write_u64(params.n);
  w.write_u64(params.t);
  w.write_u64(params.q);
  w.write_u64(static_cast<u64>(params.error_sigma * 1000.0));
  return w.take();
}

BfvParams deserialize_params(ByteReader& reader) {
  if (reader.read_u64() != kMagic) throw SerializationError("deserialize_params: bad magic");
  if (reader.read_u8() != kTagParams) throw SerializationError("deserialize_params: wrong type");
  BfvParams p;
  const u64 n = reader.read_u64();
  // Range-check header fields BEFORE validate(): its own arithmetic assumes
  // sane magnitudes (2*n and 2*t must not wrap — an adversarial n = 2^63
  // would turn its modulus check into a division by zero).
  if (n < 8 || n > kMaxPolyDegree) throw SerializationError("deserialize_params: n out of range");
  p.n = static_cast<std::size_t>(n);
  p.t = reader.read_u64();
  p.q = reader.read_u64();
  if (p.t == 0 || p.t > (u64{1} << 62) || p.q == 0) {
    throw SerializationError("deserialize_params: modulus out of range");
  }
  p.error_sigma = static_cast<double>(reader.read_u64()) / 1000.0;
  try {
    p.validate();
  } catch (const std::exception& e) {
    throw SerializationError(std::string("deserialize_params: ") + e.what());
  }
  return p;
}

void serialize(const Poly& poly, ByteWriter& writer) {
  writer.write_u64(poly.modulus());
  writer.write_u64(poly.degree());
  for (std::size_t i = 0; i < poly.degree(); ++i) writer.write_u64(poly[i]);
}

Poly deserialize_poly(ByteReader& reader) {
  const u64 modulus = reader.read_u64();
  const u64 degree = reader.read_u64();
  if (modulus == 0) throw SerializationError("deserialize_poly: zero modulus");
  if (degree > kMaxPolyDegree) throw SerializationError("deserialize_poly: degree too large");
  // Allocation cap: the buffer must actually hold `degree` coefficients
  // before a Poly of that size is constructed. Without this, a forged degree
  // just under the hard cap makes every call allocate (and zero) 8 MiB only
  // to throw on the first missing coefficient.
  if (degree * 8 > reader.remaining()) {
    throw SerializationError("deserialize_poly: degree exceeds buffer");
  }
  Poly p(modulus, static_cast<std::size_t>(degree));
  for (std::size_t i = 0; i < degree; ++i) {
    const u64 c = reader.read_u64();
    if (c >= modulus) throw SerializationError("deserialize_poly: coefficient out of range");
    p[i] = c;
  }
  return p;
}

Bytes serialize(const BfvParams& params, const Plaintext& pt) {
  ByteWriter w;
  write_header(w, kTagPlaintext, params);
  serialize(pt.poly, w);
  return w.take();
}

Plaintext deserialize_plaintext(const BfvContext& ctx, const Bytes& bytes) {
  ByteReader r(bytes);
  check_header(r, kTagPlaintext, ctx.params());
  Plaintext pt{deserialize_poly(r)};
  if (pt.poly.modulus() != ctx.params().t) throw SerializationError("plaintext: wrong modulus");
  check_exhausted(r);
  return pt;
}

Bytes serialize(const BfvParams& params, const Ciphertext& ct) {
  ByteWriter w;
  write_header(w, kTagCiphertext, params);
  serialize(ct.c0, w);
  serialize(ct.c1, w);
  return w.take();
}

Ciphertext deserialize_ciphertext(const BfvContext& ctx, const Bytes& bytes) {
  ByteReader r(bytes);
  check_header(r, kTagCiphertext, ctx.params());
  Ciphertext ct{deserialize_poly(r), deserialize_poly(r)};
  if (ct.c0.modulus() != ctx.params().q || ct.c1.modulus() != ctx.params().q) {
    throw SerializationError("ciphertext: wrong modulus");
  }
  check_exhausted(r);
  return ct;
}

Bytes serialize(const BfvParams& params, const SecretKey& sk) {
  ByteWriter w;
  write_header(w, kTagSecretKey, params);
  serialize(sk.s, w);
  return w.take();
}

SecretKey deserialize_secret_key(const BfvContext& ctx, const Bytes& bytes) {
  ByteReader r(bytes);
  check_header(r, kTagSecretKey, ctx.params());
  SecretKey sk{deserialize_poly(r)};
  check_exhausted(r);
  return sk;
}

Bytes serialize(const BfvParams& params, const PublicKey& pk) {
  ByteWriter w;
  write_header(w, kTagPublicKey, params);
  serialize(pk.p0, w);
  serialize(pk.p1, w);
  return w.take();
}

PublicKey deserialize_public_key(const BfvContext& ctx, const Bytes& bytes) {
  ByteReader r(bytes);
  check_header(r, kTagPublicKey, ctx.params());
  PublicKey pk{deserialize_poly(r), deserialize_poly(r)};
  check_exhausted(r);
  return pk;
}

}  // namespace flash::bfv
