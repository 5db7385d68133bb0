#include "bfv/polymul_engine.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/scratch.hpp"
#include "fft/transform_cache.hpp"
#include "hemath/pointwise.hpp"
#include "hemath/simd_batch.hpp"

namespace flash::bfv {

namespace {
/// Relaxed tally: counters are statistics, not synchronization.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

/// kFft/kApproxFft store the n/2-point half-spectrum; kNtt/kPow2 n residues.
bool half_spectrum(PolyMulBackend b) {
  return b == PolyMulBackend::kFft || b == PolyMulBackend::kApproxFft;
}
}  // namespace

PolyMulEngine::PolyMulEngine(const BfvContext& ctx, PolyMulBackend backend,
                             std::optional<fft::FxpFftConfig> approx_config)
    : ctx_(ctx), backend_(backend) {
  if (backend_ == PolyMulBackend::kApproxFft) {
    if (!approx_config) throw std::invalid_argument("PolyMulEngine: kApproxFft requires a config");
    approx_ = fft::shared_fxp_transform(ctx_.params().n, *approx_config);
  }
  if (backend_ == PolyMulBackend::kPow2) {
    if (!ctx_.params().q_is_pow2()) {
      throw std::invalid_argument("PolyMulEngine: kPow2 requires a power-of-two q (create_pow2)");
    }
    pow2_.emplace(std::countr_zero(ctx_.params().q));
  }
}

std::size_t PolyMulEngine::batch_width() const {
  return backend_ == PolyMulBackend::kNtt ? hemath::simd_batch::kAvx512Lanes : 1;
}

PlainSpectrum PolyMulEngine::transform_plain(const Plaintext& pt) const {
  PlainSpectrum out;
  transform_plain_batch(std::span<const Plaintext>(&pt, 1), std::span<PlainSpectrum>(&out, 1));
  return out;
}

void PolyMulEngine::transform_plain_batch(std::span<const Plaintext> pts,
                                          std::span<PlainSpectrum> out) const {
  if (out.size() != pts.size()) throw std::invalid_argument("transform_plain_batch: size mismatch");
  const auto& p = ctx_.params();
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const Plaintext& pt = pts[k];
    if (pt.poly.degree() != p.n) {
      throw std::invalid_argument("transform_plain_batch: degree mismatch");
    }
    out[k].backend = backend_;
    if (half_spectrum(backend_)) {
      core::ScratchFrame frame(core::thread_scratch());
      std::span<double> vals = frame.alloc<double>(p.n);
      for (std::size_t i = 0; i < p.n; ++i) {
        vals[i] = static_cast<double>(hemath::to_signed(pt.poly[i], p.t));
      }
      Spectrum::HalfSpectrum& spec = out[k].store.emplace<Spectrum::HalfSpectrum>(p.n / 2);
      if (backend_ == PolyMulBackend::kFft) {
        ctx_.fft().forward_into(vals, spec);
      } else {
        approx_->forward_into(vals, spec);
      }
    } else {
      // Signed lift mod t into Z_q. For kPow2 (q = 2^k) negative weights wrap
      // into the ring's upper half, exactly what two's-complement masking
      // produces; kNtt's forward NTTs run batched below.
      Spectrum::Residues& spec = out[k].store.emplace<Spectrum::Residues>(p.n);
      for (std::size_t i = 0; i < p.n; ++i) {
        spec[i] = hemath::from_signed(hemath::to_signed(pt.poly[i], p.t), p.q);
      }
    }
  }
  if (backend_ == PolyMulBackend::kNtt) {
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64*> ptrs = frame.alloc<u64*>(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) {
      ptrs[k] = std::get<Spectrum::Residues>(out[k].store).data();
    }
    ctx_.ntt().forward_batch_into(ptrs, &frame.arena());
  }
  bump(counters_.plain_transforms, pts.size());
}

CipherSpectrum PolyMulEngine::transform_cipher_spectrum(const Poly& ct_poly) const {
  const auto& p = ctx_.params();
  if (ct_poly.degree() != p.n) {
    throw std::invalid_argument("transform_cipher_spectrum: degree mismatch");
  }
  CipherSpectrum spec{backend_, {}};
  if (half_spectrum(backend_)) {
    core::ScratchFrame frame(core::thread_scratch());
    std::span<double> vals = frame.alloc<double>(p.n);
    for (std::size_t i = 0; i < p.n; ++i) {
      vals[i] = static_cast<double>(hemath::to_signed(ct_poly[i], p.q));
    }
    ctx_.fft().forward_into(vals, spec.store.emplace<Spectrum::HalfSpectrum>(p.n / 2));
  } else {
    // kPow2 has no spectral domain mod 2^k: the "transform" is the residues
    // themselves (already < q = 2^k, so already mask-reduced).
    Spectrum::Residues& res = spec.store.emplace<Spectrum::Residues>(ct_poly.coeffs());
    if (backend_ == PolyMulBackend::kNtt) ctx_.ntt().forward(res);
  }
  bump(counters_.cipher_transforms);
  return spec;
}

void PolyMulEngine::check_spectrum(const Spectrum& s, const char* where) const {
  const bool half = half_spectrum(backend_);
  if (s.backend != backend_ || std::holds_alternative<Spectrum::HalfSpectrum>(s.store) != half) {
    throw std::invalid_argument(std::string(where) + ": backend mismatch");
  }
  const std::size_t size = std::visit([](const auto& v) { return v.size(); }, s.store);
  if (size != (half ? ctx_.params().n / 2 : ctx_.params().n)) {
    throw std::invalid_argument(std::string(where) + ": degree mismatch");
  }
}

void PolyMulEngine::multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                                        SpectralAccumulator& accum) const {
  check_spectrum(ct_spec, "multiply_accumulate");
  check_spectrum(w, "multiply_accumulate");
  const auto& p = ctx_.params();
  if (accum.empty()) {
    accum.backend = backend_;
    if (half_spectrum(backend_)) {
      accum.store.emplace<Spectrum::HalfSpectrum>(p.n / 2);
    } else {
      accum.store.emplace<Spectrum::Residues>(p.n);
    }
  }
  check_spectrum(accum, "multiply_accumulate");
  if (half_spectrum(backend_)) {
    const auto& a = std::get<Spectrum::HalfSpectrum>(ct_spec.store);
    const auto& b = std::get<Spectrum::HalfSpectrum>(w.store);
    auto& acc = std::get<Spectrum::HalfSpectrum>(accum.store);
    for (std::size_t i = 0; i < p.n / 2; ++i) acc[i] += a[i] * b[i];
    bump(counters_.pointwise_products, p.n / 2);
    return;
  }
  const u64* a = std::get<Spectrum::Residues>(ct_spec.store).data();
  const u64* b = std::get<Spectrum::Residues>(w.store).data();
  u64* acc = std::get<Spectrum::Residues>(accum.store).data();
  if (backend_ == PolyMulBackend::kNtt) {
    hemath::pointwise_mulmod_accumulate(acc, a, b, p.n, p.q);
    bump(counters_.pointwise_products, p.n);
  } else {
    // kPow2: each accumulate is a full negacyclic product (there is no cheap
    // spectral-domain point product mod 2^k); the sum stays in coefficient
    // domain so finalize is still a single copy per output polynomial.
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64> prod = frame.alloc<u64>(p.n);
    hemath::negacyclic_mul_pow2_into(a, b, prod.data(), p.n, *pow2_, &frame.arena());
    hemath::pointwise_add_pow2(acc, prod.data(), p.n, *pow2_);
    bump(counters_.pointwise_products, hemath::pow2_mult_count(p.n));
  }
}

Poly PolyMulEngine::finalize(const SpectralAccumulator& accum) const {
  const SpectralAccumulator* const one = &accum;
  Poly out;
  finalize_batch(std::span<const SpectralAccumulator* const>(&one, 1), std::span<Poly>(&out, 1));
  return out;
}

void PolyMulEngine::finalize_batch(std::span<const SpectralAccumulator* const> accums,
                                   std::span<Poly> out) const {
  if (out.size() != accums.size()) throw std::invalid_argument("finalize_batch: size mismatch");
  const auto& p = ctx_.params();
  for (std::size_t k = 0; k < accums.size(); ++k) {
    const SpectralAccumulator& accum = *accums[k];
    if (accum.empty()) throw std::invalid_argument("finalize: empty accumulator");
    check_spectrum(accum, "finalize");
    if (!half_spectrum(backend_)) {
      // kNtt: the inverse NTTs run batched below; kPow2: the sum is already
      // in coefficient domain, so the "inverse transform" is this copy.
      out[k] = Poly(p.q, std::get<Spectrum::Residues>(accum.store));
      continue;
    }
    core::ScratchFrame frame(core::thread_scratch());
    std::span<double> vals = frame.alloc<double>(p.n);
    ctx_.fft().inverse_into(std::get<Spectrum::HalfSpectrum>(accum.store), vals, &frame.arena());
    out[k] = Poly(p.q, p.n);
    for (std::size_t i = 0; i < p.n; ++i) {
      out[k][i] = hemath::from_signed(static_cast<i64>(std::llround(vals[i])), p.q);
    }
  }
  if (backend_ == PolyMulBackend::kNtt) {
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64*> ptrs = frame.alloc<u64*>(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) ptrs[k] = out[k].coeffs().data();
    ctx_.ntt().inverse_batch_into(ptrs, &frame.arena());
  }
  bump(counters_.inverse_transforms, out.size());
}

Poly PolyMulEngine::multiply(const Poly& ct_poly, const PlainSpectrum& w) const {
  check_spectrum(w, "PolyMulEngine::multiply");
  SpectralAccumulator accum;
  multiply_accumulate(transform_cipher_spectrum(ct_poly), w, accum);
  return finalize(accum);
}

}  // namespace flash::bfv
