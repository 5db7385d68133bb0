#include "bfv/polymul_engine.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

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
    PlainSpectrum& spec = out[k];
    spec.backend = backend_;
    switch (backend_) {
      case PolyMulBackend::kNtt: {
        // Lift only; the forward NTTs run batched below.
        spec.ntt.resize(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          spec.ntt[i] = hemath::from_signed(hemath::to_signed(pt.poly[i], p.t), p.q);
        }
        break;
      }
      case PolyMulBackend::kFft:
      case PolyMulBackend::kApproxFft: {
        core::ScratchFrame frame(core::thread_scratch());
        std::span<double> vals = frame.alloc<double>(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          vals[i] = static_cast<double>(hemath::to_signed(pt.poly[i], p.t));
        }
        spec.fft.resize(p.n / 2);
        if (backend_ == PolyMulBackend::kFft) {
          ctx_.fft().forward_into(vals, spec.fft);
        } else {
          approx_->forward_into(vals, spec.fft);
        }
        break;
      }
      case PolyMulBackend::kPow2: {
        // Signed lift mod t into Z_{2^k}: negative weights wrap into the
        // ring's upper half, exactly what u64 two's-complement masking
        // produces.
        spec.pow2.resize(p.n);
        for (std::size_t i = 0; i < p.n; ++i) {
          spec.pow2[i] = pow2_->from_signed(hemath::to_signed(pt.poly[i], p.t));
        }
        break;
      }
    }
  }
  if (backend_ == PolyMulBackend::kNtt) {
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64*> ptrs = frame.alloc<u64*>(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) ptrs[k] = out[k].ntt.data();
    ctx_.ntt().forward_batch_into(ptrs, &frame.arena());
  }
  bump(counters_.plain_transforms, pts.size());
}

std::vector<fft::cplx> PolyMulEngine::transform_cipher(const Poly& ct_poly) const {
  const auto& p = ctx_.params();
  core::ScratchFrame frame(core::thread_scratch());
  std::span<double> vals = frame.alloc<double>(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    vals[i] = static_cast<double>(hemath::to_signed(ct_poly[i], p.q));
  }
  bump(counters_.cipher_transforms);
  std::vector<fft::cplx> out(p.n / 2);
  ctx_.fft().forward_into(vals, out);
  return out;
}

std::vector<u64> PolyMulEngine::transform_cipher_ntt(const Poly& ct_poly) const {
  std::vector<u64> vals = ct_poly.coeffs();
  ctx_.ntt().forward(vals);
  bump(counters_.cipher_transforms);
  return vals;
}

std::vector<fft::cplx> PolyMulEngine::pointwise(const std::vector<fft::cplx>& ct_spec,
                                                const PlainSpectrum& w) const {
  if (w.backend == PolyMulBackend::kNtt) {
    throw std::invalid_argument("PolyMulEngine::pointwise: NTT spectrum on FP path");
  }
  if (ct_spec.size() != w.fft.size()) throw std::invalid_argument("pointwise: size mismatch");
  std::vector<fft::cplx> out(ct_spec.size());
  for (std::size_t i = 0; i < ct_spec.size(); ++i) out[i] = ct_spec[i] * w.fft[i];
  bump(counters_.pointwise_products, ct_spec.size());
  return out;
}

Poly PolyMulEngine::inverse_to_poly(const std::vector<fft::cplx>& spec) const {
  const auto& p = ctx_.params();
  core::ScratchFrame frame(core::thread_scratch());
  std::span<double> vals = frame.alloc<double>(p.n);
  ctx_.fft().inverse_into(spec, vals, &frame.arena());
  bump(counters_.inverse_transforms);
  Poly out(p.q, p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    out[i] = hemath::from_signed(static_cast<i64>(std::llround(vals[i])), p.q);
  }
  return out;
}

CipherSpectrum PolyMulEngine::transform_cipher_spectrum(const Poly& ct_poly) const {
  CipherSpectrum spec;
  spec.backend = backend_;
  if (backend_ == PolyMulBackend::kNtt) {
    spec.ntt = transform_cipher_ntt(ct_poly);
  } else if (backend_ == PolyMulBackend::kPow2) {
    // No spectral domain mod 2^k: the "transform" is the residues themselves
    // (already < q = 2^k, so already mask-reduced).
    spec.pow2 = ct_poly.coeffs();
    bump(counters_.cipher_transforms);
  } else {
    spec.fft = transform_cipher(ct_poly);
  }
  return spec;
}

void PolyMulEngine::multiply_accumulate(const CipherSpectrum& ct_spec, const PlainSpectrum& w,
                                        SpectralAccumulator& accum) const {
  if (ct_spec.backend != backend_ || w.backend != backend_) {
    throw std::invalid_argument("multiply_accumulate: backend mismatch");
  }
  const auto& p = ctx_.params();
  if (backend_ == PolyMulBackend::kNtt) {
    if (accum.empty) {
      accum.backend = backend_;
      accum.ntt.assign(p.n, 0);
      accum.empty = false;
    }
    hemath::pointwise_mulmod_accumulate(accum.ntt.data(), ct_spec.ntt.data(), w.ntt.data(), p.n,
                                        p.q);
    bump(counters_.pointwise_products, p.n);
  } else if (backend_ == PolyMulBackend::kPow2) {
    if (accum.empty) {
      accum.backend = backend_;
      accum.pow2.assign(p.n, 0);
      accum.empty = false;
    }
    // Each accumulate is a full negacyclic product (there is no cheap
    // spectral-domain point product mod 2^k); the sum stays in coefficient
    // domain so finalize is still a single copy per output polynomial.
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64> prod = frame.alloc<u64>(p.n);
    hemath::negacyclic_mul_pow2_into(ct_spec.pow2.data(), w.pow2.data(), prod.data(), p.n, *pow2_,
                                     &frame.arena());
    hemath::pointwise_add_pow2(accum.pow2.data(), prod.data(), p.n, *pow2_);
    bump(counters_.pointwise_products, hemath::pow2_mult_count(p.n));
  } else {
    if (accum.empty) {
      accum.backend = backend_;
      accum.fft.assign(p.n / 2, fft::cplx{0.0, 0.0});
      accum.empty = false;
    }
    for (std::size_t i = 0; i < p.n / 2; ++i) accum.fft[i] += ct_spec.fft[i] * w.fft[i];
    bump(counters_.pointwise_products, p.n / 2);
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
    if (accum.empty) throw std::invalid_argument("finalize: empty accumulator");
    if (accum.backend != backend_) throw std::invalid_argument("finalize: backend mismatch");
    switch (backend_) {
      case PolyMulBackend::kNtt:
        out[k] = Poly(p.q, accum.ntt);  // inverse NTTs run batched below
        break;
      case PolyMulBackend::kPow2:
        out[k] = Poly(p.q, accum.pow2);
        bump(counters_.inverse_transforms);
        break;
      case PolyMulBackend::kFft:
      case PolyMulBackend::kApproxFft:
        out[k] = inverse_to_poly(accum.fft);
        break;
    }
  }
  if (backend_ == PolyMulBackend::kNtt) {
    core::ScratchFrame frame(core::thread_scratch());
    std::span<u64*> ptrs = frame.alloc<u64*>(out.size());
    for (std::size_t k = 0; k < out.size(); ++k) ptrs[k] = out[k].coeffs().data();
    ctx_.ntt().inverse_batch_into(ptrs, &frame.arena());
    bump(counters_.inverse_transforms, out.size());
  }
}

Poly PolyMulEngine::multiply(const Poly& ct_poly, const PlainSpectrum& w) const {
  const auto& p = ctx_.params();
  if (w.backend != backend_) throw std::invalid_argument("PolyMulEngine::multiply: backend mismatch");
  switch (backend_) {
    case PolyMulBackend::kNtt: {
      std::vector<u64> ct = transform_cipher_ntt(ct_poly);
      std::vector<u64> prod;
      ctx_.ntt().pointwise(ct, w.ntt, prod);
      bump(counters_.pointwise_products, p.n);
      ctx_.ntt().inverse(prod);
      bump(counters_.inverse_transforms);
      return Poly(p.q, std::move(prod));
    }
    case PolyMulBackend::kFft:
    case PolyMulBackend::kApproxFft: {
      const std::vector<fft::cplx> ct_spec = transform_cipher(ct_poly);
      return inverse_to_poly(pointwise(ct_spec, w));
    }
    case PolyMulBackend::kPow2: {
      bump(counters_.cipher_transforms);
      std::vector<u64> prod(p.n);
      hemath::negacyclic_mul_pow2_into(ct_poly.coeffs().data(), w.pow2.data(), prod.data(), p.n,
                                       *pow2_);
      bump(counters_.pointwise_products, hemath::pow2_mult_count(p.n));
      bump(counters_.inverse_transforms);
      return Poly(p.q, std::move(prod));
    }
  }
  throw std::logic_error("PolyMulEngine::multiply: unreachable");
}

}  // namespace flash::bfv
