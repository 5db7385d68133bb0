#include "hemath/pointwise.hpp"

#include "hemath/simd.hpp"

namespace flash::hemath {

namespace {

// Both Barrett kernels need q not a power of two (the quotient-estimate
// constant would need one bit more than a lane); tiny arrays are not worth
// the setup.
bool barrett_eligible(std::size_t n, u64 q) { return n >= 8 && (q & (q - 1)) != 0; }

bool use_ifma(std::size_t n, u64 q) {
  return simd::level_at_least(simd::SimdLevel::kAvx512Ifma) && barrett_eligible(n, q) &&
         q < (u64{1} << 50);
}

bool use_avx2(std::size_t n, u64 q) {
  return simd::level_at_least(simd::SimdLevel::kAvx2) && barrett_eligible(n, q) &&
         q < (u64{1} << 62);
}

}  // namespace

void pointwise_mulmod(const u64* a, const u64* b, u64* c, std::size_t n, u64 q) {
  if (use_ifma(n, q)) {
    detail::pointwise_mulmod_ifma(a, b, c, n, q);
    return;
  }
  if (use_avx2(n, q)) {
    detail::pointwise_mulmod_avx2(a, b, c, n, q);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) c[i] = mul_mod(a[i], b[i], q);
}

void pointwise_mulmod_accumulate(u64* acc, const u64* a, const u64* b, std::size_t n, u64 q) {
  if (use_ifma(n, q)) {
    detail::pointwise_mulmod_accumulate_ifma(acc, a, b, n, q);
    return;
  }
  if (use_avx2(n, q)) {
    detail::pointwise_mulmod_accumulate_avx2(acc, a, b, n, q);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) acc[i] = add_mod(acc[i], mul_mod(a[i], b[i], q), q);
}

}  // namespace flash::hemath
