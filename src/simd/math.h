// Vectorized transcendentals for the entropy pass.
//
// Computing H(X,Y) = -sum p.log(p) over the bxb joint histogram costs one
// logarithm per bin; with b around 16-32 that is several hundred logs per
// gene pair and, at ~20 cycles per scalar logf, rivals the histogram
// accumulation itself. The paper leans on the Phi's vector log (SVML); we
// reproduce it with the classic Cephes polynomial (the sse_mathfun.h
// formulation) on 128/256/512-bit registers.
//
// Domain note: log_positive() is only defined for x > 0 and finite (denormals
// are flushed to the smallest normal). That is exactly the histogram-bin
// domain; neg_xlogx() additionally maps p <= 0 to 0, the standard
// 0*log(0) = 0 convention of entropy.
#pragma once

#include <cmath>

#include "simd/simd.h"

namespace tinge::simd {

namespace detail {
// Cephes logf coefficients (Moshier; as popularized by sse_mathfun.h).
inline constexpr float kLogP0 = 7.0376836292e-2f;
inline constexpr float kLogP1 = -1.1514610310e-1f;
inline constexpr float kLogP2 = 1.1676998740e-1f;
inline constexpr float kLogP3 = -1.2420140846e-1f;
inline constexpr float kLogP4 = 1.4249322787e-1f;
inline constexpr float kLogP5 = -1.6668057665e-1f;
inline constexpr float kLogP6 = 2.0000714765e-1f;
inline constexpr float kLogP7 = -2.4999993993e-1f;
inline constexpr float kLogP8 = 3.3333331174e-1f;
inline constexpr float kLogQ1 = -2.12194440e-4f;  // ln(2) low bits
inline constexpr float kLogQ2 = 0.693359375f;     // ln(2) high bits
inline constexpr float kSqrtHalf = 0.707106781186547524f;
inline constexpr float kMinNormal = 1.17549435e-38f;
#if defined(__AVX512F__)
// GCC 12's unmasked AVX-512 intrinsics (_mm512_max_ps, _mm512_srli_epi32,
// _mm512_cvtepi32_ps) merge into an _mm512_undefined_*() source, which
// -Wmaybe-uninitialized flags once they are inlined into a caller. The
// zero-masked forms with every lane selected compute the same lanes from a
// defined source, and compile to the same unmasked instructions.
inline constexpr __mmask16 kAllLanes = 0xFFFF;
#endif
}  // namespace detail

/// Scalar reference (and fallback lane implementation).
inline float log_positive(float x) { return std::log(x); }

/// -p*log(p) with the entropy convention 0*log(0) = 0.
inline float neg_xlogx(float p) { return p > 0.0f ? -p * std::log(p) : 0.0f; }

template <int W>
ScalarF32<W> log_positive(ScalarF32<W> x) {
  for (int i = 0; i < W; ++i) x.lane[i] = std::log(x.lane[i]);
  return x;
}

template <int W>
ScalarF32<W> neg_xlogx(ScalarF32<W> p) {
  for (int i = 0; i < W; ++i) p.lane[i] = neg_xlogx(p.lane[i]);
  return p;
}

#if defined(__SSE2__)
inline F32x4 log_positive(F32x4 xv) {
  __m128 x = _mm_max_ps(xv.v, _mm_set1_ps(detail::kMinNormal));
  __m128i emm0 = _mm_srli_epi32(_mm_castps_si128(x), 23);
  // keep mantissa bits, force exponent to that of 0.5
  x = _mm_and_ps(x, _mm_castsi128_ps(_mm_set1_epi32(~0x7f800000)));
  x = _mm_or_ps(x, _mm_set1_ps(0.5f));
  emm0 = _mm_sub_epi32(emm0, _mm_set1_epi32(0x7f));
  __m128 e = _mm_add_ps(_mm_cvtepi32_ps(emm0), _mm_set1_ps(1.0f));
  const __m128 mask = _mm_cmplt_ps(x, _mm_set1_ps(detail::kSqrtHalf));
  const __m128 tmp = _mm_and_ps(x, mask);
  x = _mm_sub_ps(x, _mm_set1_ps(1.0f));
  e = _mm_sub_ps(e, _mm_and_ps(_mm_set1_ps(1.0f), mask));
  x = _mm_add_ps(x, tmp);
  const __m128 z = _mm_mul_ps(x, x);
  __m128 y = _mm_set1_ps(detail::kLogP0);
  const auto step = [&](float c) {
    y = _mm_add_ps(_mm_mul_ps(y, x), _mm_set1_ps(c));
  };
  step(detail::kLogP1); step(detail::kLogP2); step(detail::kLogP3);
  step(detail::kLogP4); step(detail::kLogP5); step(detail::kLogP6);
  step(detail::kLogP7); step(detail::kLogP8);
  y = _mm_mul_ps(_mm_mul_ps(y, x), z);
  y = _mm_add_ps(y, _mm_mul_ps(e, _mm_set1_ps(detail::kLogQ1)));
  y = _mm_sub_ps(y, _mm_mul_ps(z, _mm_set1_ps(0.5f)));
  x = _mm_add_ps(x, y);
  x = _mm_add_ps(x, _mm_mul_ps(e, _mm_set1_ps(detail::kLogQ2)));
  return F32x4(x);
}

inline F32x4 neg_xlogx(F32x4 p) {
  const __m128 positive = _mm_cmpgt_ps(p.v, _mm_setzero_ps());
  const F32x4 logp = log_positive(F32x4(_mm_max_ps(p.v, _mm_set1_ps(detail::kMinNormal))));
  const __m128 r = _mm_sub_ps(_mm_setzero_ps(), _mm_mul_ps(p.v, logp.v));
  return F32x4(_mm_and_ps(r, positive));
}
#endif  // __SSE2__

#if defined(__AVX2__)
inline F32x8 log_positive(F32x8 xv) {
  __m256 x = _mm256_max_ps(xv.v, _mm256_set1_ps(detail::kMinNormal));
  __m256i emm0 = _mm256_srli_epi32(_mm256_castps_si256(x), 23);
  x = _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(~0x7f800000)));
  x = _mm256_or_ps(x, _mm256_set1_ps(0.5f));
  emm0 = _mm256_sub_epi32(emm0, _mm256_set1_epi32(0x7f));
  __m256 e = _mm256_add_ps(_mm256_cvtepi32_ps(emm0), _mm256_set1_ps(1.0f));
  const __m256 mask = _mm256_cmp_ps(x, _mm256_set1_ps(detail::kSqrtHalf), _CMP_LT_OS);
  const __m256 tmp = _mm256_and_ps(x, mask);
  x = _mm256_sub_ps(x, _mm256_set1_ps(1.0f));
  e = _mm256_sub_ps(e, _mm256_and_ps(_mm256_set1_ps(1.0f), mask));
  x = _mm256_add_ps(x, tmp);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(detail::kLogP0);
  const auto step = [&](float c) {
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(c));
  };
  step(detail::kLogP1); step(detail::kLogP2); step(detail::kLogP3);
  step(detail::kLogP4); step(detail::kLogP5); step(detail::kLogP6);
  step(detail::kLogP7); step(detail::kLogP8);
  y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
  y = _mm256_fmadd_ps(e, _mm256_set1_ps(detail::kLogQ1), y);
  y = _mm256_fnmadd_ps(z, _mm256_set1_ps(0.5f), y);
  x = _mm256_add_ps(x, y);
  x = _mm256_fmadd_ps(e, _mm256_set1_ps(detail::kLogQ2), x);
  return F32x8(x);
}

inline F32x8 neg_xlogx(F32x8 p) {
  const __m256 positive = _mm256_cmp_ps(p.v, _mm256_setzero_ps(), _CMP_GT_OS);
  const F32x8 logp =
      log_positive(F32x8(_mm256_max_ps(p.v, _mm256_set1_ps(detail::kMinNormal))));
  const __m256 r = _mm256_sub_ps(_mm256_setzero_ps(), _mm256_mul_ps(p.v, logp.v));
  return F32x8(_mm256_and_ps(r, positive));
}
#endif  // __AVX2__

#if defined(__AVX512F__)
inline F32x16 log_positive(F32x16 xv) {
  __m512 x = _mm512_maskz_max_ps(detail::kAllLanes, xv.v,
                                 _mm512_set1_ps(detail::kMinNormal));
  __m512i emm0 =
      _mm512_maskz_srli_epi32(detail::kAllLanes, _mm512_castps_si512(x), 23);
  __m512i bits = _mm512_castps_si512(x);
  bits = _mm512_and_si512(bits, _mm512_set1_epi32(~0x7f800000));
  bits = _mm512_or_si512(bits, _mm512_castps_si512(_mm512_set1_ps(0.5f)));
  x = _mm512_castsi512_ps(bits);
  emm0 = _mm512_sub_epi32(emm0, _mm512_set1_epi32(0x7f));
  __m512 e = _mm512_add_ps(_mm512_maskz_cvtepi32_ps(detail::kAllLanes, emm0),
                           _mm512_set1_ps(1.0f));
  const __mmask16 below = _mm512_cmp_ps_mask(x, _mm512_set1_ps(detail::kSqrtHalf), _CMP_LT_OS);
  const __m512 tmp = _mm512_maskz_mov_ps(below, x);
  x = _mm512_sub_ps(x, _mm512_set1_ps(1.0f));
  e = _mm512_mask_sub_ps(e, below, e, _mm512_set1_ps(1.0f));
  x = _mm512_add_ps(x, tmp);
  const __m512 z = _mm512_mul_ps(x, x);
  __m512 y = _mm512_set1_ps(detail::kLogP0);
  const auto step = [&](float c) {
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(c));
  };
  step(detail::kLogP1); step(detail::kLogP2); step(detail::kLogP3);
  step(detail::kLogP4); step(detail::kLogP5); step(detail::kLogP6);
  step(detail::kLogP7); step(detail::kLogP8);
  y = _mm512_mul_ps(_mm512_mul_ps(y, x), z);
  y = _mm512_fmadd_ps(e, _mm512_set1_ps(detail::kLogQ1), y);
  y = _mm512_fnmadd_ps(z, _mm512_set1_ps(0.5f), y);
  x = _mm512_add_ps(x, y);
  x = _mm512_fmadd_ps(e, _mm512_set1_ps(detail::kLogQ2), x);
  return F32x16(x);
}

inline F32x16 neg_xlogx(F32x16 p) {
  const __mmask16 positive = _mm512_cmp_ps_mask(p.v, _mm512_setzero_ps(), _CMP_GT_OS);
  const F32x16 logp = log_positive(F32x16(_mm512_maskz_max_ps(
      detail::kAllLanes, p.v, _mm512_set1_ps(detail::kMinNormal))));
  const __m512 r = _mm512_sub_ps(_mm512_setzero_ps(), _mm512_mul_ps(p.v, logp.v));
  return F32x16(_mm512_maskz_mov_ps(positive, r));
}
#endif  // __AVX512F__

/// Sum of -p*log(p) over `count` floats (any alignment, any count).
/// The partial sums follow one fixed layout whatever the native width —
/// cell i feeds lane i % 16, and the 16 lanes are reduced in a fixed
/// pairwise order — so builds whose vector log is fused (AVX2, AVX-512)
/// return the same bits. A scalar tail covers count % 16 cells.
inline double entropy_sum(const float* p, std::size_t count) {
  using V = NativeF32;
  constexpr std::size_t kLanes = 16;
  constexpr std::size_t W = static_cast<std::size_t>(V::width);
  static_assert(kLanes % W == 0);
  constexpr std::size_t R = kLanes / W;  // vectors per 16 cells
  V acc[R];
  for (std::size_t r = 0; r < R; ++r) acc[r] = V::zero();
  // The tail is counted from its own bound (< 16 cells) rather than by
  // resuming the body's index, which GCC 12 cannot bound and flags under
  // -Waggressive-loop-optimizations once inlined with a constant count.
  const std::size_t tail = count % kLanes;
  const std::size_t body = count - tail;
  for (std::size_t i = 0; i < body; i += kLanes)
    for (std::size_t r = 0; r < R; ++r)
      acc[r] = acc[r] + neg_xlogx(V::loadu(p + i + r * W));
  float lanes[kLanes];
  for (std::size_t r = 0; r < R; ++r) acc[r].storeu(lanes + r * W);
  for (std::size_t half = kLanes / 2; half >= 1; half /= 2)
    for (std::size_t l = 0; l < half; ++l) lanes[l] += lanes[l + half];
  double total = lanes[0];
  for (std::size_t t = 0; t < tail; ++t) total += neg_xlogx(p[body + t]);
  return total;
}

}  // namespace tinge::simd
