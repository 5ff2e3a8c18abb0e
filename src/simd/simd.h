// Explicit SIMD abstraction.
//
// The paper's central optimization is vectorizing the B-spline
// mutual-information kernel for the Xeon Phi's 512-bit vector processing
// units. The Phi itself is no longer available; this layer reproduces the
// same code structure on modern ISAs:
//
//   * F32x16 — 512-bit (AVX-512F), the width the paper targets,
//   * F32x8  — 256-bit (AVX2+FMA), the paper's Xeon-host configuration,
//   * F32x4  — 128-bit (SSE2), used for the k-wide histogram-row updates,
//   * ScalarF32<W> — portable fallback with identical semantics.
//
// All wrappers share one API (load/loadu/store/storeu/broadcast/zero,
// +,-,*, fmadd, reduce_add) so kernels are written once per *shape* and
// instantiated per width. The aliases at the bottom pick the widest type
// the build supports; kernels dispatch on them at compile time and the
// benchmarks report which path actually ran.
#pragma once

#include <cstddef>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace tinge::simd {

// ---------------------------------------------------------------------------
// Portable scalar fallback (reference semantics for every other backend).
// ---------------------------------------------------------------------------
template <int W>
struct ScalarF32 {
  static constexpr int width = W;
  float lane[W];

  static ScalarF32 zero() {
    ScalarF32 r;
    for (int i = 0; i < W; ++i) r.lane[i] = 0.0f;
    return r;
  }
  static ScalarF32 broadcast(float v) {
    ScalarF32 r;
    for (int i = 0; i < W; ++i) r.lane[i] = v;
    return r;
  }
  static ScalarF32 load(const float* p) { return loadu(p); }
  static ScalarF32 loadu(const float* p) {
    ScalarF32 r;
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  void store(float* p) const { storeu(p); }
  void storeu(float* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  friend ScalarF32 operator+(ScalarF32 a, ScalarF32 b) {
    for (int i = 0; i < W; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend ScalarF32 operator-(ScalarF32 a, ScalarF32 b) {
    for (int i = 0; i < W; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend ScalarF32 operator*(ScalarF32 a, ScalarF32 b) {
    for (int i = 0; i < W; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  /// a*b + c
  static ScalarF32 fmadd(ScalarF32 a, ScalarF32 b, ScalarF32 c) {
    for (int i = 0; i < W; ++i) c.lane[i] += a.lane[i] * b.lane[i];
    return c;
  }
  float reduce_add() const {
    float s = 0.0f;
    for (int i = 0; i < W; ++i) s += lane[i];
    return s;
  }
};

// ---------------------------------------------------------------------------
// 128-bit SSE2
// ---------------------------------------------------------------------------
#if defined(__SSE2__)
struct F32x4 {
  static constexpr int width = 4;
  __m128 v;

  F32x4() = default;
  explicit F32x4(__m128 raw) : v(raw) {}

  static F32x4 zero() { return F32x4(_mm_setzero_ps()); }
  static F32x4 broadcast(float x) { return F32x4(_mm_set1_ps(x)); }
  static F32x4 load(const float* p) { return F32x4(_mm_load_ps(p)); }
  static F32x4 loadu(const float* p) { return F32x4(_mm_loadu_ps(p)); }
  void store(float* p) const { _mm_store_ps(p, v); }
  void storeu(float* p) const { _mm_storeu_ps(p, v); }
  friend F32x4 operator+(F32x4 a, F32x4 b) { return F32x4(_mm_add_ps(a.v, b.v)); }
  friend F32x4 operator-(F32x4 a, F32x4 b) { return F32x4(_mm_sub_ps(a.v, b.v)); }
  friend F32x4 operator*(F32x4 a, F32x4 b) { return F32x4(_mm_mul_ps(a.v, b.v)); }
  static F32x4 fmadd(F32x4 a, F32x4 b, F32x4 c) {
#if defined(__FMA__)
    return F32x4(_mm_fmadd_ps(a.v, b.v, c.v));
#else
    return F32x4(_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v));
#endif
  }
  float reduce_add() const {
    __m128 shuf = _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 3, 0, 1));
    __m128 sums = _mm_add_ps(v, shuf);
    shuf = _mm_movehl_ps(shuf, sums);
    sums = _mm_add_ss(sums, shuf);
    return _mm_cvtss_f32(sums);
  }
};
#else
using F32x4 = ScalarF32<4>;
#endif

// ---------------------------------------------------------------------------
// 256-bit AVX2
// ---------------------------------------------------------------------------
#if defined(__AVX2__)
struct F32x8 {
  static constexpr int width = 8;
  __m256 v;

  F32x8() = default;
  explicit F32x8(__m256 raw) : v(raw) {}

  static F32x8 zero() { return F32x8(_mm256_setzero_ps()); }
  static F32x8 broadcast(float x) { return F32x8(_mm256_set1_ps(x)); }
  static F32x8 load(const float* p) { return F32x8(_mm256_load_ps(p)); }
  static F32x8 loadu(const float* p) { return F32x8(_mm256_loadu_ps(p)); }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  friend F32x8 operator+(F32x8 a, F32x8 b) { return F32x8(_mm256_add_ps(a.v, b.v)); }
  friend F32x8 operator-(F32x8 a, F32x8 b) { return F32x8(_mm256_sub_ps(a.v, b.v)); }
  friend F32x8 operator*(F32x8 a, F32x8 b) { return F32x8(_mm256_mul_ps(a.v, b.v)); }
  static F32x8 fmadd(F32x8 a, F32x8 b, F32x8 c) {
#if defined(__FMA__)
    return F32x8(_mm256_fmadd_ps(a.v, b.v, c.v));
#else
    return F32x8(_mm256_add_ps(_mm256_mul_ps(a.v, b.v), c.v));
#endif
  }
  float reduce_add() const {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    return F32x4(_mm_add_ps(lo, hi)).reduce_add();
  }
};
#else
using F32x8 = ScalarF32<8>;
#endif

// ---------------------------------------------------------------------------
// 512-bit AVX-512F — the Phi-equivalent vector width.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)
struct F32x16 {
  static constexpr int width = 16;
  __m512 v;

  F32x16() = default;
  explicit F32x16(__m512 raw) : v(raw) {}

  static F32x16 zero() { return F32x16(_mm512_setzero_ps()); }
  static F32x16 broadcast(float x) { return F32x16(_mm512_set1_ps(x)); }
  static F32x16 load(const float* p) { return F32x16(_mm512_load_ps(p)); }
  static F32x16 loadu(const float* p) { return F32x16(_mm512_loadu_ps(p)); }
  void store(float* p) const { _mm512_store_ps(p, v); }
  void storeu(float* p) const { _mm512_storeu_ps(p, v); }
  friend F32x16 operator+(F32x16 a, F32x16 b) { return F32x16(_mm512_add_ps(a.v, b.v)); }
  friend F32x16 operator-(F32x16 a, F32x16 b) { return F32x16(_mm512_sub_ps(a.v, b.v)); }
  friend F32x16 operator*(F32x16 a, F32x16 b) { return F32x16(_mm512_mul_ps(a.v, b.v)); }
  static F32x16 fmadd(F32x16 a, F32x16 b, F32x16 c) {
    return F32x16(_mm512_fmadd_ps(a.v, b.v, c.v));
  }
  /// _mm512_reduce_add_ps's summation order. GCC 12 extracts the halves
  /// with an undefined merge source, which -Wuninitialized flags once
  /// inlined; the zero-masked extract with every lane selected is the same
  /// instruction on a defined source.
  float reduce_add() const {
    const __m512d d = _mm512_castps_pd(v);
    const __m256 s8 =
        _mm256_add_ps(_mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xFF, d, 1)),
                      _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xFF, d, 0)));
    const __m128 s4 =
        _mm_add_ps(_mm256_extractf128_ps(s8, 1), _mm256_castps256_ps128(s8));
    const __m128 s2 =
        _mm_add_ps(s4, _mm_shuffle_ps(s4, s4, _MM_SHUFFLE(1, 0, 3, 2)));
    return _mm_cvtss_f32(s2) +
           _mm_cvtss_f32(_mm_shuffle_ps(s2, s2, _MM_SHUFFLE(1, 1, 1, 1)));
  }
};
#else
using F32x16 = ScalarF32<16>;
#endif

// ---------------------------------------------------------------------------
// Build-time selection of the widest available float vector.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)
using NativeF32 = F32x16;
inline constexpr const char* kNativeIsa = "AVX-512";
#elif defined(__AVX2__)
using NativeF32 = F32x8;
inline constexpr const char* kNativeIsa = "AVX2";
#elif defined(__SSE2__)
using NativeF32 = F32x4;
inline constexpr const char* kNativeIsa = "SSE2";
#else
using NativeF32 = ScalarF32<4>;
inline constexpr const char* kNativeIsa = "scalar";
#endif

inline constexpr int kNativeFloatWidth = NativeF32::width;

}  // namespace tinge::simd
