// SIMD substrate: every wrapper type must agree with scalar semantics, and
// the vectorized log/entropy paths must match libm within estimator noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "simd/feature.h"
#include "simd/math.h"
#include "simd/simd.h"
#include "stats/rng.h"
#include "util/aligned.h"

namespace tinge {
namespace {

template <typename V>
class SimdOps : public ::testing::Test {};

using VectorTypes =
    ::testing::Types<simd::F32x4, simd::F32x8, simd::F32x16,
                     simd::ScalarF32<4>, simd::ScalarF32<8>,
                     simd::ScalarF32<16>>;
TYPED_TEST_SUITE(SimdOps, VectorTypes);

TYPED_TEST(SimdOps, BroadcastAndStore) {
  using V = TypeParam;
  float out[V::width];
  V::broadcast(3.25f).storeu(out);
  for (int i = 0; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], 3.25f);
}

TYPED_TEST(SimdOps, ZeroIsZero) {
  using V = TypeParam;
  float out[V::width];
  V::zero().storeu(out);
  for (int i = 0; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], 0.0f);
}

TYPED_TEST(SimdOps, LoadAddMulStoreRoundtrip) {
  using V = TypeParam;
  float a[V::width], b[V::width], out[V::width];
  for (int i = 0; i < V::width; ++i) {
    a[i] = static_cast<float>(i) + 0.5f;
    b[i] = 2.0f - static_cast<float>(i) * 0.25f;
  }
  (V::loadu(a) + V::loadu(b)).storeu(out);
  for (int i = 0; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], a[i] + b[i]);
  (V::loadu(a) * V::loadu(b)).storeu(out);
  for (int i = 0; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], a[i] * b[i]);
  (V::loadu(a) - V::loadu(b)).storeu(out);
  for (int i = 0; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], a[i] - b[i]);
}

TYPED_TEST(SimdOps, FmaddMatchesScalar) {
  using V = TypeParam;
  float a[V::width], b[V::width], c[V::width], out[V::width];
  for (int i = 0; i < V::width; ++i) {
    a[i] = 0.1f * static_cast<float>(i + 1);
    b[i] = 1.0f - 0.05f * static_cast<float>(i);
    c[i] = static_cast<float>(i);
  }
  V::fmadd(V::loadu(a), V::loadu(b), V::loadu(c)).storeu(out);
  for (int i = 0; i < V::width; ++i)
    EXPECT_NEAR(out[i], a[i] * b[i] + c[i], 1e-6f);
}

TYPED_TEST(SimdOps, ReduceAdd) {
  using V = TypeParam;
  float a[V::width];
  float expected = 0.0f;
  for (int i = 0; i < V::width; ++i) {
    a[i] = static_cast<float>(i) * 0.75f - 1.0f;
    expected += a[i];
  }
  EXPECT_NEAR(V::loadu(a).reduce_add(), expected, 1e-5f);
}

TYPED_TEST(SimdOps, AlignedLoadStore) {
  using V = TypeParam;
  AlignedBuffer<float> buf(static_cast<std::size_t>(V::width) * 2);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<float>(i);
  const V v = V::load(buf.data());
  v.store(buf.data() + V::width);
  for (int i = 0; i < V::width; ++i)
    EXPECT_FLOAT_EQ(buf[static_cast<std::size_t>(V::width + i)],
                    static_cast<float>(i));
}

TYPED_TEST(SimdOps, LogPositiveMatchesLibm) {
  using V = TypeParam;
  const float probes[] = {1e-30f, 1e-12f, 1e-6f, 0.001f, 0.09f, 0.5f,
                          0.9999f, 1.0f,  1.5f,  2.0f,   777.0f, 3e8f};
  for (const float x : probes) {
    float in[V::width], out[V::width];
    for (int i = 0; i < V::width; ++i)
      in[i] = x * (1.0f + 0.01f * static_cast<float>(i));
    log_positive(V::loadu(in)).storeu(out);
    for (int i = 0; i < V::width; ++i) {
      const float expected = std::log(in[i]);
      EXPECT_NEAR(out[i], expected, std::abs(expected) * 3e-6f + 3e-6f)
          << "x=" << in[i];
    }
  }
}

TYPED_TEST(SimdOps, NegXlogxHandlesZeroAndNegatives) {
  using V = TypeParam;
  float in[V::width], out[V::width];
  for (int i = 0; i < V::width; ++i) in[i] = 0.0f;
  in[0] = 0.5f;                       // -0.5*log(0.5) = 0.3466
  if (V::width > 1) in[1] = -0.25f;   // negative -> 0 by convention
  if (V::width > 2) in[2] = 1.0f;     // -1*log(1) = 0
  neg_xlogx(V::loadu(in)).storeu(out);
  EXPECT_NEAR(out[0], 0.34657359f, 1e-6f);
  if (V::width > 1) {
    EXPECT_FLOAT_EQ(out[1], 0.0f);
  }
  if (V::width > 2) {
    EXPECT_NEAR(out[2], 0.0f, 1e-7f);
  }
  for (int i = 3; i < V::width; ++i) EXPECT_FLOAT_EQ(out[i], 0.0f);
}

TEST(SimdMath, EntropySumMatchesScalarReference) {
  for (const std::size_t count : {1u, 7u, 16u, 33u, 100u, 257u}) {
    std::vector<float> p(count);
    double expected = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      p[i] = (i % 5 == 0) ? 0.0f
                          : static_cast<float>(i + 1) /
                                static_cast<float>(count * count);
      if (p[i] > 0.0f)
        expected -= static_cast<double>(p[i]) * std::log(static_cast<double>(p[i]));
    }
    EXPECT_NEAR(simd::entropy_sum(p.data(), count), expected, 1e-5)
        << "count=" << count;
  }
}

TEST(SimdMath, EntropySumOfUniformDistribution) {
  // -sum (1/n) log(1/n) = log n.
  const std::size_t n = 64;
  std::vector<float> p(n, 1.0f / static_cast<float>(n));
  EXPECT_NEAR(simd::entropy_sum(p.data(), n), std::log(static_cast<double>(n)),
              1e-5);
}

TEST(SimdFeature, ReportMentionsCompiledIsa) {
  const std::string report = simd::isa_report();
  EXPECT_NE(report.find(simd::kNativeIsa), std::string::npos);
  EXPECT_NE(report.find("lanes"), std::string::npos);
}

TEST(SimdFeature, RuntimeDetectionConsistentWithBuild) {
  const auto features = simd::detect_cpu_features();
#if defined(__AVX512F__)
  EXPECT_TRUE(features.avx512f) << "binary compiled for AVX-512 on a non-AVX-512 CPU";
#endif
#if defined(__AVX2__)
  EXPECT_TRUE(features.avx2);
#endif
#if defined(__SSE2__)
  EXPECT_TRUE(features.sse2);
#endif
}

TEST(SimdConfig, NativeWidthIsPowerOfTwo) {
  EXPECT_GT(simd::kNativeFloatWidth, 0);
  EXPECT_EQ(simd::kNativeFloatWidth & (simd::kNativeFloatWidth - 1), 0);
}


// ---- parameterized log-accuracy sweep over exponent decades -----------------

class LogAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(LogAccuracy, NativeVectorLogWithinToleranceAcrossDecade) {
  using V = simd::NativeF32;
  const int decade = GetParam();
  const float base = std::pow(10.0f, static_cast<float>(decade));
  float in[V::width], out[V::width];
  // 64 probes spread across the decade.
  for (int probe = 0; probe < 64; probe += V::width) {
    for (int i = 0; i < V::width; ++i) {
      const float frac =
          static_cast<float>(probe + i) / 64.0f * 9.0f + 1.0f;  // [1, 10)
      in[i] = base * frac;
    }
    log_positive(V::loadu(in)).storeu(out);
    for (int i = 0; i < V::width; ++i) {
      const float expected = std::log(in[i]);
      EXPECT_NEAR(out[i], expected, std::fabs(expected) * 4e-6f + 4e-6f)
          << "x=" << in[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Decades, LogAccuracy,
                         ::testing::Values(-30, -20, -10, -4, -1, 0, 1, 4, 10,
                                           20, 30),
                         [](const auto& param_info) {
                           const int d = param_info.param;
                           return std::string(d < 0 ? "em" : "e")
                               .append(std::to_string(d < 0 ? -d : d));
                         });

TEST(SimdMath, EntropySumInvariantUnderPermutation) {
  // The histogram entropy must not depend on cell order (up to float
  // reassociation; tolerance covers it).
  std::vector<float> p(128);
  Xoshiro256 rng(3);
  float total = 0.0f;
  for (auto& v : p) {
    v = rng.uniformf();
    total += v;
  }
  for (auto& v : p) v /= total;
  const double forward = simd::entropy_sum(p.data(), p.size());
  std::reverse(p.begin(), p.end());
  const double backward = simd::entropy_sum(p.data(), p.size());
  EXPECT_NEAR(forward, backward, 1e-5);
}

}  // namespace
}  // namespace tinge
