// B-spline basis correctness: partition of unity, locality, agreement with
// the plain Cox–de Boor recursion, boundary behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "mi/bspline.h"

namespace tinge {
namespace {

TEST(BsplineBasis, RejectsBadConfigurations) {
  EXPECT_THROW(BsplineBasis(2, 3), ContractViolation);   // bins < order
  EXPECT_THROW(BsplineBasis(10, 0), ContractViolation);  // order < 1
  EXPECT_THROW(BsplineBasis(10, 9), ContractViolation);  // order > kMaxOrder
}

TEST(BsplineBasis, Order1IsHardBinning) {
  const BsplineBasis basis(4, 1);
  float w[BsplineBasis::kMaxOrder];
  EXPECT_EQ(basis.evaluate(0.0f, w), 0);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
  EXPECT_EQ(basis.evaluate(0.30f, w), 1);
  EXPECT_FLOAT_EQ(w[0], 1.0f);
  EXPECT_EQ(basis.evaluate(0.99f, w), 3);
  EXPECT_EQ(basis.evaluate(1.0f, w), 3);  // right endpoint closed
}

TEST(BsplineBasis, EvaluateRejectsOutOfDomain) {
  const BsplineBasis basis(10, 3);
  float w[BsplineBasis::kMaxOrder];
  EXPECT_THROW(basis.evaluate(-0.01f, w), ContractViolation);
  EXPECT_THROW(basis.evaluate(1.01f, w), ContractViolation);
}

TEST(BsplineBasis, FirstIndexStaysInRange) {
  const BsplineBasis basis(10, 3);
  float w[BsplineBasis::kMaxOrder];
  for (int i = 0; i <= 1000; ++i) {
    const float z = static_cast<float>(i) / 1000.0f;
    const int first = basis.evaluate(z, w);
    EXPECT_GE(first, 0) << "z=" << z;
    EXPECT_LE(first + basis.order(), basis.bins()) << "z=" << z;
  }
}

TEST(BsplineBasis, EndpointsConcentrateMassOnOuterBins) {
  const BsplineBasis basis(10, 3);
  float w[BsplineBasis::kMaxOrder];
  int first = basis.evaluate(0.0f, w);
  EXPECT_EQ(first, 0);
  EXPECT_NEAR(w[0], 1.0f, 1e-6f);  // clamped knots: B_0(0) = 1
  first = basis.evaluate(1.0f, w);
  EXPECT_EQ(first + basis.order(), basis.bins());
  EXPECT_NEAR(w[basis.order() - 1], 1.0f, 1e-6f);
}

// ---- property sweeps over (bins, order) -----------------------------------

class BsplineProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BsplineProperty, PartitionOfUnity) {
  const auto [bins, order] = GetParam();
  const BsplineBasis basis(bins, order);
  float w[BsplineBasis::kMaxOrder];
  for (int i = 0; i <= 500; ++i) {
    const float z = static_cast<float>(i) / 500.0f;
    basis.evaluate(z, w);
    float sum = 0.0f;
    for (int c = 0; c < order; ++c) {
      EXPECT_GE(w[c], -1e-6f) << "negative weight at z=" << z;
      sum += w[c];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "z=" << z;
  }
}

TEST_P(BsplineProperty, MatchesCoxDeBoorReference) {
  const auto [bins, order] = GetParam();
  const BsplineBasis basis(bins, order);
  float w[BsplineBasis::kMaxOrder];
  for (int i = 0; i <= 200; ++i) {
    const double z = static_cast<double>(i) / 200.0;
    const auto all = basis.evaluate_all(z);
    const int first = basis.evaluate(static_cast<float>(z), w);
    for (int bin = 0; bin < bins; ++bin) {
      const double expected = all[static_cast<std::size_t>(bin)];
      const double actual =
          (bin >= first && bin < first + order)
              ? static_cast<double>(w[bin - first])
              : 0.0;
      EXPECT_NEAR(actual, expected, 1e-6)
          << "bin " << bin << " at z=" << z << " (b=" << bins
          << ", k=" << order << ")";
    }
  }
}

TEST_P(BsplineProperty, ReferencePartitionOfUnity) {
  const auto [bins, order] = GetParam();
  const BsplineBasis basis(bins, order);
  for (int i = 0; i <= 100; ++i) {
    const double z = static_cast<double>(i) / 100.0;
    const auto all = basis.evaluate_all(z);
    double sum = 0.0;
    for (const double v : all) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9) << "z=" << z;
  }
}

TEST_P(BsplineProperty, ContinuityAcrossKnots) {
  const auto [bins, order] = GetParam();
  if (order < 2) GTEST_SKIP() << "order-1 splines are discontinuous by design";
  const BsplineBasis basis(bins, order);
  float w_left[BsplineBasis::kMaxOrder];
  float w_right[BsplineBasis::kMaxOrder];
  // Check value continuity at each interior knot by comparing both sides.
  const double extent = basis.domain_extent();
  for (int knot = 1; knot < bins - order + 1; ++knot) {
    const float z = static_cast<float>(knot / extent);
    const float eps = 1e-5f;
    const int f_left = basis.evaluate(z - eps, w_left);
    const int f_right = basis.evaluate(z + eps, w_right);
    // Compare expanded vectors.
    for (int bin = 0; bin < bins; ++bin) {
      const float left = (bin >= f_left && bin < f_left + order)
                             ? w_left[bin - f_left]
                             : 0.0f;
      const float right = (bin >= f_right && bin < f_right + order)
                              ? w_right[bin - f_right]
                              : 0.0f;
      EXPECT_NEAR(left, right, 1e-3f)
          << "discontinuity at knot " << knot << " bin " << bin;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BinsOrders, BsplineProperty,
    ::testing::Values(std::make_tuple(3, 1), std::make_tuple(4, 2),
                      std::make_tuple(10, 3), std::make_tuple(10, 4),
                      std::make_tuple(16, 3), std::make_tuple(27, 4),
                      std::make_tuple(8, 5), std::make_tuple(12, 6),
                      std::make_tuple(16, 8)),
    [](const auto& param_info) {
      return std::string("b")
          .append(std::to_string(std::get<0>(param_info.param)))
          .append("_k")
          .append(std::to_string(std::get<1>(param_info.param)));
    });


TEST(SuggestBins, GrowsSlowlyAndStaysBounded) {
  int previous = 0;
  for (const std::size_t m : {10u, 100u, 500u, 3137u, 100000u}) {
    const int bins = suggest_bins(m);
    EXPECT_GE(bins, 4);   // order + 1 with default order 3
    EXPECT_LE(bins, 30);
    EXPECT_GE(bins, previous) << "must be nondecreasing in m";
    previous = bins;
  }
  EXPECT_EQ(suggest_bins(3137), 15);  // ~cbrt(3137)
}

TEST(SuggestBins, RespectsOrderFloor) {
  EXPECT_GE(suggest_bins(10, 6), 7);
  EXPECT_THROW(suggest_bins(1), ContractViolation);
  EXPECT_THROW(suggest_bins(100, 0), ContractViolation);
}

}  // namespace
}  // namespace tinge
