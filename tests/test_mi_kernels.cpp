// Kernel equivalence and correctness: every kernel name (the two kernels
// and the legacy aliases) must agree with the double-precision reference on
// random rank profiles, for every supported (bins, order) shape.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "mi/bspline_kernels.h"
#include "mi/bspline_mi.h"
#include "preprocess/rank_transform.h"
#include "reference_mi.h"
#include "stats/rng.h"

namespace tinge {
namespace {

std::vector<std::uint32_t> random_ranks(std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_permutation(m, rng);
}

class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<MiKernel, int, int, int>> {};

TEST_P(KernelEquivalence, MatchesReferenceJointEntropy) {
  const auto [kernel, bins, order, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();

  for (std::uint64_t trial = 0; trial < 5; ++trial) {
    const auto rx = random_ranks(m, 101 + trial);
    const auto ry = random_ranks(m, 909 + trial);
    const double reference =
        testref::joint_entropy_reference(rx, ry, bins, order);
    const double actual = estimator.joint_entropy(rx, ry, scratch, kernel);
    EXPECT_NEAR(actual, reference, 5e-4)
        << kernel_name(kernel) << " b=" << bins << " k=" << order
        << " m=" << m;
  }
}

TEST_P(KernelEquivalence, MarginalEntropyMatchesReference) {
  const auto [kernel, bins, order, m_int] = GetParam();
  (void)kernel;
  const auto m = static_cast<std::size_t>(m_int);
  const BsplineMi estimator(bins, order, m);
  EXPECT_NEAR(estimator.marginal_entropy(),
              testref::marginal_entropy_reference(m, bins, order), 1e-6);
}

TEST_P(KernelEquivalence, SelfMiEqualsMarginalEntropy) {
  // MI(X, X) = H(X): joint mass concentrates on the diagonal patch.
  const auto [kernel, bins, order, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(m, 7);
  const double h_joint = estimator.joint_entropy(rx, rx, scratch, kernel);
  // H(X,X) = H(X) mathematically, but the B-spline "soft diagonal" adds a
  // small smearing term; verify against the reference instead of exactly H.
  EXPECT_NEAR(h_joint, testref::joint_entropy_reference(rx, rx, bins, order),
              5e-4);
  // Self-MI must dominate the MI of an independent pair by a wide margin
  // (smoothing keeps it below the theoretical H(X) at small m).
  const double mi_self = estimator.mi(rx, rx, scratch, kernel);
  const auto ry = random_ranks(m, 8);
  const double mi_indep = estimator.mi(rx, ry, scratch, kernel);
  // The separation only holds when the histogram is well sampled; with
  // bins^2 ~ m the plug-in bias of the independent pair dominates.
  if (m >= static_cast<std::size_t>(4 * bins * bins)) {
    EXPECT_GT(mi_self, 2.0 * mi_indep);
    EXPECT_GT(mi_self, 0.2 * estimator.marginal_entropy());
  } else {
    EXPECT_GE(mi_self, mi_indep - 0.05);
  }
}

TEST_P(KernelEquivalence, MiIsSymmetric) {
  const auto [kernel, bins, order, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(m, 31);
  const auto ry = random_ranks(m, 32);
  const double mi_xy = estimator.mi(rx, ry, scratch, kernel);
  const double mi_yx = estimator.mi(ry, rx, scratch, kernel);
  EXPECT_NEAR(mi_xy, mi_yx, 1e-5);
}

TEST_P(KernelEquivalence, MiOfIndependentPermutationsIsNonNegativeAndSmall) {
  const auto [kernel, bins, order, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    const auto rx = random_ranks(m, 1000 + trial);
    const auto ry = random_ranks(m, 2000 + trial);
    const double mi = estimator.mi(rx, ry, scratch, kernel);
    EXPECT_GT(mi, -1e-4) << "plug-in MI must be ~non-negative";
    EXPECT_LT(mi, estimator.marginal_entropy())
        << "independent MI must be far below H";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelEquivalence,
    ::testing::Combine(
        ::testing::Values(MiKernel::Scalar, MiKernel::Unrolled, MiKernel::Simd,
                          MiKernel::Replicated, MiKernel::Gather512,
                          MiKernel::Auto),
        ::testing::Values(10, 16, 27),  // bins
        ::testing::Values(1, 3, 4, 6),  // order
        ::testing::Values(64, 333)),    // samples
    [](const auto& param_info) {
      return std::string(kernel_name(std::get<0>(param_info.param))) + "_b" +
             std::to_string(std::get<1>(param_info.param)) + "_k" +
             std::to_string(std::get<2>(param_info.param)) + "_m" +
             std::to_string(std::get<3>(param_info.param));
    });

TEST(KernelScratch, MassConservation) {
  // After accumulation the joint histogram holds total mass m in replica 0.
  const int bins = 10, order = 3;
  const std::size_t m = 200;
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(m, 5);
  const auto ry = random_ranks(m, 6);
  estimator.joint_entropy(rx, ry, scratch, MiKernel::Scalar);
  EXPECT_NEAR(scratch.total_mass(), static_cast<double>(m), 1e-2);
}

TEST(KernelScratch, ReplicatedLeavesMassInFirstReplicaOnly) {
  const int bins = 12, order = 3;
  const std::size_t m = 128;
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(m, 5);
  const auto ry = random_ranks(m, 6);
  estimator.joint_entropy(rx, ry, scratch, MiKernel::Simd);
  double replica0 = 0.0;
  for (int row = 0; row < bins; ++row)
    for (std::size_t c = 0; c < scratch.stride(); ++c)
      replica0 += scratch.row(row, 0)[c];
  EXPECT_NEAR(replica0, static_cast<double>(m), 1e-2);
  EXPECT_NEAR(scratch.total_mass(), static_cast<double>(m), 1e-2);
}

TEST(KernelNames, AreStable) {
  EXPECT_STREQ(kernel_name(MiKernel::Scalar), "scalar");
  EXPECT_STREQ(kernel_name(MiKernel::Unrolled), "unrolled");
  EXPECT_STREQ(kernel_name(MiKernel::Simd), "simd");
  EXPECT_STREQ(kernel_name(MiKernel::Replicated), "replicated");
  EXPECT_STREQ(kernel_name(MiKernel::Auto), "auto");
}

TEST(KernelResolve, AutoIsTheVectorKernel) {
  // Auto is resolved statically: the vector kernel wherever it can run.
  const MiKernel vector =
      vector_kernel_available() ? MiKernel::Simd : MiKernel::Scalar;
  EXPECT_EQ(resolve_kernel(MiKernel::Auto, 10), vector);
  EXPECT_EQ(resolve_kernel(MiKernel::Simd, 32), vector);
  EXPECT_EQ(resolve_kernel(MiKernel::Scalar, 10), MiKernel::Scalar);
  // More bins than the expanded rows hold run the scalar reference.
  EXPECT_EQ(resolve_kernel(MiKernel::Auto, 33), MiKernel::Scalar);
  // The legacy names map onto the two kernels.
  EXPECT_EQ(resolve_kernel(MiKernel::Unrolled, 10), MiKernel::Scalar);
  EXPECT_EQ(resolve_kernel(MiKernel::Replicated, 10), vector);
  EXPECT_EQ(resolve_kernel(MiKernel::Gather512, 10), vector);
}

TEST(KernelResolve, ParsesOnlyTheThreeKernelNames) {
  EXPECT_EQ(parse_kernel("auto"), MiKernel::Auto);
  EXPECT_EQ(parse_kernel("simd"), MiKernel::Simd);
  EXPECT_EQ(parse_kernel("scalar"), MiKernel::Scalar);
  for (const char* gone : {"unrolled", "replicated", "gather512", "fast"}) {
    try {
      parse_kernel(gone);
      ADD_FAILURE() << gone << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("auto|simd|scalar"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(KernelGather512, ExactlyMatchesReplicatedUpToSummationOrder) {
  // Both legacy names alias the vector kernel, so they agree exactly.
  const std::size_t m = 515;  // not a multiple of any vector width
  const BsplineMi estimator(12, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  Xoshiro256 rng(3);
  const auto rx = random_permutation(m, rng);
  const auto ry = random_permutation(m, rng);
  const double h_rep =
      estimator.joint_entropy(rx, ry, scratch, MiKernel::Replicated);
  const double h_gather =
      estimator.joint_entropy(rx, ry, scratch, MiKernel::Gather512);
  EXPECT_EQ(h_rep, h_gather);
}

TEST(KernelContracts, RejectsWrongSampleCount) {
  const BsplineMi estimator(10, 3, 100);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(50, 1);
  const auto ry = random_ranks(50, 2);
  EXPECT_THROW(estimator.mi(rx, ry, scratch), ContractViolation);
}

}  // namespace
}  // namespace tinge
