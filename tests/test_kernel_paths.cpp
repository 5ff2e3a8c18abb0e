// One B-spline arithmetic on every path, at the paper's sample count
// (m = 3,137): per-pair eval_pair, eval_null_pair and the dense panel sweep
// return the same bits under every --kernel, and all of them stay within
// the double-precision reference bound. Also: the parallel rank transform
// equals the serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/mi_engine.h"
#include "core/pair_statistic.h"
#include "reference_mi.h"
#include "stats/rng.h"
#include "util/str.h"

namespace tinge {
namespace {

class KernelPaths : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 24;  // 276 pairs
  static constexpr std::size_t kSamples = 3137;

  KernelPaths() : matrix_(kGenes, kSamples) {
    Xoshiro256 rng(3137);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g)
        matrix_.at(g, s) = static_cast<float>(
            g % 3 == 0 ? driver + 0.6 * rng.normal() : rng.normal());
    }
    ranked_ = RankedMatrix(matrix_);
  }

  ExpressionMatrix matrix_;
  RankedMatrix ranked_;
};

TEST_F(KernelPaths, EvalPairNullAndDenseSweepAgreeUnderEveryKernel) {
  const MiKernel kernels[] = {MiKernel::Auto, MiKernel::Simd,
                              MiKernel::Scalar};
  par::ThreadPool pool(2);
  std::vector<float> first_dense;
  for (const MiKernel kernel : kernels) {
    TingeConfig config;
    config.kernel = kernel;
    config.threads = 2;
    config.tile_size = 7;  // ragged tiles and panels
    const std::unique_ptr<PairStatistic> statistic =
        make_pair_statistic(config, ranked_);
    const MiEngine engine(*statistic, ranked_);
    const std::vector<float> dense = engine.compute_dense(config, pool);
    if (first_dense.empty()) first_dense = dense;
    EXPECT_EQ(dense, first_dense) << kernel_name(kernel);

    const std::unique_ptr<PairScratch> scratch = statistic->make_scratch();
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < kGenes; ++i) {
      for (std::size_t j = i + 1; j < kGenes; ++j, ++pairs) {
        const double pair = statistic->eval_pair(
            ranked_.ranks(i).data(), ranked_.ranks(j).data(), i, j, *scratch);
        const double null = statistic->eval_null_pair(
            ranked_.ranks(i).data(), ranked_.ranks(j).data(), *scratch);
        EXPECT_EQ(pair, null) << kernel_name(kernel) << " " << i << "," << j;
        EXPECT_EQ(static_cast<float>(pair), dense[i * kGenes + j])
            << kernel_name(kernel) << " " << i << "," << j;
      }
    }
    EXPECT_GE(pairs, 128u);
  }
}

TEST_F(KernelPaths, StaysWithinTheDoubleReferenceBoundAtE1Scale) {
  const BsplineMi estimator(10, 3, kSamples);
  JointHistogram scratch = estimator.make_scratch();
  double worst = 0.0;
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const double reference = testref::joint_entropy_reference(
          ranked_.ranks(i), ranked_.ranks(j), 10, 3);
      const double h = estimator.joint_entropy(
          ranked_.ranks(i), ranked_.ranks(j), scratch, MiKernel::Auto);
      worst = std::max(worst, std::abs(h - reference));
    }
  }
  EXPECT_LE(worst, testref::kJointEntropyBound);
  RecordProperty("max_abs_dH", strprintf("%.3g", worst));
}

TEST(RankedMatrixParallel, MatchesTheSerialRanksBitForBit) {
  ExpressionMatrix matrix(53, 211);
  Xoshiro256 rng(9);
  for (std::size_t g = 0; g < matrix.n_genes(); ++g)
    for (std::size_t s = 0; s < matrix.n_samples(); ++s)
      // Coarse values force ties, which the stable order breaks by sample.
      matrix.at(g, s) = static_cast<float>(std::round(4.0 * rng.normal()));
  const RankedMatrix serial(matrix);
  par::ThreadPool pool(4);
  for (const int threads : {1, 3, 0}) {
    const RankedMatrix parallel(matrix, pool, threads);
    ASSERT_EQ(parallel.n_genes(), serial.n_genes());
    ASSERT_EQ(parallel.n_samples(), serial.n_samples());
    EXPECT_EQ(parallel.gene_names(), serial.gene_names());
    for (std::size_t g = 0; g < serial.n_genes(); ++g) {
      const auto a = serial.ranks(g);
      const auto b = parallel.ranks(g);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
          << "gene " << g << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace tinge
