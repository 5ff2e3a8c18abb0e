// Core pipeline components: tiling, universal null distribution, per-pair
// permutation test, the parallel MI engine, configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/config.h"
#include "core/mi_engine.h"
#include "core/null_distribution.h"
#include "core/permutation_test.h"
#include "core/tile.h"
#include "stats/rng.h"

namespace tinge {
namespace {

// ---- tiles -----------------------------------------------------------------

TEST(TileSet, CoversEveryPairExactlyOnce) {
  for (const std::size_t n : {2u, 5u, 17u, 64u, 100u}) {
    for (const std::size_t tile : {1u, 3u, 16u, 200u}) {
      const TileSet tiles(n, tile);
      std::set<std::pair<std::size_t, std::size_t>> seen;
      for (std::size_t t = 0; t < tiles.count(); ++t) {
        for_each_pair(tiles.tile(t), [&](std::size_t i, std::size_t j) {
          EXPECT_LT(i, j);
          EXPECT_LT(j, n);
          EXPECT_TRUE(seen.emplace(i, j).second)
              << "duplicate pair " << i << "," << j;
        });
      }
      EXPECT_EQ(seen.size(), n * (n - 1) / 2) << "n=" << n << " T=" << tile;
      EXPECT_EQ(tiles.total_pairs(), n * (n - 1) / 2);
    }
  }
}

TEST(TileSet, PairCountMatchesEnumeration) {
  const TileSet tiles(37, 8);
  for (std::size_t t = 0; t < tiles.count(); ++t) {
    std::size_t enumerated = 0;
    for_each_pair(tiles.tile(t), [&](std::size_t, std::size_t) { ++enumerated; });
    EXPECT_EQ(enumerated, tiles.tile(t).pair_count());
  }
}

TEST(TileSet, DiagonalFlag) {
  const TileSet tiles(20, 10);
  ASSERT_EQ(tiles.count(), 3u);  // (0,0), (0,1), (1,1)
  EXPECT_TRUE(tiles.tile(0).diagonal());
  EXPECT_FALSE(tiles.tile(1).diagonal());
  EXPECT_TRUE(tiles.tile(2).diagonal());
}

// ---- universal null ----------------------------------------------------------

TEST(NullDistribution, DeterministicAcrossThreadCounts) {
  const BsplineMi estimator(10, 3, 128);
  par::ThreadPool pool(4);
  const auto null1 =
      build_null_distribution(estimator, 200, 42, pool, 1);
  const auto null4 =
      build_null_distribution(estimator, 200, 42, pool, 4);
  ASSERT_EQ(null1.size(), null4.size());
  for (std::size_t i = 0; i < null1.sorted().size(); ++i)
    EXPECT_DOUBLE_EQ(null1.sorted()[i], null4.sorted()[i]);
}

TEST(NullDistribution, SeedChangesSample) {
  const BsplineMi estimator(10, 3, 64);
  par::ThreadPool pool(2);
  const auto a = build_null_distribution(estimator, 100, 1, pool, 2);
  const auto b = build_null_distribution(estimator, 100, 2, pool, 2);
  EXPECT_NE(a.sorted(), b.sorted());
}

TEST(NullDistribution, ValuesAreValidMi) {
  const BsplineMi estimator(10, 3, 200);
  par::ThreadPool pool(2);
  const auto null = build_null_distribution(estimator, 300, 7, pool, 2);
  for (const double v : null.sorted()) {
    EXPECT_GE(v, -1e-4);
    EXPECT_LT(v, estimator.marginal_entropy());
  }
}

TEST(NullDistribution, ThresholdMonotoneInAlpha) {
  const BsplineMi estimator(10, 3, 128);
  par::ThreadPool pool(2);
  const auto null = build_null_distribution(estimator, 500, 3, pool, 2);
  const double t10 = threshold_for_alpha(null, 0.10);
  const double t05 = threshold_for_alpha(null, 0.05);
  const double t01 = threshold_for_alpha(null, 0.01);
  EXPECT_LE(t10, t05);
  EXPECT_LE(t05, t01);
}

TEST(NullDistribution, TinyAlphaFallsBackToMax) {
  const BsplineMi estimator(10, 3, 64);
  par::ThreadPool pool(2);
  const auto null = build_null_distribution(estimator, 100, 3, pool, 2);
  EXPECT_DOUBLE_EQ(threshold_for_alpha(null, 1e-9), null.max());
}

TEST(NullDistribution, ControlsFalsePositiveRate) {
  // Apply the alpha=0.05 threshold to fresh independent pairs: the
  // rejection rate should be ~5%.
  const std::size_t m = 150;
  const BsplineMi estimator(10, 3, m);
  par::ThreadPool pool(2);
  const auto null = build_null_distribution(estimator, 2000, 11, pool, 2);
  const double threshold = threshold_for_alpha(null, 0.05);

  JointHistogram scratch = estimator.make_scratch();
  Xoshiro256 rng(99);
  int rejected = 0;
  const int trials = 400;
  for (int trial = 0; trial < trials; ++trial) {
    const auto rx = random_permutation(m, rng);
    const auto ry = random_permutation(m, rng);
    if (estimator.mi(rx, ry, scratch) >= threshold) ++rejected;
  }
  const double rate = static_cast<double>(rejected) / trials;
  EXPECT_NEAR(rate, 0.05, 0.035);
}

// ---- per-pair permutation test ---------------------------------------------------

TEST(PermutationTest, DependentPairGetsSmallPValue) {
  const std::size_t m = 120;
  Xoshiro256 rng(17);
  const auto rx = random_permutation(m, rng);
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto result =
      pair_permutation_test(estimator, rx, rx, 199, 5, scratch);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0 / 200.0);
  EXPECT_GT(result.mi, 1.0);
}

TEST(PermutationTest, IndependentPairsGetUniformishPValues) {
  // One independent pair can legitimately draw a small p-value; across ten
  // pairs the median must be comfortably large.
  const std::size_t m = 120;
  Xoshiro256 rng(18);
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  std::vector<double> p_values;
  for (int trial = 0; trial < 10; ++trial) {
    const auto rx = random_permutation(m, rng);
    const auto ry = random_permutation(m, rng);
    p_values.push_back(
        pair_permutation_test(estimator, rx, ry, 199, 5, scratch).p_value);
  }
  std::sort(p_values.begin(), p_values.end());
  EXPECT_GT(p_values[5], 0.10);  // median of ~Uniform(0,1)
}

TEST(PermutationTest, AgreesWithUniversalNull) {
  // The per-pair p-value and the universal-null p-value are estimates of
  // the same quantity after rank transformation.
  const std::size_t m = 100;
  Xoshiro256 rng(19);
  const auto rx = random_permutation(m, rng);
  auto ry = rx;  // strongly dependent but not identical
  Xoshiro256 swap_rng(20);
  for (int swaps = 0; swaps < 30; ++swaps) {
    const auto a = static_cast<std::size_t>(swap_rng.below(m));
    const auto b = static_cast<std::size_t>(swap_rng.below(m));
    std::swap(ry[a], ry[b]);
  }
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  par::ThreadPool pool(2);

  const auto pair = pair_permutation_test(estimator, rx, ry, 999, 5, scratch);
  const auto null = build_null_distribution(estimator, 999, 6, pool, 2);
  const double null_p = null.p_value(pair.mi);
  EXPECT_NEAR(pair.p_value, null_p, 0.05);
}

// ---- engine -----------------------------------------------------------------------

class EngineFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 40;
  static constexpr std::size_t kSamples = 96;

  EngineFixture() : matrix_(kGenes, kSamples) {
    Xoshiro256 rng(1234);
    // Three correlated blocks + independent remainder.
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver_a = rng.normal();
      const double driver_b = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        double value = rng.normal();
        if (g < 8) value = driver_a + 0.3 * rng.normal();
        else if (g < 16) value = driver_b + 0.3 * rng.normal();
        matrix_.at(g, s) = static_cast<float>(value);
      }
    }
    ranked_ = RankedMatrix(matrix_);
  }

  ExpressionMatrix matrix_;
  RankedMatrix ranked_;
};

TEST_F(EngineFixture, DenseMatrixIsSymmetricZeroDiagonal) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  config.tile_size = 7;
  const auto dense = engine.compute_dense(config, pool);
  for (std::size_t i = 0; i < kGenes; ++i) {
    EXPECT_EQ(dense[i * kGenes + i], 0.0f);
    for (std::size_t j = 0; j < kGenes; ++j)
      EXPECT_EQ(dense[i * kGenes + j], dense[j * kGenes + i]);
  }
}

TEST_F(EngineFixture, ThreadCountDoesNotChangeResults) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.tile_size = 5;
  config.threads = 1;
  const auto serial = engine.compute_dense(config, pool);
  config.threads = 4;
  const auto parallel = engine.compute_dense(config, pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
}

TEST_F(EngineFixture, TileSizeDoesNotChangeResults) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  config.tile_size = 3;
  const auto small_tiles = engine.compute_dense(config, pool);
  config.tile_size = 64;
  const auto big_tiles = engine.compute_dense(config, pool);
  EXPECT_EQ(small_tiles, big_tiles);
}

TEST_F(EngineFixture, SchedulesAgree) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.tile_size = 6;
  config.threads = 4;
  config.schedule = par::Schedule::Static;
  const auto a = engine.compute_dense(config, pool);
  config.schedule = par::Schedule::Guided;
  const auto b = engine.compute_dense(config, pool);
  EXPECT_EQ(a, b);
}

TEST_F(EngineFixture, NetworkMatchesDenseThresholding) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  config.tile_size = 8;
  const double threshold = 0.25;

  EngineStats stats;
  const GeneNetwork network =
      engine.compute_network(threshold, config, pool, &stats);
  const auto dense = engine.compute_dense(config, pool);

  EXPECT_EQ(stats.pairs_computed, kGenes * (kGenes - 1) / 2);
  EXPECT_EQ(stats.edges_emitted, network.n_edges());
  EXPECT_GT(stats.tiles, 0u);

  std::size_t expected_edges = 0;
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const float mi = dense[i * kGenes + j];
      if (mi >= static_cast<float>(threshold)) {
        ++expected_edges;
        EXPECT_FLOAT_EQ(network.edge_weight(static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(j)),
                        mi);
      }
    }
  }
  EXPECT_EQ(network.n_edges(), expected_edges);
  EXPECT_GT(expected_edges, 0u);  // the correlated blocks must show up
}

TEST_F(EngineFixture, BlockStructureIsRecovered) {
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  const auto dense = engine.compute_dense(config, pool);
  // Average in-block MI must exceed average cross/background MI clearly.
  double in_block = 0.0, background = 0.0;
  std::size_t n_in = 0, n_bg = 0;
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const bool same_block = (i < 8 && j < 8) || (i >= 8 && i < 16 && j >= 8 && j < 16);
      if (same_block) {
        in_block += dense[i * kGenes + j];
        ++n_in;
      } else if (i >= 16) {
        background += dense[i * kGenes + j];
        ++n_bg;
      }
    }
  }
  EXPECT_GT(in_block / static_cast<double>(n_in),
            5.0 * background / static_cast<double>(n_bg));
}

TEST(MiEngine, RejectsMismatchedEstimator) {
  ExpressionMatrix matrix(4, 32);
  Xoshiro256 rng(1);
  for (std::size_t g = 0; g < 4; ++g)
    for (std::size_t s = 0; s < 32; ++s)
      matrix.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, 64);  // wrong m
  const BsplineStat statistic(estimator);
  EXPECT_THROW(MiEngine(statistic, ranked), ContractViolation);
}

// ---- config ---------------------------------------------------------------------

TEST(Config, DefaultIsValid) {
  TingeConfig config;
  EXPECT_NO_THROW(config.validate());
}

TEST(Config, RejectsBadValues) {
  TingeConfig config;
  config.bins = 2;  // < spline_order
  EXPECT_THROW(config.validate(), ContractViolation);
  config = TingeConfig{};
  config.alpha = 0.0;
  EXPECT_THROW(config.validate(), ContractViolation);
  config = TingeConfig{};
  config.permutations = 3;
  EXPECT_THROW(config.validate(), ContractViolation);
  config = TingeConfig{};
  config.tile_size = 0;
  EXPECT_THROW(config.validate(), ContractViolation);
  config = TingeConfig{};
  config.dpi_tolerance = 1.0;
  EXPECT_THROW(config.validate(), ContractViolation);
}


TEST(NullDistribution, NonMultipleOfStreamSizeStillExactCount) {
  // Work is distributed in 64-draw streams; q not a multiple of 64 must
  // still produce exactly q draws, deterministically.
  const BsplineMi estimator(10, 3, 64);
  par::ThreadPool pool(3);
  for (const std::size_t q : {1u, 63u, 65u, 129u}) {
    const auto null = build_null_distribution(estimator, q, 5, pool, 3);
    EXPECT_EQ(null.size(), q);
    const auto again = build_null_distribution(estimator, q, 5, pool, 1);
    EXPECT_EQ(null.sorted(), again.sorted());
  }
}

}  // namespace
}  // namespace tinge
