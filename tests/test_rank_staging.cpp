// uint16 rank staging is claimed to be bit-identical: it changes where
// bytes come from, never which floats are multiplied in which order. These
// tests enforce that claim at every layer — raw panel kernels, the engine
// and the cluster lease sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/lease_mi.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "preprocess/rank_transform.h"
#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {
namespace {

RankedMatrix random_ranked(std::size_t genes, std::size_t samples,
                           std::uint64_t seed) {
  ExpressionMatrix matrix(genes, samples);
  Xoshiro256 rng(seed);
  for (std::size_t s = 0; s < samples; ++s) {
    const double driver = rng.normal();
    for (std::size_t g = 0; g < genes; ++g) {
      matrix.at(g, s) = static_cast<float>(
          g < genes / 4 ? driver + 0.5 * rng.normal() : rng.normal());
    }
  }
  return RankedMatrix(matrix);
}

// ---- StagedRankMatrix ------------------------------------------------------

TEST(StagedRankMatrix, CanStageExactlyUpToUint16Range) {
  EXPECT_TRUE(StagedRankMatrix::can_stage(0));
  EXPECT_TRUE(StagedRankMatrix::can_stage(1));
  EXPECT_TRUE(StagedRankMatrix::can_stage(65536));  // ranks reach 65535
  EXPECT_FALSE(StagedRankMatrix::can_stage(65537));
}

TEST(StagedRankMatrix, RoundTripsEveryRankLosslessly) {
  const RankedMatrix ranked = random_ranked(12, 130, 42);
  const StagedRankMatrix staged(ranked);
  for (std::size_t g = 0; g < 12; ++g) {
    const auto row32 = ranked.ranks(g);
    const std::uint16_t* row16 = staged.row(g);
    for (std::size_t s = 0; s < row32.size(); ++s)
      ASSERT_EQ(static_cast<std::uint32_t>(row16[s]), row32[s])
          << "gene " << g << " sample " << s;
  }
}

TEST(StagedRankMatrix, BoundarySamplesCountStagesAndRoundTrips) {
  // m = 65536 is the staging ceiling: the largest rank, 65535, is exactly
  // uint16 max. One gene keeps the test cheap; the rank row is the full
  // permutation 0..65535 reversed, hitting both extremes.
  constexpr std::size_t kM = 65536;
  ASSERT_TRUE(StagedRankMatrix::can_stage(kM));
  ExpressionMatrix matrix(2, kM);
  for (std::size_t s = 0; s < kM; ++s) {
    matrix.at(0, s) = static_cast<float>(kM - s);  // strictly decreasing
    matrix.at(1, s) = static_cast<float>(s);       // strictly increasing
  }
  const RankedMatrix ranked(matrix);
  const StagedRankMatrix staged(ranked);
  for (std::size_t g = 0; g < 2; ++g) {
    const auto row32 = ranked.ranks(g);
    const std::uint16_t* row16 = staged.row(g);
    for (std::size_t s = 0; s < kM; ++s)
      ASSERT_EQ(static_cast<std::uint32_t>(row16[s]), row32[s]);
  }
}

// ---- raw panel kernels: uint16 == uint32 == the scalar reference ---------

class PanelKnobIdentity : public ::testing::TestWithParam<MiKernel> {
 protected:
  static constexpr std::size_t kGenes = 20;
  static constexpr std::size_t kSamples = 97;  // odd: exercises tails

  PanelKnobIdentity()
      : estimator_(10, 3, kSamples),
        ranked_(random_ranked(kGenes, kSamples, 7)),
        staged_(ranked_) {}

  BsplineMi estimator_;
  RankedMatrix ranked_;
  StagedRankMatrix staged_;
};

TEST_P(PanelKnobIdentity, EveryKnobComboIsBitIdenticalToBaseline) {
  const MiKernel kernel = GetParam();
  JointHistogram scratch = estimator_.make_scratch();
  double baseline[kMaxPanelWidth];
  double probe[kMaxPanelWidth];

  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    const std::uint32_t* ry32[kMaxPanelWidth];
    const std::uint16_t* ry16[kMaxPanelWidth];
    for (std::size_t p = 0; p < width; ++p) {
      ry32[p] = ranked_.ranks(1 + p).data();
      ry16[p] = staged_.row(1 + p);
    }

    joint_entropy_panel(estimator_.table(), ranked_.ranks(0).data(), ry32,
                        width, kSamples, scratch, MiKernel::Scalar, baseline);
    joint_entropy_panel(estimator_.table(), ranked_.ranks(0).data(), ry32,
                        width, kSamples, scratch, kernel, probe);
    for (std::size_t p = 0; p < width; ++p)
      EXPECT_EQ(probe[p], baseline[p]) << "u32 width=" << width;
    joint_entropy_panel(estimator_.table(), staged_.row(0), ry16, width,
                        kSamples, scratch, kernel, probe);
    for (std::size_t p = 0; p < width; ++p)
      EXPECT_EQ(probe[p], baseline[p]) << "u16 width=" << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, PanelKnobIdentity,
                         ::testing::Values(MiKernel::Scalar,
                                           MiKernel::Unrolled, MiKernel::Simd,
                                           MiKernel::Gather512),
                         [](const auto& param_info) {
                           return std::string(kernel_name(param_info.param));
                         });

// ---- engine: staged on/off produce identical networks ----------------------

TEST(EngineStaging, StagedSweepMatchesClassicBitForBit) {
  const RankedMatrix ranked = random_ranked(28, 90, 11);
  const BsplineMi estimator(10, 3, 90);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(3);

  TingeConfig off;
  off.threads = 3;
  off.tile_size = 8;
  off.stage_ranks = false;
  TingeConfig on = off;
  on.stage_ranks = true;

  const GeneNetwork classic = engine.compute_network(0.2, off, pool);
  const GeneNetwork staged = engine.compute_network(0.2, on, pool);
  ASSERT_GT(classic.n_edges(), 0u);
  ASSERT_EQ(staged.n_edges(), classic.n_edges());
  for (std::size_t i = 0; i < classic.n_edges(); ++i)
    EXPECT_EQ(staged.edges()[i], classic.edges()[i]);
}

TEST(EngineStaging, SamplesBeyondTheUint16RangeSweepUint32Rows) {
  // m = 65,537 is one past the staging ceiling: the largest rank, 65,536,
  // does not fit uint16, so the engine must sweep the uint32 rows even with
  // stage_ranks on. Every pair must still equal BsplineMi::mi bit for bit.
  constexpr std::size_t kM = 65537;
  constexpr std::size_t kGenes = 5;
  ASSERT_FALSE(StagedRankMatrix::can_stage(kM));
  const RankedMatrix ranked = random_ranked(kGenes, kM, 13);
  const BsplineMi estimator(10, 3, kM);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(2);
  TingeConfig config;
  config.threads = 2;
  config.tile_size = 2;
  config.stage_ranks = true;

  const std::vector<float> dense = engine.compute_dense(config, pool);
  JointHistogram scratch = estimator.make_scratch();
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const auto expected = static_cast<float>(
          estimator.mi(ranked.ranks(i), ranked.ranks(j), scratch));
      EXPECT_EQ(dense[i * kGenes + j], expected) << i << "," << j;
      EXPECT_EQ(dense[j * kGenes + i], expected) << j << "," << i;
    }
  }
}

// ---- cluster lease sweep: staging on/off match the engine -----------------

TEST(ClusterStaging, LeaseSweepMatchesTheEngineWithStagingOnAndOff) {
  const RankedMatrix ranked = random_ranked(24, 72, 31);
  const BsplineMi estimator(10, 3, 72);
  const BsplineStat statistic(estimator);
  par::ThreadPool pool(2);

  // The reference: the single-process engine on uint32 rows.
  TingeConfig classic;
  classic.threads = 2;
  classic.stage_ranks = false;
  const GeneNetwork reference =
      MiEngine(statistic, ranked).compute_network(0.2, classic, pool);
  ASSERT_GT(reference.n_edges(), 0u);

  for (const bool stage : {false, true}) {
    TingeConfig config;
    config.tile_size = 8;  // several tiles to lease at 24 genes
    config.stage_ranks = stage;
    for (const int ranks : {2, 3}) {
      const GeneNetwork leased = cluster::cluster_compute_network(
          statistic, ranked, 0.2, ranks, config);
      ASSERT_EQ(leased.n_edges(), reference.n_edges())
          << ranks << " ranks, stage_ranks " << stage;
      for (std::size_t i = 0; i < reference.n_edges(); ++i)
        EXPECT_EQ(leased.edges()[i], reference.edges()[i])
            << ranks << " ranks, stage_ranks " << stage;
    }
  }
}

}  // namespace
}  // namespace tinge
