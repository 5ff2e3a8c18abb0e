// Engine property sweeps: the dense MI matrix must be invariant across
// every (tile size x schedule x thread count x kernel) combination — the
// strongest statement that the parallel decomposition is correct.
#include <gtest/gtest.h>

#include <tuple>

#include "core/mi_engine.h"
#include "stats/rng.h"

namespace tinge {
namespace {

// One fixed dataset and its reference (serial, scalar-kernel) MI matrix,
// shared by every sweep instance.
class EngineReference {
 public:
  static constexpr std::size_t kGenes = 24;
  static constexpr std::size_t kSamples = 80;

  static const EngineReference& get() {
    static EngineReference instance;
    return instance;
  }

  const RankedMatrix& ranked() const { return ranked_; }
  const BsplineStat& statistic() const { return statistic_; }
  const std::vector<float>& reference() const { return reference_; }

 private:
  EngineReference() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(2024);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g % 3 == 0 ? driver + 0.5 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
    const MiEngine engine(statistic_, ranked_);
    par::ThreadPool pool(1);
    TingeConfig config;
    config.threads = 1;
    config.kernel = MiKernel::Scalar;
    reference_ = engine.compute_dense(config, pool);
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
  std::vector<float> reference_;
};

using SweepParam = std::tuple<int /*tile*/, par::Schedule, int /*threads*/,
                              MiKernel>;

class EngineSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EngineSweep, DenseMatrixMatchesReference) {
  const auto [tile, schedule, threads, kernel] = GetParam();
  const EngineReference& ref = EngineReference::get();
  const MiEngine engine(ref.statistic(), ref.ranked());
  par::ThreadPool pool(threads);
  TingeConfig config;
  config.tile_size = static_cast<std::size_t>(tile);
  config.schedule = schedule;
  config.threads = threads;
  config.kernel = kernel;
  const auto dense = engine.compute_dense(config, pool);
  ASSERT_EQ(dense.size(), ref.reference().size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    // Kernels differ in float summation order; tolerance covers that.
    EXPECT_NEAR(dense[i], ref.reference()[i], 2e-4) << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, EngineSweep,
    ::testing::Combine(
        ::testing::Values(1, 5, 24, 100),  // tile size (incl. degenerate)
        ::testing::Values(par::Schedule::Static, par::Schedule::Dynamic,
                          par::Schedule::Guided),
        ::testing::Values(1, 3, 7),  // thread counts (odd on purpose)
        ::testing::Values(MiKernel::Scalar, MiKernel::Replicated,
                          MiKernel::Gather512)),
    [](const auto& param_info) {
      return "t" + std::to_string(std::get<0>(param_info.param)) + "_" +
             par::schedule_name(std::get<1>(param_info.param)) + "_p" +
             std::to_string(std::get<2>(param_info.param)) + "_" +
             kernel_name(std::get<3>(param_info.param));
    });

TEST(EngineEdgeCases, TwoGenes) {
  ExpressionMatrix matrix(2, 32);
  Xoshiro256 rng(1);
  for (std::size_t g = 0; g < 2; ++g)
    for (std::size_t s = 0; s < 32; ++s)
      matrix.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(8, 3, 32);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(2);
  TingeConfig config;
  EngineStats stats;
  const GeneNetwork network = engine.compute_network(-1.0, config, pool, &stats);
  EXPECT_EQ(stats.pairs_computed, 1u);
  EXPECT_EQ(network.n_edges(), 1u);  // threshold below 0 keeps everything
}

TEST(EngineEdgeCases, ThresholdAboveEverythingGivesEmptyNetwork) {
  const EngineReference& ref = EngineReference::get();
  const MiEngine engine(ref.statistic(), ref.ranked());
  par::ThreadPool pool(2);
  TingeConfig config;
  const GeneNetwork network = engine.compute_network(1e9, config, pool);
  EXPECT_EQ(network.n_edges(), 0u);
  EXPECT_EQ(network.n_nodes(), EngineReference::kGenes);
}

TEST(EngineEdgeCases, MinimumSampleCount) {
  // m = 2 is the smallest the weight table accepts.
  ExpressionMatrix matrix(3, 2);
  matrix.at(0, 0) = 1.0f;
  matrix.at(1, 1) = 2.0f;
  matrix.at(2, 0) = -1.0f;
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(3, 2, 2);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(1);
  TingeConfig config;
  config.bins = 3;
  config.spline_order = 2;
  const auto dense = engine.compute_dense(config, pool);
  for (const float v : dense) EXPECT_TRUE(std::isfinite(v));
}


// ---- team mode ---------------------------------------------------------------

class TeamSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TeamSweep, TeamedNetworkMatchesPlainEngine) {
  const auto [team_size, n_teams] = GetParam();
  const int threads = team_size * n_teams;
  const EngineReference& ref = EngineReference::get();
  const MiEngine engine(ref.statistic(), ref.ranked());
  par::ThreadPool pool(threads);
  TingeConfig config;
  config.tile_size = 5;
  config.threads = threads;
  const double threshold = 0.15;

  const GeneNetwork plain = engine.compute_network(threshold, config, pool);
  config.team_size = team_size;
  EngineStats stats;
  const GeneNetwork teamed =
      engine.compute_network(threshold, config, pool, &stats);

  ASSERT_EQ(teamed.n_edges(), plain.n_edges());
  for (std::size_t i = 0; i < plain.n_edges(); ++i) {
    EXPECT_EQ(teamed.edges()[i].u, plain.edges()[i].u);
    EXPECT_EQ(teamed.edges()[i].v, plain.edges()[i].v);
    EXPECT_EQ(teamed.edges()[i].weight, plain.edges()[i].weight);
  }
  EXPECT_EQ(stats.pairs_computed,
            EngineReference::kGenes * (EngineReference::kGenes - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(
    TeamShapes, TeamSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),   // threads per team
                       ::testing::Values(1, 2, 3)),  // teams
    [](const auto& param_info) {
      return "t" + std::to_string(std::get<0>(param_info.param)) + "x" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(TeamMode, RejectsIndivisibleTeamSize) {
  const EngineReference& ref = EngineReference::get();
  const MiEngine engine(ref.statistic(), ref.ranked());
  par::ThreadPool pool(4);
  TingeConfig config;
  config.threads = 4;
  config.team_size = 3;
  EXPECT_THROW(engine.compute_network(0.1, config, pool), ContractViolation);
}

}  // namespace
}  // namespace tinge
