// The unified sweep executor (core/sweep.h): every scheduler x sink
// configuration the engine can assemble — flat, teamed, checkpointed with
// resume (under either scheduler) and dense — must produce byte-identical
// results on the same input, for every kernel variant.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/mi_engine.h"
#include "core/sweep.h"
#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {
namespace {

class SweepExecutorTest : public ::testing::TestWithParam<MiKernel> {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 80;
  static constexpr double kThreshold = 0.2;

  SweepExecutorTest() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(123);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g < 8 ? driver + 0.5 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_sweep_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~SweepExecutorTest() override { std::filesystem::remove_all(dir_); }

  TingeConfig config(int team_size = 1) const {
    TingeConfig c;
    c.tile_size = 8;
    c.threads = 2;
    c.team_size = team_size;
    // Failure injection needs per-tile progress calls: at 10 tiles (under
    // 256) the throttle reports each one.
    c.kernel = GetParam();
    return c;
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void expect_identical(const GeneNetwork& a, const GeneNetwork& b) {
    ASSERT_EQ(a.n_edges(), b.n_edges());
    for (std::size_t i = 0; i < a.n_edges(); ++i)
      EXPECT_EQ(a.edges()[i], b.edges()[i]);
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
  std::filesystem::path dir_;
};

TEST_P(SweepExecutorTest, EverySchedulerAndSinkConfigurationAgrees) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);

  const GeneNetwork plain =
      engine.compute_network(kThreshold, config(), pool);
  ASSERT_GT(plain.n_edges(), 0u);

  // Teamed scheduler.
  expect_identical(plain,
                   engine.compute_network(kThreshold, config(2), pool));

  // Journal sink, fresh run, under both schedulers.
  expect_identical(plain, engine.compute_network_checkpointed(
                              kThreshold, config(), pool, path("flat.ckpt")));
  expect_identical(plain,
                   engine.compute_network_checkpointed(
                       kThreshold, config(2), pool, path("teamed.ckpt")));
}

TEST_P(SweepExecutorTest, DenseMatrixReproducesThresholdedEdgeSet) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);

  const GeneNetwork plain =
      engine.compute_network(kThreshold, config(), pool);
  const std::vector<float> dense = engine.compute_dense(config(), pool);

  std::vector<Edge> edges;
  for (std::uint32_t i = 0; i < kGenes; ++i) {
    for (std::uint32_t j = i + 1; j < kGenes; ++j) {
      const float mi = dense[i * kGenes + j];
      EXPECT_EQ(mi, dense[j * kGenes + i]);
      if (mi >= static_cast<float>(kThreshold)) edges.push_back({i, j, mi});
    }
  }
  ASSERT_EQ(edges.size(), plain.n_edges());
  for (std::size_t e = 0; e < edges.size(); ++e)
    EXPECT_EQ(edges[e], plain.edges()[e]);
}

TEST_P(SweepExecutorTest, ResumeAgreesUnderEitherScheduler) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const GeneNetwork expected =
      engine.compute_network(kThreshold, config(), pool);

  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  const auto crash_after_three = [](std::size_t done, std::size_t) {
    if (done >= 3) throw InjectedCrash();
  };

  // Crash under the flat scheduler, resume under the teamed one.
  EXPECT_THROW(engine.compute_network_checkpointed(kThreshold, config(), pool,
                                                   path("cross.ckpt"), nullptr,
                                                   crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("cross.ckpt")));
  EngineStats teamed_stats;
  expect_identical(expected, engine.compute_network_checkpointed(
                                 kThreshold, config(2), pool,
                                 path("cross.ckpt"), &teamed_stats));
  EXPECT_GT(teamed_stats.tiles_resumed, 0u);
  EXPECT_EQ(teamed_stats.pairs_computed, kGenes * (kGenes - 1) / 2);

  // Crash under the teamed scheduler, resume under the flat one — the
  // journal is scheduler-agnostic in both directions.
  EXPECT_THROW(engine.compute_network_checkpointed(kThreshold, config(2), pool,
                                                   path("back.ckpt"), nullptr,
                                                   crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("back.ckpt")));
  EngineStats flat_stats;
  expect_identical(expected,
                   engine.compute_network_checkpointed(kThreshold, config(),
                                                       pool, path("back.ckpt"),
                                                       &flat_stats));
  EXPECT_GT(flat_stats.tiles_resumed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SweepExecutorTest,
                         ::testing::Values(MiKernel::Scalar,
                                           MiKernel::Unrolled, MiKernel::Auto),
                         [](const auto& param_info) {
                           return std::string(kernel_name(param_info.param));
                         });

// ---- teamed-mode contract ---------------------------------------------------

TEST(SweepTeamValidation, RejectsTeamSizeNotDividingPoolWidth) {
  ExpressionMatrix matrix(12, 48);
  Xoshiro256 rng(7);
  for (std::size_t g = 0; g < 12; ++g)
    for (std::size_t s = 0; s < 48; ++s)
      matrix.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, 48);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.threads = 4;
  config.team_size = 3;

  try {
    engine.compute_network(0.2, config, pool);
    FAIL() << "team_size 3 over 4 threads must be rejected";
  } catch (const ContractViolation& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("team_size 3"), std::string::npos) << message;
    EXPECT_NE(message.find("divide"), std::string::npos) << message;
  }
}

TEST(SweepTeamValidation, TeamSizeEqualToPoolWidthIsOneTeam) {
  ExpressionMatrix matrix(20, 64);
  Xoshiro256 rng(11);
  for (std::size_t s = 0; s < 64; ++s) {
    const double driver = rng.normal();
    for (std::size_t g = 0; g < 20; ++g)
      matrix.at(g, s) = static_cast<float>(
          g < 6 ? driver + 0.5 * rng.normal() : rng.normal());
  }
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, 64);
  const BsplineStat statistic(estimator);
  const MiEngine engine(statistic, ranked);
  par::ThreadPool pool(4);
  TingeConfig config;
  config.threads = 4;
  config.tile_size = 8;

  const GeneNetwork plain = engine.compute_network(0.2, config, pool);
  config.team_size = 4;
  EngineStats stats;
  const GeneNetwork one_team =
      engine.compute_network(0.2, config, pool, &stats);
  ASSERT_EQ(plain.n_edges(), one_team.n_edges());
  for (std::size_t i = 0; i < plain.n_edges(); ++i)
    EXPECT_EQ(plain.edges()[i], one_team.edges()[i]);
  EXPECT_EQ(stats.pairs_computed, 20u * 19u / 2u);
}

}  // namespace
}  // namespace tinge
