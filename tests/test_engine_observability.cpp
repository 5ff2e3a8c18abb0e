// Engine observability: instrumentation must never change results
// (stats-requested and stats-free runs are bit-identical on every path),
// the four paths must report consistent EngineStats through the shared
// finalizer, resumed runs must account for the full pass, and a run-scoped
// registry delta must reconstruct the same numbers (EngineStats as a view
// over the registry).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"
#include "stats/rng.h"

namespace tinge {
namespace {

void expect_identical(const GeneNetwork& a, const GeneNetwork& b) {
  ASSERT_EQ(a.n_edges(), b.n_edges());
  for (std::size_t i = 0; i < a.n_edges(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

class EngineObservability : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 80;
  static constexpr double kThreshold = 0.2;

  EngineObservability() : estimator_(10, 3, kSamples) {
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
  }

  // Kernel pinned so every path resolves the identical variant.
  TingeConfig config(int team_size = 1) const {
    TingeConfig c;
    c.tile_size = 8;
    c.threads = 2;
    c.team_size = team_size;
    c.kernel = MiKernel::Scalar;
    return c;
  }

  std::string checkpoint_path(const char* tag) const {
    return std::filesystem::temp_directory_path() /
           ("tingex_obs_" + std::string(tag) + "_" +
            std::to_string(::getpid()) + ".ckpt");
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
};

// ---- zero interference ----------------------------------------------------

TEST_F(EngineObservability, StatsRequestDoesNotChangeThePlainNetwork) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const GeneNetwork bare = engine.compute_network(kThreshold, config(), pool);
  EngineStats stats;
  const GeneNetwork observed =
      engine.compute_network(kThreshold, config(), pool, &stats);
  expect_identical(bare, observed);
  EXPECT_EQ(stats.edges_emitted, observed.n_edges());
}

TEST_F(EngineObservability, StatsRequestDoesNotChangeTheCheckpointedNetwork) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const GeneNetwork bare = engine.compute_network_checkpointed(
      kThreshold, config(), pool, checkpoint_path("bare"));
  EngineStats stats;
  const GeneNetwork observed = engine.compute_network_checkpointed(
      kThreshold, config(), pool, checkpoint_path("observed"), &stats);
  expect_identical(bare, observed);
  EXPECT_EQ(stats.edges_emitted, observed.n_edges());
}

TEST_F(EngineObservability, StatsRequestDoesNotChangeTheTeamedNetwork) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const GeneNetwork bare = engine.compute_network(kThreshold, config(2), pool);
  EngineStats stats;
  const GeneNetwork observed =
      engine.compute_network(kThreshold, config(2), pool, &stats);
  expect_identical(bare, observed);
  EXPECT_EQ(stats.edges_emitted, observed.n_edges());
}

TEST_F(EngineObservability, StatsRequestDoesNotChangeTheDenseMatrix) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const std::vector<float> bare = engine.compute_dense(config(), pool);
  EngineStats stats;
  const std::vector<float> observed =
      engine.compute_dense(config(), pool, &stats);
  ASSERT_EQ(bare.size(), observed.size());
  EXPECT_EQ(std::memcmp(bare.data(), observed.data(),
                        bare.size() * sizeof(float)),
            0);
  EXPECT_EQ(stats.pairs_computed, kGenes * (kGenes - 1) / 2);
}

// ---- cross-path consistency -----------------------------------------------

TEST_F(EngineObservability, AllFourPathsReportConsistentStats) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);

  EngineStats plain, checkpointed, teamed, dense;
  const GeneNetwork plain_net =
      engine.compute_network(kThreshold, config(), pool, &plain);
  engine.compute_network_checkpointed(kThreshold, config(), pool,
                                      checkpoint_path("consistency"),
                                      &checkpointed);
  engine.compute_network(kThreshold, config(2), pool, &teamed);
  engine.compute_dense(config(), pool, &dense);

  constexpr std::size_t kPairs = kGenes * (kGenes - 1) / 2;
  for (const EngineStats* stats :
       {&plain, &checkpointed, &teamed, &dense}) {
    EXPECT_EQ(stats->pairs_computed, kPairs);
    EXPECT_EQ(stats->pairs_resumed, 0u);
    EXPECT_EQ(stats->tiles, TileSet(kGenes, 8).count());
    EXPECT_EQ(stats->tiles_resumed, 0u);
    EXPECT_EQ(stats->panels_swept, plain.panels_swept);
    EXPECT_STREQ(stats->kernel, plain.kernel);
    EXPECT_EQ(stats->panel_width, plain.panel_width);
    EXPECT_GT(stats->seconds, 0.0);

    // Scheduler accounting: one slot per context, covering all work.
    ASSERT_EQ(stats->tiles_per_thread.size(), 2u);
    ASSERT_EQ(stats->pairs_per_thread.size(), 2u);
    std::uint64_t tile_sum = 0, pair_sum = 0;
    for (const std::uint64_t t : stats->tiles_per_thread) tile_sum += t;
    for (const std::uint64_t p : stats->pairs_per_thread) pair_sum += p;
    EXPECT_EQ(tile_sum, stats->tiles);
    EXPECT_EQ(pair_sum, stats->pairs_computed);

    EXPECT_GT(stats->panel_fill_ratio(), 0.0);
    EXPECT_LE(stats->panel_fill_ratio(), 1.0);
  }
  EXPECT_EQ(plain.edges_emitted, plain_net.n_edges());
  EXPECT_EQ(checkpointed.edges_emitted, plain.edges_emitted);
  EXPECT_EQ(teamed.edges_emitted, plain.edges_emitted);
  EXPECT_EQ(dense.edges_emitted, 0u);  // dense mode emits a matrix, not edges
}

// ---- resume accounting ----------------------------------------------------

TEST_F(EngineObservability, ResumedRunAccountsForTheFullPass) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const std::string path = checkpoint_path("resume");
  const GeneNetwork expected =
      engine.compute_network(kThreshold, config(), pool);

  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  EXPECT_THROW(engine.compute_network_checkpointed(
                   kThreshold, config(), pool, path, nullptr,
                   [](std::size_t done, std::size_t) {
                     if (done >= 3) throw InjectedCrash();
                   }),
               InjectedCrash);
  const std::size_t journaled =
      load_checkpoint(path).completed_tiles().size();
  ASSERT_GT(journaled, 0u);

  EngineStats stats;
  const GeneNetwork resumed = engine.compute_network_checkpointed(
      kThreshold, config(), pool, path, &stats);
  expect_identical(expected, resumed);

  // Full-pass totals with the replayed subset broken out.
  EXPECT_EQ(stats.pairs_computed, kGenes * (kGenes - 1) / 2);
  EXPECT_EQ(stats.tiles, TileSet(kGenes, 8).count());
  EXPECT_EQ(stats.tiles_resumed, journaled);
  EXPECT_GT(stats.pairs_resumed, 0u);
  EXPECT_LT(stats.pairs_resumed, stats.pairs_computed);

  // The per-thread scheduler counters cover only work this run executed.
  std::uint64_t tile_sum = 0, pair_sum = 0;
  for (const std::uint64_t t : stats.tiles_per_thread) tile_sum += t;
  for (const std::uint64_t p : stats.pairs_per_thread) pair_sum += p;
  EXPECT_EQ(tile_sum, stats.tiles - stats.tiles_resumed);
  EXPECT_EQ(pair_sum, stats.pairs_computed - stats.pairs_resumed);
}

// ---- EngineStats as a view over the registry ------------------------------

TEST_F(EngineObservability, RegistryDeltaReconstructsEngineStats) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::global().snapshot();
  EngineStats stats;
  engine.compute_network(kThreshold, config(), pool, &stats);
  const obs::MetricsSnapshot delta = obs::snapshot_delta(
      before, obs::MetricsRegistry::global().snapshot());

  const EngineStats reconstructed = engine_stats_from_metrics(delta);
  EXPECT_EQ(reconstructed.pairs_computed, stats.pairs_computed);
  EXPECT_EQ(reconstructed.pairs_resumed, stats.pairs_resumed);
  EXPECT_EQ(reconstructed.edges_emitted, stats.edges_emitted);
  EXPECT_EQ(reconstructed.tiles, stats.tiles);
  EXPECT_EQ(reconstructed.tiles_resumed, stats.tiles_resumed);
  EXPECT_EQ(reconstructed.panels_swept, stats.panels_swept);
  EXPECT_EQ(reconstructed.panel_width, stats.panel_width);
  EXPECT_EQ(reconstructed.seconds, stats.seconds);
  // Per-thread counters round-trip through their engine.thread.<tid> names.
  // A context that did no work is dropped from the delta (its counters
  // never moved), which reads back as zero.
  const auto at_or_zero = [](const std::vector<std::uint64_t>& v,
                             std::size_t i) {
    return i < v.size() ? v[i] : std::uint64_t{0};
  };
  for (std::size_t tid = 0; tid < stats.tiles_per_thread.size(); ++tid) {
    EXPECT_EQ(at_or_zero(reconstructed.tiles_per_thread, tid),
              stats.tiles_per_thread[tid]);
    EXPECT_EQ(at_or_zero(reconstructed.pairs_per_thread, tid),
              stats.pairs_per_thread[tid]);
  }
}

}  // namespace
}  // namespace tinge
