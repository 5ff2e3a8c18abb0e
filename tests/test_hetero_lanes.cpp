// Heterogeneous executor lanes (core/sweep.h LaneLedger + MiEngine
// --hetero, DESIGN.md §6i):
//   * the LaneLedger in isolation — LPT grant order, fraction-proportional
//     seed batches, skip filtering, end-game stealing, and ~300 seeded
//     random interleavings asserting the conservation contract (every tile
//     claimed exactly once, nothing lost, always drains to done);
//   * bit-identity — lane runs must match the flat scheduler byte for byte
//     across kernel variants, estimators, dense mode and checkpoint resume
//     in either direction (crash flat / resume laned and vice versa);
//   * config validation — the scheduler-precedence rejections and the
//     explicit lane-spec parser;
//   * the partition report — non-degenerate per-lane stats with measured
//     fractions derived from live per-tile timings.
//
// Randomized cases derive from one seed (override with TINGEX_HETERO_SEED);
// failures print the case parameters so a red run replays exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "core/sweep.h"
#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {
namespace {

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("TINGEX_HETERO_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 20260808ull;
}

// ---- LaneLedger in isolation ----------------------------------------------

TEST(LaneLedger, SingleLaneDrainsEveryTileInLptOrder) {
  const SweepPlan plan = SweepPlan::triangular(0, 30, 8);  // 10 tiles
  LaneLedger ledger(plan, 1);
  EXPECT_EQ(ledger.tiles_total(), plan.count());

  std::vector<std::size_t> claimed;
  for (std::size_t t = ledger.next(0); t != LaneLedger::npos;
       t = ledger.next(0)) {
    claimed.push_back(t);
    ledger.complete(0, t);
  }
  ASSERT_EQ(claimed.size(), plan.count());
  // LPT: pair counts never increase along the claim order.
  for (std::size_t i = 1; i < claimed.size(); ++i)
    EXPECT_GE(plan.tile(claimed[i - 1]).pair_count(),
              plan.tile(claimed[i]).pair_count());
  EXPECT_TRUE(ledger.drained());
  EXPECT_TRUE(ledger.done());
  EXPECT_EQ(ledger.tiles_claimed(), plan.count());
  EXPECT_EQ(ledger.tiles_completed(), plan.count());
  EXPECT_EQ(ledger.outstanding(), 0u);
  EXPECT_EQ(ledger.lane_tiles(0), plan.count());
}

TEST(LaneLedger, SeedBatchesFollowThePredictedFractions) {
  const SweepPlan plan = SweepPlan::triangular(0, 80, 8);  // 55 tiles
  LaneLedger ledger(plan, 2, {0.9, 0.1});
  // Seed grants are issued upfront in the constructor: each lane holds half
  // its predicted share before any context claims a tile.
  const std::size_t fast = ledger.lane_pending(0);
  const std::size_t slow = ledger.lane_pending(1);
  // 0.9 * 55 / 2 = 24 vs 0.1 * 55 / 2 = 2.
  EXPECT_GT(fast, 4 * slow);
  EXPECT_GE(slow, 1u);
  EXPECT_EQ(ledger.tiles_granted(), fast + slow);
  EXPECT_EQ(ledger.leases_granted(), 2u);
}

TEST(LaneLedger, SkippedTilesAreNeverGranted) {
  const SweepPlan plan = SweepPlan::triangular(0, 30, 8);
  std::vector<char> skip(plan.count(), 0);
  skip[0] = 1;
  skip[4] = 1;
  LaneLedger ledger(plan, 2, {}, &skip);
  EXPECT_EQ(ledger.tiles_total(), plan.count() - 2);
  std::set<std::size_t> claimed;
  bool drained = false;
  while (!drained) {
    drained = true;
    for (int lane = 0; lane < 2; ++lane) {
      const std::size_t t = ledger.next(lane);
      if (t == LaneLedger::npos) continue;
      drained = false;
      EXPECT_TRUE(claimed.insert(t).second) << "tile " << t << " twice";
      ledger.complete(lane, t);
    }
  }
  EXPECT_TRUE(ledger.done());
  EXPECT_EQ(claimed.size(), plan.count() - 2);
  EXPECT_FALSE(claimed.count(0));
  EXPECT_FALSE(claimed.count(4));
}

TEST(LaneLedger, FastLaneStealsFromTheSlowLanesGrant) {
  const SweepPlan plan = SweepPlan::triangular(0, 80, 8);  // 55 tiles
  // Lane 1 is predicted to own nearly everything, so its upfront seed grant
  // is large; lane 0 drains the ready queue and must then steal from lane
  // 1's pending tiles to keep working. A steal never takes the victim's
  // front tile, so even a lane that hasn't woken yet keeps exactly one.
  LaneLedger ledger(plan, 2, {0.05, 0.95});
  std::size_t lane0 = 0;
  for (std::size_t t = ledger.next(0); t != LaneLedger::npos;
       t = ledger.next(0)) {
    ledger.complete(0, t);
    ++lane0;
  }
  EXPECT_GT(ledger.steals(), 0u);
  EXPECT_GT(lane0, 0u);
  // Lane 1 still holds its reserved front tile — the one guarantee that
  // keeps the measured partition non-degenerate regardless of scheduling.
  EXPECT_EQ(ledger.lane_pending(1), 1u);
  EXPECT_EQ(ledger.tiles_claimed(), lane0);
  EXPECT_EQ(ledger.tiles_claimed(), ledger.tiles_total() - 1);
  // The straggler drains once lane 1 finally runs.
  const std::size_t last = ledger.next(1);
  ASSERT_NE(last, LaneLedger::npos);
  ledger.complete(1, last);
  EXPECT_EQ(ledger.next(0), LaneLedger::npos);
  EXPECT_TRUE(ledger.done());
}

TEST(LaneLedger, PropertyRandomizedInterleavings) {
  std::mt19937_64 rng(soak_seed() ^ 0x1a9e5);
  for (int iteration = 0; iteration < 300; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(soak_seed()));
    const std::size_t n = 8 + rng() % 50;
    const std::size_t tile = 4 + rng() % 12;
    const SweepPlan plan = SweepPlan::triangular(0, n, tile);
    const std::size_t n_lanes = 1 + rng() % 4;

    std::vector<double> fractions;
    if (rng() % 2 == 0) {
      double total = 0.0;
      for (std::size_t l = 0; l < n_lanes; ++l) {
        fractions.push_back(1.0 + static_cast<double>(rng() % 10));
        total += fractions.back();
      }
      for (double& f : fractions) f /= total;
    }

    std::vector<char> skip(plan.count(), 0);
    std::size_t n_skipped = 0;
    if (rng() % 2 == 0) {
      for (std::size_t t = 0; t < plan.count(); ++t) {
        if (rng() % 4 == 0 && n_skipped + 1 < plan.count()) {
          skip[t] = 1;
          ++n_skipped;
        }
      }
    }

    LaneLedger ledger(plan, n_lanes, fractions, &skip);
    ASSERT_EQ(ledger.tiles_total(), plan.count() - n_skipped);

    // Random interleaving: each step picks a lane; it either claims a new
    // tile or completes one it holds. Every claim must be a fresh tile.
    std::set<std::size_t> seen;
    std::vector<std::vector<std::size_t>> held(n_lanes);
    std::size_t completed = 0;
    while (completed < ledger.tiles_total()) {
      const auto lane = static_cast<int>(rng() % n_lanes);
      const auto l = static_cast<std::size_t>(lane);
      if (!held[l].empty() && rng() % 2 == 0) {
        ledger.complete(lane, held[l].back());
        held[l].pop_back();
        ++completed;
        continue;
      }
      const std::size_t t = ledger.next(lane);
      if (t == LaneLedger::npos) {
        if (held[l].empty()) continue;
        ledger.complete(lane, held[l].back());
        held[l].pop_back();
        ++completed;
        continue;
      }
      ASSERT_LT(t, plan.count());
      ASSERT_FALSE(skip[t]) << "skipped tile " << t << " granted";
      ASSERT_TRUE(seen.insert(t).second) << "tile " << t << " claimed twice";
      held[l].push_back(t);
    }

    // Conservation: everything claimable was claimed exactly once and
    // completed; the per-lane tallies cover the whole plan.
    EXPECT_TRUE(ledger.drained());
    EXPECT_TRUE(ledger.done());
    EXPECT_EQ(seen.size(), ledger.tiles_total());
    EXPECT_EQ(ledger.tiles_claimed(), ledger.tiles_total());
    EXPECT_EQ(ledger.tiles_completed(), ledger.tiles_total());
    EXPECT_EQ(ledger.outstanding(), 0u);
    std::uint64_t lane_total = 0;
    for (std::size_t l = 0; l < n_lanes; ++l)
      lane_total += ledger.lane_tiles(static_cast<int>(l));
    EXPECT_EQ(lane_total, ledger.tiles_total());
  }
}

// ---- config validation ----------------------------------------------------

TEST(HeteroConfig, ParseLaneSpecs) {
  const auto lanes = parse_lane_specs("simd:6,scalar:2");
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0].kernel, MiKernel::Simd);
  EXPECT_EQ(lanes[0].threads, 6);
  EXPECT_EQ(lanes[1].kernel, MiKernel::Scalar);
  EXPECT_EQ(lanes[1].threads, 2);

  EXPECT_THROW(parse_lane_specs(""), ContractViolation);
  EXPECT_THROW(parse_lane_specs("simd"), ContractViolation);
  EXPECT_THROW(parse_lane_specs("simd:"), ContractViolation);
  EXPECT_THROW(parse_lane_specs(":4"), ContractViolation);
  EXPECT_THROW(parse_lane_specs("warp:4"), ContractViolation);
  EXPECT_THROW(parse_lane_specs("simd:0"), ContractViolation);
  EXPECT_THROW(parse_lane_specs("simd:4,"), ContractViolation);
  EXPECT_THROW(parse_lane_specs("simd:4x"), ContractViolation);
}

TEST(HeteroConfig, SchedulerPrecedenceRejections) {
  TingeConfig config;
  config.numa = KnobMode::On;
  config.team_size = 2;
  EXPECT_THROW(config.validate(), ContractViolation);  // numa=on vs teams

  config = TingeConfig{};
  config.hetero = "auto";
  config.team_size = 2;
  EXPECT_THROW(config.validate(), ContractViolation);  // lanes vs teams

  config = TingeConfig{};
  config.hetero = "auto";
  config.numa = KnobMode::On;
  EXPECT_THROW(config.validate(), ContractViolation);  // lanes vs numa=on

  config = TingeConfig{};
  config.hetero = "auto";
  config.cluster_ranks = 2;
  EXPECT_THROW(config.validate(), ContractViolation);  // lanes vs cluster

  // numa=auto stays legal under both teams and lanes (it resolves off).
  config = TingeConfig{};
  config.hetero = "auto";
  config.numa = KnobMode::Auto;
  EXPECT_NO_THROW(config.validate());
  config = TingeConfig{};
  config.team_size = 2;
  config.numa = KnobMode::Auto;
  EXPECT_NO_THROW(config.validate());
}

TEST(HeteroConfig, ExplicitSpecMustSumToThreads) {
  TingeConfig config;
  config.hetero = "simd:2,scalar:2";
  config.threads = 0;  // explicit spec needs explicit --threads
  EXPECT_THROW(config.validate(), ContractViolation);
  config.threads = 3;  // 2 + 2 != 3
  EXPECT_THROW(config.validate(), ContractViolation);
  config.threads = 4;
  EXPECT_NO_THROW(config.validate());
}

// ---- bit-identity against the flat scheduler ------------------------------

class HeteroLanesTest : public ::testing::TestWithParam<MiKernel> {
 protected:
  static constexpr std::size_t kGenes = 40;
  static constexpr std::size_t kSamples = 80;
  static constexpr double kThreshold = 0.2;

  HeteroLanesTest() : estimator_(10, 3, kSamples) {
    matrix_ = ExpressionMatrix(kGenes, kSamples);
    Xoshiro256 rng(123);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix_.at(g, s) = static_cast<float>(
            g < 10 ? driver + 0.5 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix_);
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_hetero_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~HeteroLanesTest() override { std::filesystem::remove_all(dir_); }

  TingeConfig config(const std::string& hetero = "off") const {
    TingeConfig c;
    c.tile_size = 8;
    c.threads = 4;
    c.kernel = GetParam();
    c.hetero = hetero;
    c.progress_tile_interval = 1;
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

  ExpressionMatrix matrix_;
  BsplineMi estimator_;
  RankedMatrix ranked_;
  std::filesystem::path dir_;
};

TEST_P(HeteroLanesTest, LaneRunsAreByteIdenticalToFlat) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(4);

  const GeneNetwork flat = engine.compute_network(kThreshold, config(), pool);
  ASSERT_GT(flat.n_edges(), 0u);

  // Auto lanes, an explicit 2-lane split and a 3-lane split must all agree.
  expect_identical(flat,
                   engine.compute_network(kThreshold, config("auto"), pool));
  expect_identical(flat, engine.compute_network(
                             kThreshold, config("simd:2,scalar:2"), pool));
  expect_identical(
      flat, engine.compute_network(kThreshold,
                                   config("simd:2,auto:1,scalar:1"), pool));

  // Repeat runs of the same lane config stay stable (the scheduler is
  // adaptive; the results must not be).
  expect_identical(flat,
                   engine.compute_network(kThreshold, config("auto"), pool));
}

TEST_P(HeteroLanesTest, DenseMatrixAgreesUnderLanes) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(4);
  const std::vector<float> flat = engine.compute_dense(config(), pool);
  const std::vector<float> laned = engine.compute_dense(config("auto"), pool);
  ASSERT_EQ(flat.size(), laned.size());
  for (std::size_t i = 0; i < flat.size(); ++i)
    ASSERT_EQ(flat[i], laned[i]) << "cell " << i;
}

TEST_P(HeteroLanesTest, CheckpointResumeCrossesLaneConfigs) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(4);
  const GeneNetwork expected =
      engine.compute_network(kThreshold, config(), pool);

  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  const auto crash_after_three = [](std::size_t done, std::size_t) {
    if (done >= 3) throw InjectedCrash();
  };

  // Crash under the flat scheduler, resume under lanes.
  EXPECT_THROW(engine.compute_network_checkpointed(kThreshold, config(), pool,
                                                   path("f2l.ckpt"), nullptr,
                                                   crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("f2l.ckpt")));
  EngineStats resumed_stats;
  expect_identical(expected, engine.compute_network_checkpointed(
                                 kThreshold, config("auto"), pool,
                                 path("f2l.ckpt"), &resumed_stats));
  EXPECT_GT(resumed_stats.tiles_resumed, 0u);

  // Crash under lanes, resume flat.
  EXPECT_THROW(engine.compute_network_checkpointed(
                   kThreshold, config("simd:2,scalar:2"), pool,
                   path("l2f.ckpt"), nullptr, crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("l2f.ckpt")));
  expect_identical(expected,
                   engine.compute_network_checkpointed(
                       kThreshold, config(), pool, path("l2f.ckpt")));

  // Crash under one lane split, resume under a different one.
  EXPECT_THROW(engine.compute_network_checkpointed(
                   kThreshold, config("auto"), pool, path("l2l.ckpt"),
                   nullptr, crash_after_three),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("l2l.ckpt")));
  expect_identical(expected, engine.compute_network_checkpointed(
                                 kThreshold, config("scalar:3,simd:1"), pool,
                                 path("l2l.ckpt")));
}

INSTANTIATE_TEST_SUITE_P(Kernels, HeteroLanesTest,
                         ::testing::Values(MiKernel::Auto, MiKernel::Scalar,
                                           MiKernel::Unrolled, MiKernel::Simd),
                         [](const auto& param_info) {
                           return std::string(kernel_name(param_info.param));
                         });

// ---- estimators x lanes ---------------------------------------------------

TEST(HeteroLanesEstimators, EveryEstimatorAgreesWithFlat) {
  constexpr std::size_t kGenes = 30;
  constexpr std::size_t kSamples = 60;
  ExpressionMatrix matrix(kGenes, kSamples);
  Xoshiro256 rng(77);
  for (std::size_t s = 0; s < kSamples; ++s) {
    const double driver = rng.normal();
    for (std::size_t g = 0; g < kGenes; ++g) {
      matrix.at(g, s) = static_cast<float>(
          g < 8 ? driver + 0.5 * rng.normal() : rng.normal());
    }
  }
  const RankedMatrix ranked(matrix);
  par::ThreadPool pool(4);

  for (const EstimatorKind kind :
       {EstimatorKind::Bspline, EstimatorKind::Histogram,
        EstimatorKind::Pearson, EstimatorKind::Spearman}) {
    SCOPED_TRACE(estimator_name(kind));
    TingeConfig config;
    config.estimator = kind;
    config.tile_size = 8;
    config.threads = 4;
    const auto statistic = make_pair_statistic(config, ranked, &matrix);
    const MiEngine engine(*statistic, ranked);

    const std::vector<float> flat = engine.compute_dense(config, pool);
    TingeConfig laned = config;
    laned.hetero = "auto";
    const std::vector<float> lanes = engine.compute_dense(laned, pool);
    ASSERT_EQ(flat.size(), lanes.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
      ASSERT_EQ(flat[i], lanes[i]) << "cell " << i;
  }
}

// ---- partition report -----------------------------------------------------

TEST(HeteroLanesStats, PartitionReportIsNonDegenerate) {
  constexpr std::size_t kGenes = 100;
  constexpr std::size_t kSamples = 400;
  ExpressionMatrix matrix(kGenes, kSamples);
  Xoshiro256 rng(9);
  for (std::size_t g = 0; g < kGenes; ++g)
    for (std::size_t s = 0; s < kSamples; ++s)
      matrix.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(matrix);
  const BsplineMi estimator(10, 3, kSamples);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(4);

  TingeConfig config;
  config.tile_size = 8;  // 13 gene blocks -> 91 tiles, plenty per lane
  config.threads = 4;
  config.hetero = "auto";

  // Warmup: spins the pool's workers up and stages the ranks, so the
  // measured pass's slow lane cannot lose its share to worker wakeup
  // latency; its tile timings also calibrate the model for the real pass.
  engine.compute_network(/*threshold=*/10.0, config, pool);

  EngineStats stats;
  engine.compute_network(/*threshold=*/10.0, config, pool, &stats);

  // Tile latency sampling covered every computed tile.
  EXPECT_EQ(stats.tiles_timed, stats.tiles);
  EXPECT_GT(stats.tile_seconds_max, 0.0);
  EXPECT_GE(stats.tile_seconds_p95, stats.tile_seconds_p50);
  EXPECT_GE(stats.tile_seconds_max, stats.tile_seconds_p95);

  // Two lanes, both did real work, fractions are genuine distributions.
  ASSERT_EQ(stats.lanes.size(), 2u);
  double predicted = 0.0, measured = 0.0;
  std::uint64_t tiles = 0, pairs = 0;
  for (const EngineStats::LaneStats& lane : stats.lanes) {
    EXPECT_GT(lane.threads, 0);
    EXPECT_GT(lane.tiles, 0u) << lane.label;
    EXPECT_GT(lane.pairs, 0u) << lane.label;
    EXPECT_GT(lane.busy_seconds, 0.0) << lane.label;
    EXPECT_GT(lane.measured_fraction, 0.0) << lane.label;
    EXPECT_GT(lane.observed_gflops, 0.0) << lane.label;
    predicted += lane.predicted_fraction;
    measured += lane.measured_fraction;
    tiles += lane.tiles;
    pairs += lane.pairs;
  }
  EXPECT_NEAR(predicted, 1.0, 1e-9);
  EXPECT_NEAR(measured, 1.0, 1e-9);
  EXPECT_EQ(tiles, stats.tiles);
  EXPECT_EQ(pairs, stats.pairs_computed);
  EXPECT_GT(stats.lane_leases, 0u);

  // A second pass predicts from the first pass's live observations: the
  // engine keeps the perf model, so the seed split is now measurement-based
  // and the prediction must land near what actually happened.
  EngineStats second;
  engine.compute_network(/*threshold=*/10.0, config, pool, &second);
  ASSERT_EQ(second.lanes.size(), 2u);
  for (const EngineStats::LaneStats& lane : second.lanes)
    EXPECT_GT(lane.predicted_fraction, 0.0);
}

}  // namespace
}  // namespace tinge
