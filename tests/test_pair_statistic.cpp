// The PairStatistic lattice: estimator parsing, B-spline bit-identity
// through the generic interface, the universal null through the generic
// path, cross-path identity (single vs teamed vs cluster) for every
// estimator kind, and checkpoint journals refusing an estimator swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "cluster/lease_mi.h"
#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "core/null_distribution.h"
#include "core/pair_statistic.h"
#include "parallel/thread_pool.h"
#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {
namespace {

constexpr EstimatorKind kAllKinds[] = {
    EstimatorKind::Bspline,  EstimatorKind::Histogram, EstimatorKind::Ksg,
    EstimatorKind::Pearson,  EstimatorKind::Spearman,  EstimatorKind::Phi,
};

TEST(EstimatorParse, NameRoundTrip) {
  for (const EstimatorKind kind : kAllKinds)
    EXPECT_EQ(parse_estimator(estimator_name(kind)), kind);
}

TEST(EstimatorParse, RejectsUnknownNames) {
  EXPECT_THROW(parse_estimator("mic"), std::invalid_argument);
  EXPECT_THROW(parse_estimator(""), std::invalid_argument);
  EXPECT_THROW(parse_estimator("BSPLINE"), std::invalid_argument);
}

// ---- generic interface vs the raw B-spline estimator ----------------------

class EstimatorBsplineFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 12;
  static constexpr std::size_t kSamples = 128;

  EstimatorBsplineFixture() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(4242);
    for (std::size_t g = 0; g < kGenes; ++g)
      for (std::size_t s = 0; s < kSamples; ++s)
        matrix.at(g, s) = static_cast<float>(rng.normal());
    ranked_ = RankedMatrix(matrix);
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
};

TEST_F(EstimatorBsplineFixture, EvalPairMatchesBsplineMiBitwise) {
  JointHistogram direct = estimator_.make_scratch();
  const std::unique_ptr<PairScratch> scratch = statistic_.make_scratch();
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const double expected =
          estimator_.mi(ranked_.ranks(i), ranked_.ranks(j), direct);
      const double got = statistic_.eval_pair(
          ranked_.ranks(i).data(), ranked_.ranks(j).data(), i, j, *scratch);
      EXPECT_EQ(expected, got) << "pair (" << i << "," << j << ")";
    }
  }
}

TEST_F(EstimatorBsplineFixture, EvalPanelMatchesPerPairBitwise) {
  const std::unique_ptr<PairScratch> scratch = statistic_.make_scratch();
  TingeConfig config;
  const PanelPlan plan = statistic_.plan(config);
  ASSERT_GE(plan.width, 1);
  const std::size_t width =
      std::min<std::size_t>(static_cast<std::size_t>(plan.width), kGenes - 1);
  const std::uint32_t* ys[8] = {};
  for (std::size_t p = 0; p < width; ++p)
    ys[p] = ranked_.ranks(1 + p).data();
  double out[8] = {};
  statistic_.eval_panel(ranked_.ranks(0).data(), ys, width, 0, 1, plan.kernel,
                        *scratch, out);
  for (std::size_t p = 0; p < width; ++p) {
    const double expected = statistic_.eval_pair(
        ranked_.ranks(0).data(), ranked_.ranks(1 + p).data(), 0, 1 + p,
        *scratch);
    EXPECT_EQ(expected, out[p]) << "lane " << p;
  }
}

TEST_F(EstimatorBsplineFixture, GenericNullMatchesLegacyBsplineNull) {
  par::ThreadPool pool(2);
  const EmpiricalDistribution legacy =
      build_null_distribution(estimator_, 500, 77, pool, 2);
  const EmpiricalDistribution generic =
      build_null_distribution(statistic_, 500, 77, pool, 2);
  ASSERT_EQ(legacy.size(), generic.size());
  EXPECT_EQ(legacy.sorted(), generic.sorted());
}

// ---- cross-path identity for every estimator kind -------------------------

class EstimatorIdentityFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 24;
  static constexpr std::size_t kSamples = 64;

  EstimatorIdentityFixture() : matrix_(kGenes, kSamples) {
    Xoshiro256 rng(321);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g)
        matrix_.at(g, s) = static_cast<float>(
            g < 6 ? driver + 0.6 * rng.normal() : rng.normal());
    }
    ranked_ = RankedMatrix(matrix_);
  }

  /// Median of the dense statistic values: a threshold that keeps a
  /// nonempty, nontrivial edge set for any estimator's value scale.
  double median_threshold(const PairStatistic& statistic,
                          const TingeConfig& config,
                          par::ThreadPool& pool) const {
    const MiEngine engine(statistic, ranked_);
    const std::vector<float> dense = engine.compute_dense(config, pool);
    std::vector<float> values;
    for (std::size_t i = 0; i < kGenes; ++i)
      for (std::size_t j = i + 1; j < kGenes; ++j)
        values.push_back(dense[i * kGenes + j]);
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
  }

  ExpressionMatrix matrix_;
  RankedMatrix ranked_;
};

TEST_F(EstimatorIdentityFixture, SingleTeamedAndClusterSweepsAgree) {
  par::ThreadPool pool(4);
  for (const EstimatorKind kind : kAllKinds) {
    SCOPED_TRACE(estimator_name(kind));
    TingeConfig config;
    config.estimator = kind;
    config.tile_size = 8;
    const std::unique_ptr<PairStatistic> statistic =
        make_pair_statistic(config, ranked_, &matrix_);
    const double threshold = median_threshold(*statistic, config, pool);
    const MiEngine engine(*statistic, ranked_);

    config.threads = 1;
    const GeneNetwork expected = engine.compute_network(threshold, config, pool);
    ASSERT_GT(expected.n_edges(), 0u);
    ASSERT_LT(expected.n_edges(), kGenes * (kGenes - 1) / 2);

    config.threads = 4;
    const GeneNetwork threaded = engine.compute_network(threshold, config, pool);
    config.team_size = 2;
    const GeneNetwork teamed = engine.compute_network(threshold, config, pool);
    config.team_size = 1;

    const auto expect_identical = [&](const GeneNetwork& got,
                                      const char* label) {
      ASSERT_EQ(got.n_edges(), expected.n_edges()) << label;
      for (std::size_t i = 0; i < expected.n_edges(); ++i) {
        EXPECT_EQ(got.edges()[i].u, expected.edges()[i].u) << label;
        EXPECT_EQ(got.edges()[i].v, expected.edges()[i].v) << label;
        EXPECT_EQ(got.edges()[i].weight, expected.edges()[i].weight) << label;
      }
    };
    expect_identical(threaded, "threaded");
    expect_identical(teamed, "teamed");
    for (const int ranks : {2, 4}) {
      const GeneNetwork distributed = cluster::cluster_compute_network(
          *statistic, ranked_, threshold, ranks, config);
      expect_identical(distributed, ranks == 2 ? "cluster p=2" : "cluster p=4");
    }
  }
}

// ---- checkpoint journals are estimator-scoped -----------------------------

class EstimatorCheckpointFixture : public EstimatorIdentityFixture {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_est_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(EstimatorCheckpointFixture, ResumeRejectsJournalFromOtherEstimator) {
  par::ThreadPool pool(2);
  TingeConfig config;
  config.tile_size = 8;
  const std::unique_ptr<PairStatistic> bspline =
      make_pair_statistic(config, ranked_, &matrix_);
  const double threshold = 0.05;
  {
    // A journal that matches the run in every dimension — data, tiling,
    // discretization, threshold — except the estimator that scored it.
    CheckpointWriter writer(
        path("est.ckpt"),
        RunSignature{kGenes, kSamples, config.tile_size,
                     bspline->signature_bins(), bspline->signature_order(),
                     threshold,
                     static_cast<std::uint32_t>(EstimatorKind::Histogram)});
    const Edge bogus[] = {{0, 1, 0.5f}};
    writer.append_tile(0, bogus);
  }
  const MiEngine engine(*bspline, ranked_);
  try {
    engine.compute_network_checkpointed(threshold, config, pool,
                                        path("est.ckpt"));
    FAIL() << "estimator swap over a live journal must throw";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("histogram"), std::string::npos) << message;
    EXPECT_NE(message.find("bspline"), std::string::npos) << message;
  }
}

TEST_F(EstimatorCheckpointFixture, SameEstimatorJournalStillResumes) {
  // Control: the histogram engine resumes its own journal without protest.
  par::ThreadPool pool(2);
  TingeConfig config;
  config.tile_size = 8;
  config.threads = 2;
  // Failure injection needs the callback after every tile: at 6 tiles
  // (under 256) the progress throttle reports each one.
  config.estimator = EstimatorKind::Histogram;
  const std::unique_ptr<PairStatistic> statistic =
      make_pair_statistic(config, ranked_, &matrix_);
  const MiEngine engine(*statistic, ranked_);
  const double threshold = 0.05;
  const GeneNetwork expected = engine.compute_network(threshold, config, pool);
  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  EXPECT_THROW(engine.compute_network_checkpointed(
                   threshold, config, pool, path("resume.ckpt"), nullptr,
                   [](std::size_t done, std::size_t) {
                     if (done >= 2) throw InjectedCrash();
                   }),
               InjectedCrash);
  EngineStats stats;
  const GeneNetwork resumed = engine.compute_network_checkpointed(
      threshold, config, pool, path("resume.ckpt"), &stats);
  EXPECT_GT(stats.tiles_resumed, 0u);
  ASSERT_EQ(resumed.n_edges(), expected.n_edges());
  for (std::size_t i = 0; i < expected.n_edges(); ++i)
    EXPECT_EQ(resumed.edges()[i], expected.edges()[i]);
}

}  // namespace
}  // namespace tinge
