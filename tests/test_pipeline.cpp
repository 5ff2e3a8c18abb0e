// End-to-end integration: the full NetworkBuilder pipeline on synthetic
// regulatory data — recovery of planted structure, determinism, missing-value
// robustness, DPI interaction, stage accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <unistd.h>

#include "core/network_builder.h"
#include "graph/metrics.h"
#include "synth/expression.h"

namespace tinge {
namespace {

SyntheticDataset standard_dataset(std::size_t genes = 60,
                                  std::size_t samples = 300,
                                  double missing = 0.0) {
  GrnParams grn_params;
  grn_params.n_genes = genes;
  grn_params.mean_regulators = 1.5;
  grn_params.seed = 11;
  ExpressionParams expr;
  expr.n_samples = samples;
  // Moderate intrinsic noise keeps correlation local to direct regulatory
  // edges; with near-deterministic propagation the whole GRN inter-correlates
  // and precision against the *direct-edge* truth becomes meaningless.
  expr.noise_sd = 1.0;
  expr.missing_fraction = missing;
  expr.seed = 12;
  return make_synthetic_dataset(grn_params, expr);
}

TingeConfig fast_config() {
  TingeConfig config;
  config.permutations = 500;
  config.alpha = 1e-2;
  config.threads = 2;
  config.tile_size = 16;
  return config;
}

TEST(Pipeline, RecoversPlantedStructureWellAboveChance) {
  const SyntheticDataset dataset = standard_dataset();
  const NetworkBuilder builder(fast_config());
  const BuildResult result = builder.build(dataset.expression);

  ASSERT_GT(result.network.n_edges(), 0u);
  const Confusion confusion = compare_networks(result.network, dataset.truth);
  const double chance = static_cast<double>(dataset.truth.n_edges()) /
                        static_cast<double>(60 * 59 / 2);
  // A relevance network keeps statistically dependent pairs, which includes
  // genuine indirect (distance-2) dependencies — so precision against the
  // direct-edge truth is judged relative to chance, not in absolute terms
  // (DPI, tested below, is the step that prunes indirect edges).
  EXPECT_GT(confusion.recall(), 0.5);
  EXPECT_GT(confusion.precision(), 1.5 * chance);

  const double aupr = average_precision(result.network, dataset.truth);
  EXPECT_GT(aupr, 5.0 * chance);
}

TEST(Pipeline, ReportsStageTimesAndStats) {
  const SyntheticDataset dataset = standard_dataset(40, 150);
  const NetworkBuilder builder(fast_config());
  const BuildResult result = builder.build(dataset.expression);

  EXPECT_EQ(result.genes_in, 40u);
  EXPECT_EQ(result.genes_used, 40u);
  EXPECT_GT(result.threshold, 0.0);
  EXPECT_GT(result.marginal_entropy, 0.0);
  EXPECT_EQ(result.engine.pairs_computed, 40u * 39u / 2u);
  EXPECT_GE(result.times.total, result.times.mi_pass);
  EXPECT_GT(result.times.null_build, 0.0);
  EXPECT_GT(result.times.preprocess, 0.0);
}

TEST(Pipeline, DeterministicAcrossThreadCounts) {
  const SyntheticDataset dataset = standard_dataset(30, 120);
  TingeConfig config = fast_config();
  config.threads = 1;
  const BuildResult serial = NetworkBuilder(config).build(dataset.expression);
  config.threads = 4;
  const BuildResult parallel = NetworkBuilder(config).build(dataset.expression);

  EXPECT_DOUBLE_EQ(serial.threshold, parallel.threshold);
  ASSERT_EQ(serial.network.n_edges(), parallel.network.n_edges());
  const auto se = serial.network.edges();
  const auto pe = parallel.network.edges();
  for (std::size_t i = 0; i < se.size(); ++i) {
    EXPECT_EQ(se[i].u, pe[i].u);
    EXPECT_EQ(se[i].v, pe[i].v);
    EXPECT_EQ(se[i].weight, pe[i].weight);
  }
}

TEST(Pipeline, KernelChoiceDoesNotChangeTheNetworkEdgeSet) {
  const SyntheticDataset dataset = standard_dataset(30, 120);
  TingeConfig config = fast_config();
  config.kernel = MiKernel::Scalar;
  const BuildResult scalar = NetworkBuilder(config).build(dataset.expression);
  config.kernel = MiKernel::Simd;
  const BuildResult simd = NetworkBuilder(config).build(dataset.expression);
  // Float summation order differs, so weights may differ in the last ulp;
  // the edge sets must still coincide away from the threshold boundary.
  ASSERT_EQ(scalar.network.n_edges(), simd.network.n_edges());
  for (std::size_t i = 0; i < scalar.network.n_edges(); ++i) {
    EXPECT_EQ(scalar.network.edges()[i].u, simd.network.edges()[i].u);
    EXPECT_EQ(scalar.network.edges()[i].v, simd.network.edges()[i].v);
    EXPECT_NEAR(scalar.network.edges()[i].weight,
                simd.network.edges()[i].weight, 1e-4);
  }
}

TEST(Pipeline, HandlesMissingValues) {
  const SyntheticDataset dataset = standard_dataset(50, 250, /*missing=*/0.05);
  ASSERT_GT(dataset.expression.count_missing(), 0u);
  const NetworkBuilder builder(fast_config());
  const BuildResult result = builder.build(dataset.expression);
  EXPECT_GT(result.imputed_cells, 0u);
  const Confusion confusion = compare_networks(result.network, dataset.truth);
  EXPECT_GT(confusion.recall(), 0.4);  // modest degradation allowed
}

TEST(Pipeline, DropsConstantGenes) {
  SyntheticDataset dataset = standard_dataset(30, 100);
  // Flatten two genes.
  for (std::size_t s = 0; s < 100; ++s) {
    dataset.expression.at(4, s) = 1.0f;
    dataset.expression.at(9, s) = -2.5f;
  }
  const NetworkBuilder builder(fast_config());
  const BuildResult result = builder.build(dataset.expression);
  EXPECT_EQ(result.genes_in, 30u);
  EXPECT_EQ(result.genes_used, 28u);
}

TEST(Pipeline, DpiPrunesEdgesWithoutKillingRecall) {
  const SyntheticDataset dataset = standard_dataset();
  TingeConfig config = fast_config();
  const BuildResult plain = NetworkBuilder(config).build(dataset.expression);
  config.apply_dpi = true;
  config.dpi_tolerance = 0.15;
  const BuildResult pruned = NetworkBuilder(config).build(dataset.expression);

  EXPECT_LT(pruned.network.n_edges(), plain.network.n_edges());
  EXPECT_GT(pruned.dpi_stats.edges_removed, 0u);
  const double recall_plain =
      compare_networks(plain.network, dataset.truth).recall();
  const double recall_pruned =
      compare_networks(pruned.network, dataset.truth).recall();
  EXPECT_GT(recall_pruned, 0.5 * recall_plain);
  // DPI is meant to raise precision on chain-heavy truths.
  EXPECT_GE(compare_networks(pruned.network, dataset.truth).precision(),
            compare_networks(plain.network, dataset.truth).precision() - 0.02);
}

TEST(Pipeline, StricterAlphaYieldsFewerEdges) {
  const SyntheticDataset dataset = standard_dataset(40, 200);
  TingeConfig config = fast_config();
  config.alpha = 0.05;
  const BuildResult lax = NetworkBuilder(config).build(dataset.expression);
  config.alpha = 1e-3;
  config.permutations = 3000;
  const BuildResult strict = NetworkBuilder(config).build(dataset.expression);
  EXPECT_LT(strict.network.n_edges(), lax.network.n_edges());
  EXPECT_GT(strict.threshold, lax.threshold);
}

TEST(Pipeline, LoggerReceivesStageMessages) {
  const SyntheticDataset dataset = standard_dataset(20, 80);
  NetworkBuilder builder(fast_config());
  std::vector<std::string> messages;
  builder.set_logger([&](std::string_view m) { messages.emplace_back(m); });
  builder.build(dataset.expression);
  ASSERT_GE(messages.size(), 4u);
  EXPECT_NE(messages[0].find("preprocess"), std::string::npos);
  EXPECT_NE(messages[1].find("weight table"), std::string::npos);
  EXPECT_NE(messages[2].find("null"), std::string::npos);
  EXPECT_NE(messages[3].find("mi pass"), std::string::npos);
}

TEST(Pipeline, MoveOverloadAvoidsCopy) {
  SyntheticDataset dataset = standard_dataset(20, 80);
  const NetworkBuilder builder(fast_config());
  const BuildResult result = builder.build(std::move(dataset.expression));
  EXPECT_GT(result.network.n_nodes(), 0u);
}

TEST(Pipeline, TooFewUsableGenesFails) {
  ExpressionMatrix constant(3, 50);  // all zero variance
  const NetworkBuilder builder(fast_config());
  EXPECT_THROW(builder.build(constant), ContractViolation);
}

TEST(Pipeline, InvalidConfigRejectedAtConstruction) {
  TingeConfig config;
  config.alpha = 2.0;
  EXPECT_THROW(NetworkBuilder{config}, ContractViolation);
}


TEST(Pipeline, CheckpointPathProducesIdenticalNetworkAndCleansUp) {
  const SyntheticDataset dataset = standard_dataset(30, 120);
  TingeConfig config = fast_config();
  const BuildResult plain = NetworkBuilder(config).build(dataset.expression);

  const std::string ckpt = std::filesystem::temp_directory_path() /
                           ("tingex_builder_" + std::to_string(::getpid()) +
                            ".ckpt");
  config.checkpoint_path = ckpt;
  const BuildResult journaled =
      NetworkBuilder(config).build(dataset.expression);

  ASSERT_EQ(plain.network.n_edges(), journaled.network.n_edges());
  for (std::size_t i = 0; i < plain.network.n_edges(); ++i)
    EXPECT_EQ(plain.network.edges()[i], journaled.network.edges()[i]);
  EXPECT_FALSE(std::filesystem::exists(ckpt));
}


TEST(Pipeline, ExposesNullDistributionForPValues) {
  const SyntheticDataset dataset = standard_dataset(25, 100);
  const BuildResult result = NetworkBuilder(fast_config()).build(dataset.expression);
  ASSERT_NE(result.null, nullptr);
  EXPECT_EQ(result.null->size(), fast_config().permutations);
  // Every kept edge is at or beyond the threshold, so its p-value is at
  // most alpha (up to quantile interpolation).
  for (const Edge& e : result.network.edges()) {
    EXPECT_LE(result.null->p_value(e.weight), fast_config().alpha * 2.0);
  }
}

}  // namespace
}  // namespace tinge
