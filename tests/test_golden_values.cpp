// Golden values: fixed-seed small pipeline runs, one per estimator, whose
// null threshold and edge list are pinned bit for bit. Cross-path identity
// tests only prove that the paths agree with each other; these pins catch
// arithmetic drift that moves every path at once. A deliberate change of a
// statistic's arithmetic re-pins its row in one reviewed diff, and the rows
// of the statistics it does not touch must stay byte-identical.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "core/network_builder.h"
#include "synth/expression.h"

namespace tinge {
namespace {

struct GoldenRow {
  EstimatorKind estimator;
  std::uint64_t threshold_bits;  ///< bit_cast<uint64_t>(BuildResult::threshold)
  std::uint64_t edge_digest;     ///< edge_list_digest of the built network
  std::size_t edges;
};

// Pinned with GCC on x86-64, in two arithmetic profiles. Builds with fused
// multiply-add (-march=native on AVX2 or AVX-512 hosts, the reference host
// included) run the B-spline vector kernel and a fused vector log, and let
// the compiler contract scalar a*b+c; builds without it (the x86-64
// baseline, -DTINGEX_NATIVE=OFF) do neither, which moves the B-spline and
// histogram rows in the last bits. Only the B-spline row runs the B-spline
// kernels (mi/bspline_kernels.h), in the canonical bin-grouped
// accumulation order; the other five never touch them.
#if defined(__AVX512F__) || defined(__FMA__)
constexpr bool kFusedBuild = true;
#else
constexpr bool kFusedBuild = false;
#endif

constexpr GoldenRow kGoldenFused[] = {
    {EstimatorKind::Bspline, 0x3fbd23444b8ba36cULL, 0x9c3d993a59c80b5bULL, 69},
    {EstimatorKind::Histogram, 0x3fdbd054af189950ULL, 0x887fc228dd0a5043ULL, 34},
    {EstimatorKind::Ksg, 0x3fc0465ac62e638cULL, 0x308a613b8c285a2dULL, 43},
    {EstimatorKind::Pearson, 0x3fc7fdb45c787471ULL, 0x531ef3b02ec9f9a0ULL, 182},
    {EstimatorKind::Spearman, 0x3fc7fdb45c787471ULL, 0x8140307548eaad62ULL, 183},
    {EstimatorKind::Phi, 0x3fe224dd2f1a9fbdULL, 0xc0d11a8c239a9607ULL, 4},
};
constexpr GoldenRow kGoldenUnfused[] = {
    {EstimatorKind::Bspline, 0x3fbd23444b8ba3acULL, 0x9c3d993a59c80b5bULL, 69},
    {EstimatorKind::Histogram, 0x3fdbd054af189960ULL, 0x887fc228dd0a5043ULL, 34},
    {EstimatorKind::Ksg, 0x3fc0465ac62e638cULL, 0x308a613b8c285a2dULL, 43},
    {EstimatorKind::Pearson, 0x3fc7fdb45c787471ULL, 0x531ef3b02ec9f9a0ULL, 182},
    {EstimatorKind::Spearman, 0x3fc7fdb45c787471ULL, 0x8140307548eaad62ULL, 183},
    {EstimatorKind::Phi, 0x3fe224dd2f1a9fbdULL, 0xc0d11a8c239a9607ULL, 4},
};

/// FNV-1a (64-bit) over each edge's u, v and weight bits, little-endian,
/// in the network's sorted edge order.
std::uint64_t edge_list_digest(const GeneNetwork& network) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : network.edges()) {
    mix(e.u);
    mix(e.v);
    mix(std::bit_cast<std::uint32_t>(e.weight));
  }
  return hash;
}

BuildResult golden_build(EstimatorKind estimator) {
  GrnParams grn;
  grn.n_genes = 40;
  grn.mean_regulators = 1.5;
  grn.seed = 31;
  ExpressionParams expr;
  expr.n_samples = 150;
  expr.noise_sd = 1.0;
  expr.seed = 32;
  const SyntheticDataset dataset = make_synthetic_dataset(grn, expr);

  TingeConfig config;
  config.estimator = estimator;
  config.permutations = 400;
  config.alpha = 1e-2;
  config.threads = 2;
  config.tile_size = 16;
  return NetworkBuilder(config).build(dataset.expression);
}

class GoldenValues : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenValues, ThresholdAndEdgeListArePinned) {
  const GoldenRow& golden = GetParam();
  const BuildResult result = golden_build(golden.estimator);
  const auto threshold_bits = std::bit_cast<std::uint64_t>(result.threshold);
  const std::uint64_t digest = edge_list_digest(result.network);
  char actual[160];
  std::snprintf(actual, sizeof(actual), "{%s, 0x%016llxULL, 0x%016llxULL, %zu}",
                estimator_name(golden.estimator),
                static_cast<unsigned long long>(threshold_bits),
                static_cast<unsigned long long>(digest),
                result.network.n_edges());
  EXPECT_EQ(threshold_bits, golden.threshold_bits) << "actual row " << actual;
  EXPECT_EQ(digest, golden.edge_digest) << "actual row " << actual;
  EXPECT_EQ(result.network.n_edges(), golden.edges) << "actual row " << actual;
}

INSTANTIATE_TEST_SUITE_P(Estimators, GoldenValues,
                         ::testing::ValuesIn(kFusedBuild ? kGoldenFused
                                                         : kGoldenUnfused),
                         [](const auto& param_info) {
                           return std::string(
                               estimator_name(param_info.param.estimator));
                         });

}  // namespace
}  // namespace tinge
