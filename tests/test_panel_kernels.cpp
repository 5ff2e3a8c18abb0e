// Panel (row-reuse) kernel equivalence: the vector kernel must reproduce
// the scalar reference bit for bit, per pair and in panels of every width,
// over uint32 and uint16 rank rows, across every supported shape and ragged
// tail; and the engine's panel-swept network must equal a per-pair
// recomputation exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "core/mi_engine.h"
#include "mi/bspline_kernels.h"
#include "mi/bspline_mi.h"
#include "preprocess/rank_transform.h"
#include "reference_mi.h"
#include "stats/rng.h"

namespace tinge {
namespace {

std::vector<std::uint32_t> random_ranks(std::size_t m, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return random_permutation(m, rng);
}

// bins x order x panel width x samples. Orders cover the full 1..8 range,
// bins one and two vectors per histogram row; m values are chosen so none
// is a multiple of a vector or panel width, including m below one vector.
class PanelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PanelEquivalence, BitIdenticalToPerPairKernels) {
  const auto [bins, order, width_int, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const auto width = static_cast<std::size_t>(width_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();

  const auto rx = random_ranks(m, 4242);
  const std::vector<std::uint16_t> rx16(rx.begin(), rx.end());
  std::vector<std::vector<std::uint32_t>> ys;
  std::vector<std::vector<std::uint16_t>> ys16;
  const std::uint32_t* ry[kMaxPanelWidth];
  const std::uint16_t* ry16[kMaxPanelWidth];
  for (std::size_t p = 0; p < width; ++p) {
    ys.push_back(random_ranks(m, 100 + p));
    ys16.emplace_back(ys.back().begin(), ys.back().end());
  }
  for (std::size_t p = 0; p < width; ++p) {
    ry[p] = ys[p].data();
    ry16[p] = ys16[p].data();
  }

  // The oracle: the scalar reference, one pair at a time.
  std::vector<double> reference(width);
  for (std::size_t p = 0; p < width; ++p)
    reference[p] = tinge::joint_entropy(estimator.table(), rx.data(), ry[p], m,
                                        scratch, MiKernel::Scalar);

  double panel[kMaxPanelWidth];
  for (const MiKernel kernel : {MiKernel::Scalar, MiKernel::Simd}) {
    for (std::size_t p = 0; p < width; ++p)
      EXPECT_EQ(tinge::joint_entropy(estimator.table(), rx.data(), ry[p], m,
                                     scratch, kernel),
                reference[p])
          << kernel_name(kernel) << " pair, member " << p;
    joint_entropy_panel(estimator.table(), rx.data(), ry, width, m, scratch,
                        kernel, panel);
    for (std::size_t p = 0; p < width; ++p)
      EXPECT_EQ(panel[p], reference[p])
          << kernel_name(kernel) << " u32 panel, member " << p;
    joint_entropy_panel(estimator.table(), rx16.data(), ry16, width, m,
                        scratch, kernel, panel);
    for (std::size_t p = 0; p < width; ++p)
      EXPECT_EQ(panel[p], reference[p])
          << kernel_name(kernel) << " u16 panel, member " << p;
  }
}

TEST_P(PanelEquivalence, MatchesDoublePrecisionReference) {
  const auto [bins, order, width_int, m_int] = GetParam();
  const auto m = static_cast<std::size_t>(m_int);
  const auto width = static_cast<std::size_t>(width_int);
  const BsplineMi estimator(bins, order, m);
  JointHistogram scratch = estimator.make_scratch();

  const auto rx = random_ranks(m, 77);
  std::vector<std::vector<std::uint32_t>> ys;
  const std::uint32_t* ry[kMaxPanelWidth];
  for (std::size_t p = 0; p < width; ++p) {
    ys.push_back(random_ranks(m, 500 + p));
    ry[p] = ys.back().data();
  }
  double panel[kMaxPanelWidth];
  joint_entropy_panel(estimator.table(), rx.data(), ry, width, m, scratch,
                      MiKernel::Auto, panel);
  for (std::size_t p = 0; p < width; ++p) {
    const double reference =
        testref::joint_entropy_reference(rx, ys[p], bins, order);
    EXPECT_NEAR(panel[p], reference, 5e-4) << "member " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Panels, PanelEquivalence,
    ::testing::Combine(::testing::Values(9, 12, 16, 30),    // bins
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),  // order
                       ::testing::Values(1, 3, 4, 8),       // panel width B
                       ::testing::Values(13, 97, 333)),     // samples (ragged)
    [](const auto& param_info) {
      return std::string("b")
          .append(std::to_string(std::get<0>(param_info.param)))
          .append("_k")
          .append(std::to_string(std::get<1>(param_info.param)))
          .append("_B")
          .append(std::to_string(std::get<2>(param_info.param)))
          .append("_m")
          .append(std::to_string(std::get<3>(param_info.param)));
    });

TEST(PanelScratch, CarriesEnoughRegionsForAnyPanel) {
  const BsplineMi estimator(10, 3, 64);
  const JointHistogram scratch = estimator.make_scratch();
  EXPECT_GE(scratch.replicas(), kMaxPanelWidth);
}

TEST(PanelScratch, PanelAndPairCallsInterleaveSafely) {
  // Calls rewrite only the regions they use, and the row-order memo must
  // follow the rank row passed in: a panel call must not poison a
  // following per-pair call and vice versa.
  const std::size_t m = 128;
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  const auto rx = random_ranks(m, 1);
  const auto a = random_ranks(m, 2);
  const auto b = random_ranks(m, 3);
  const std::uint32_t* ry[2] = {a.data(), b.data()};

  const double pair_first =
      tinge::joint_entropy(estimator.table(), rx.data(), a.data(), m, scratch,
                           MiKernel::Replicated);
  double panel[2];
  joint_entropy_panel(estimator.table(), rx.data(), ry, 2, m, scratch,
                      MiKernel::Auto, panel);
  const double pair_again =
      tinge::joint_entropy(estimator.table(), rx.data(), a.data(), m, scratch,
                           MiKernel::Replicated);
  EXPECT_EQ(pair_first, pair_again);
  double panel_again[2];
  joint_entropy_panel(estimator.table(), rx.data(), ry, 2, m, scratch,
                      MiKernel::Auto, panel_again);
  EXPECT_EQ(panel[0], panel_again[0]);
  EXPECT_EQ(panel[1], panel_again[1]);
}

TEST(PanelPolicy, AutoWidthIsInRangeAndShrinksWithBins) {
  const WeightTable small(64, BsplineBasis(10, 3));
  const int w_small = auto_panel_width(small);
  EXPECT_GE(w_small, 1);
  EXPECT_LE(w_small, kMaxPanelWidth);
  // TINGe-default histograms are a few KB; the budget fits the full panel.
  EXPECT_EQ(w_small, kMaxPanelWidth);
  const WeightTable big(64, BsplineBasis(30, 3));
  EXPECT_LE(auto_panel_width(big), w_small);
}

// ---- engine determinism: panel sweep vs per-pair seed path -----------------

struct EdgeKey {
  std::uint32_t u, v;
  float w;
  bool operator<(const EdgeKey& o) const {
    return std::tie(u, v, w) < std::tie(o.u, o.v, o.w);
  }
  friend bool operator==(const EdgeKey&, const EdgeKey&) = default;
};

class PanelEngineFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 120;

  PanelEngineFixture() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(20260806);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g % 4 == 0 ? driver + 0.7 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
  }

  /// Per-pair recomputation with an explicit kernel — the seed code path.
  std::set<EdgeKey> per_pair_edges(MiKernel kernel, double threshold) const {
    JointHistogram scratch = estimator_.make_scratch();
    std::set<EdgeKey> edges;
    const auto threshold_f = static_cast<float>(threshold);
    for (std::size_t i = 0; i < kGenes; ++i) {
      for (std::size_t j = i + 1; j < kGenes; ++j) {
        const auto mi = static_cast<float>(estimator_.mi(
            ranked_.ranks(i), ranked_.ranks(j), scratch, kernel));
        if (mi >= threshold_f)
          edges.insert({static_cast<std::uint32_t>(i),
                        static_cast<std::uint32_t>(j), mi});
      }
    }
    return edges;
  }

  static std::set<EdgeKey> to_set(const GeneNetwork& network) {
    std::set<EdgeKey> edges;
    for (const Edge& e : network.edges()) edges.insert({e.u, e.v, e.weight});
    return edges;
  }

  BsplineMi estimator_;
  RankedMatrix ranked_;
};

TEST_F(PanelEngineFixture, NetworkEdgesIdenticalToPerPairPath) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(3);
  const double threshold = 0.12;
  // Simd maps to the identical panel accumulation order, so the edge sets
  // (including weights, bit for bit) must match the per-pair seed path.
  for (const MiKernel kernel : {MiKernel::Scalar, MiKernel::Simd}) {
    const std::set<EdgeKey> expected = per_pair_edges(kernel, threshold);
    for (const int panel_width : {0, 1, 3, 8}) {
      TingeConfig config;
      config.kernel = kernel;
      config.panel_width = panel_width;
      config.tile_size = 7;  // forces ragged tile edges
      config.threads = 3;
      EngineStats stats;
      const GeneNetwork network =
          engine.compute_network(threshold, config, pool, &stats);
      EXPECT_EQ(to_set(network), expected)
          << kernel_name(kernel) << " B=" << panel_width;
      EXPECT_GE(stats.panel_width, 1);
      if (panel_width > 0) {
        EXPECT_EQ(stats.panel_width, panel_width);
      }
    }
  }
}

TEST_F(PanelEngineFixture, DensePanelMatchesPerPairBitwise) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  config.kernel = MiKernel::Simd;
  config.tile_size = 9;
  const auto dense = engine.compute_dense(config, pool);
  JointHistogram scratch = estimator_.make_scratch();
  for (std::size_t i = 0; i < kGenes; ++i) {
    for (std::size_t j = i + 1; j < kGenes; ++j) {
      const auto expected = static_cast<float>(estimator_.mi(
          ranked_.ranks(i), ranked_.ranks(j), scratch, MiKernel::Simd));
      EXPECT_EQ(dense[i * kGenes + j], expected) << i << "," << j;
      EXPECT_EQ(dense[j * kGenes + i], expected) << j << "," << i;
    }
  }
}

TEST_F(PanelEngineFixture, StatsReportResolvedKernelAndPanelWidth) {
  const MiEngine engine(estimator_, ranked_);
  par::ThreadPool pool(2);
  TingeConfig config;
  EngineStats stats;
  engine.compute_network(0.2, config, pool, &stats);
  EXPECT_STRNE(stats.kernel, "?");
  // Auto resolves to a concrete variant name, never the policy name.
  EXPECT_STRNE(stats.kernel, "auto");
  EXPECT_GE(stats.panel_width, 1);
  EXPECT_LE(stats.panel_width, kMaxPanelWidth);

  config.kernel = MiKernel::Scalar;
  config.panel_width = 5;
  engine.compute_network(0.2, config, pool, &stats);
  EXPECT_STREQ(stats.kernel, "scalar");
  EXPECT_EQ(stats.panel_width, 5);
}

}  // namespace
}  // namespace tinge
