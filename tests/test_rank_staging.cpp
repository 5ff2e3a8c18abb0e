// The memory-side knobs are all claimed to be bit-identical: uint16 rank
// staging and NUMA-aware tile scheduling change where bytes come from (or
// which thread claims which tile), never which floats are multiplied in
// which order. These tests enforce that claim at every layer — raw panel
// kernels, the engine, the cluster ring sweep and the NUMA scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/ring_mi.h"
#include "core/mi_engine.h"
#include "core/sweep.h"
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

TEST(StagedRankMatrix, FirstTouchFillCoversEveryNodeBlock) {
  // The parallel fill must write every gene row exactly once for any
  // (threads, nodes) shape — in particular 1 < threads < nodes, where a
  // naive block partition of tids maps some nodes to no thread and leaves
  // their gene blocks uninitialized (the staged matrix starts poisoned, so
  // a missed row would feed out-of-range indices to the weight table).
  const RankedMatrix ranked = random_ranked(29, 61, 5);
  par::ThreadPool pool(6);
  const struct { int threads, nodes; } shapes[] = {
      {1, 4}, {2, 4}, {3, 5}, {2, 2}, {4, 2}, {5, 3}, {6, 1}};
  for (const auto& shape : shapes) {
    StagedRankMatrix staged(ranked.n_genes(), ranked.n_samples());
    fill_staged_first_touch(staged, ranked, pool, shape.threads, shape.nodes);
    for (std::size_t g = 0; g < ranked.n_genes(); ++g) {
      const auto row32 = ranked.ranks(g);
      const std::uint16_t* row16 = staged.row(g);
      for (std::size_t s = 0; s < row32.size(); ++s)
        ASSERT_EQ(static_cast<std::uint32_t>(row16[s]), row32[s])
            << "threads=" << shape.threads << " nodes=" << shape.nodes
            << " gene " << g << " sample " << s;
    }
  }
}

// ---- engine: staged on/off produce identical networks ----------------------

TEST(EngineStaging, StagedSweepMatchesClassicBitForBit) {
  const RankedMatrix ranked = random_ranked(28, 90, 11);
  const BsplineMi estimator(10, 3, 90);
  const MiEngine engine(estimator, ranked);
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

// ---- cluster ring sweep: staging on/off produce identical networks ---------

TEST(ClusterStaging, RingSweepMatchesWithStagingOnAndOff) {
  const RankedMatrix ranked = random_ranked(24, 72, 31);
  const BsplineMi estimator(10, 3, 72);
  const BsplineStat statistic(estimator);

  TingeConfig off;
  off.stage_ranks = false;
  TingeConfig on;
  on.stage_ranks = true;

  for (const int ranks : {2, 3}) {
    const GeneNetwork classic = cluster::cluster_compute_network(
        statistic, ranked, 0.2, ranks, off);
    const GeneNetwork staged = cluster::cluster_compute_network(
        statistic, ranked, 0.2, ranks, on);
    ASSERT_GT(classic.n_edges(), 0u);
    ASSERT_EQ(staged.n_edges(), classic.n_edges()) << ranks << " ranks";
    for (std::size_t i = 0; i < classic.n_edges(); ++i) {
      EXPECT_EQ(staged.edges()[i].u, classic.edges()[i].u);
      EXPECT_EQ(staged.edges()[i].v, classic.edges()[i].v);
      EXPECT_EQ(staged.edges()[i].weight, classic.edges()[i].weight);
    }
  }
}

// ---- NUMA tile plan and node-queue scheduler -------------------------------

TEST(NumaPlan, GenePartitionIsContiguousAndBalanced) {
  // 2-node split of 10 genes: first half node 0, second half node 1.
  for (std::size_t g = 0; g < 5; ++g)
    EXPECT_EQ(numa_node_of_gene(g, 10, 2), 0) << g;
  for (std::size_t g = 5; g < 10; ++g)
    EXPECT_EQ(numa_node_of_gene(g, 10, 2), 1) << g;
  // Degenerate shapes fall back to node 0.
  EXPECT_EQ(numa_node_of_gene(3, 10, 1), 0);
  EXPECT_EQ(numa_node_of_gene(0, 0, 4), 0);
  // The last gene always lands on the last node (clamped, never out of
  // range even with rounding).
  EXPECT_EQ(numa_node_of_gene(9, 10, 3), 2);
}

TEST(NumaPlan, TilesFollowTheirFirstRowGene) {
  const SweepPlan plan = SweepPlan::triangular(0, 32, 8);
  const NumaTilePlan numa = make_numa_tile_plan(plan, 32, 2, 4);
  ASSERT_EQ(numa.nodes, 2);
  ASSERT_EQ(numa.tile_node.size(), plan.count());
  for (std::size_t t = 0; t < plan.count(); ++t)
    EXPECT_EQ(numa.tile_node[t],
              numa_node_of_gene(plan.tile(t).row_begin, 32, 2))
        << "tile " << t;
  ASSERT_EQ(numa.thread_node.size(), 4u);
  EXPECT_EQ(numa.thread_node[0], 0);
  EXPECT_EQ(numa.thread_node[1], 0);
  EXPECT_EQ(numa.thread_node[2], 1);
  EXPECT_EQ(numa.thread_node[3], 1);
  // No layout supplied: contexts can only use the tid-block fallback.
  EXPECT_TRUE(numa.cpu_node.empty());
}

TEST(NumaPlan, AdoptsCpuTableOnlyWhenLayoutMatchesPlanNodes) {
  const SweepPlan plan = SweepPlan::triangular(0, 32, 8);
  par::NumaLayout layout;
  layout.nodes = 2;
  layout.cpu_node = {0, 0, 1, 1};
  // Matching node count: the cpu->node table rides along so sweep contexts
  // can resolve their home from the CPU they actually run on.
  const NumaTilePlan matched = make_numa_tile_plan(plan, 32, 2, 4, &layout);
  EXPECT_EQ(matched.cpu_node, layout.cpu_node);
  // Synthetic plan nodes != detected nodes: the table describes a different
  // node space and must be dropped in favor of the tid-block fallback.
  const NumaTilePlan synthetic = make_numa_tile_plan(plan, 32, 4, 4, &layout);
  EXPECT_TRUE(synthetic.cpu_node.empty());
}

TEST(NumaScheduler, NodeQueueSweepIsBitIdenticalAndWorkConserving) {
  // Drive run_sweep directly with a synthetic 2-node plan (the test host
  // may have one node): the node-queue scheduler must claim every tile
  // exactly once and produce the same edges as the shared-queue path.
  constexpr std::size_t kGenes = 40;
  constexpr std::size_t kSamples = 64;
  const RankedMatrix ranked = random_ranked(kGenes, kSamples, 23);
  const BsplineMi estimator(10, 3, kSamples);
  const BsplineStat statistic(estimator);
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, 8);
  const PanelPlan panels = plan_panels(estimator, TingeConfig{});
  const auto row = [&ranked](std::size_t g) {
    return ranked.ranks(g).data();
  };
  par::ThreadPool pool(4);

  SweepOptions flat;
  flat.threads = 4;
  EdgeSink flat_sink(0.2, 4);
  const auto flat_counters =
      run_sweep(plan, statistic, row, panels, &pool, flat, flat_sink);
  const std::vector<Edge> flat_edges = [&] {
    std::vector<Edge> edges = flat_sink.take_all();
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    return edges;
  }();
  ASSERT_GT(flat_edges.size(), 0u);

  const NumaTilePlan numa = make_numa_tile_plan(plan, kGenes, 2, 4);
  SweepOptions with_numa = flat;
  with_numa.numa = &numa;
  EdgeSink numa_sink(0.2, 4);
  const auto numa_counters =
      run_sweep(plan, statistic, row, panels, &pool, with_numa, numa_sink);
  std::vector<Edge> numa_edges = numa_sink.take_all();
  std::sort(numa_edges.begin(), numa_edges.end(),
            [](const Edge& a, const Edge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });

  ASSERT_EQ(numa_edges.size(), flat_edges.size());
  for (std::size_t i = 0; i < flat_edges.size(); ++i)
    EXPECT_EQ(numa_edges[i], flat_edges[i]);

  // Work conservation: every tile claimed exactly once, and the local/
  // stolen split accounts for all of them.
  std::uint64_t tiles = 0, local = 0, stolen = 0, pairs = 0;
  for (const SweepCounters& c : numa_counters) {
    tiles += c.tiles;
    local += c.tiles_local;
    stolen += c.tiles_stolen;
    pairs += c.pairs;
  }
  EXPECT_EQ(tiles, plan.count());
  EXPECT_EQ(local + stolen, tiles);
  EXPECT_EQ(pairs, plan.total_pairs());
  // The flat path must not report NUMA claims.
  for (const SweepCounters& c : flat_counters) {
    EXPECT_EQ(c.tiles_local, 0u);
    EXPECT_EQ(c.tiles_stolen, 0u);
  }
}

TEST(NumaScheduler, EngineNumaKnobDoesNotChangeTheNetwork) {
  // On any host (1 node or many) forcing the knob on/off must not change
  // the result — only the tile claim order may differ.
  const RankedMatrix ranked = random_ranked(26, 80, 17);
  const BsplineMi estimator(10, 3, 80);
  const MiEngine engine(estimator, ranked);
  par::ThreadPool pool(4);

  TingeConfig off;
  off.threads = 4;
  off.tile_size = 8;
  off.numa = KnobMode::Off;
  TingeConfig on = off;
  on.numa = KnobMode::On;

  const GeneNetwork base = engine.compute_network(0.2, off, pool);
  const GeneNetwork with_numa = engine.compute_network(0.2, on, pool);
  ASSERT_EQ(with_numa.n_edges(), base.n_edges());
  for (std::size_t i = 0; i < base.n_edges(); ++i)
    EXPECT_EQ(with_numa.edges()[i], base.edges()[i]);
}

}  // namespace
}  // namespace tinge
