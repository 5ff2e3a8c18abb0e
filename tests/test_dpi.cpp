// DPI filtering (ARACNE; Margolin et al., q-bio/0410037): hand-built
// triangles, and the triangle scan against a brute-force all-triples
// reference on seeded random graphs, with and without a pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/dpi.h"
#include "parallel/thread_pool.h"
#include "stats/rng.h"
#include "util/contracts.h"
#include "util/str.h"

namespace tinge {
namespace {

GeneNetwork triangle_network(float w_ab, float w_bc, float w_ac) {
  GeneNetwork network({"a", "b", "c"});
  network.add_edge(0, 1, w_ab);
  network.add_edge(1, 2, w_bc);
  network.add_edge(0, 2, w_ac);
  network.finalize();
  return network;
}

TEST(Dpi, RemovesWeakestTriangleEdge) {
  const GeneNetwork network = triangle_network(0.9f, 0.8f, 0.1f);
  DpiStats stats;
  const GeneNetwork filtered = apply_dpi(network, 0.0, &stats);
  EXPECT_EQ(stats.triangles_examined, 1u);
  EXPECT_EQ(stats.edges_removed, 1u);
  EXPECT_EQ(filtered.n_edges(), 2u);
  EXPECT_FALSE(filtered.has_edge(0, 2));
  EXPECT_TRUE(filtered.has_edge(0, 1));
  EXPECT_TRUE(filtered.has_edge(1, 2));
}

TEST(Dpi, ToleranceKeepsBorderlineEdges) {
  // Weakest edge within 20% of the median edge: survives with tol=0.3.
  const GeneNetwork network = triangle_network(0.9f, 0.5f, 0.45f);
  EXPECT_EQ(apply_dpi(network, 0.0).n_edges(), 2u);
  EXPECT_EQ(apply_dpi(network, 0.3).n_edges(), 3u);
}

TEST(Dpi, NoTrianglesNothingRemoved) {
  GeneNetwork network({"a", "b", "c", "d"});
  network.add_edge(0, 1, 0.9f);
  network.add_edge(1, 2, 0.1f);
  network.add_edge(2, 3, 0.5f);
  network.finalize();
  DpiStats stats;
  const GeneNetwork filtered = apply_dpi(network, 0.0, &stats);
  EXPECT_EQ(stats.triangles_examined, 0u);
  EXPECT_EQ(filtered.n_edges(), 3u);
}

TEST(Dpi, ChainWithIndirectEdge) {
  // True chain a-b-c plus a weaker indirect a-c edge plus unrelated d.
  GeneNetwork network({"a", "b", "c", "d"});
  network.add_edge(0, 1, 1.2f);
  network.add_edge(1, 2, 1.0f);
  network.add_edge(0, 2, 0.4f);  // indirect
  network.add_edge(2, 3, 0.7f);
  network.finalize();
  const GeneNetwork filtered = apply_dpi(network, 0.1);
  EXPECT_FALSE(filtered.has_edge(0, 2));
  EXPECT_TRUE(filtered.has_edge(2, 3));
  EXPECT_EQ(filtered.n_edges(), 3u);
}

TEST(Dpi, PreservesNodeNames) {
  const GeneNetwork network = triangle_network(0.9f, 0.8f, 0.1f);
  const GeneNetwork filtered = apply_dpi(network, 0.0);
  EXPECT_EQ(filtered.node_names(), network.node_names());
}

TEST(Dpi, RequiresFinalizedInput) {
  GeneNetwork network({"a", "b"});
  network.add_edge(0, 1, 1.0f);
  EXPECT_THROW(apply_dpi(network, 0.0), ContractViolation);
}

// ---- brute-force reference -------------------------------------------------

// Every node triple x < y < w whose three edges exist is a triangle, judged
// on the input weights: its weakest edge goes when it is below
// (1 - tolerance) times the triangle's middle weight; of tied weakest
// edges, (x, y) goes first, then (x, w). This is the rule perfbench's
// output check applies, written over a dense weight matrix.
struct ReferenceDpi {
  std::set<std::pair<std::uint32_t, std::uint32_t>> removed;
  std::size_t triangles = 0;
};

ReferenceDpi reference_dpi(const GeneNetwork& network, double tolerance) {
  const std::size_t n = network.n_nodes();
  std::vector<float> weight(n * n, -1.0f);  // -1: no edge
  for (const Edge& e : network.edges())
    weight[e.u * n + e.v] = weight[e.v * n + e.u] = e.weight;
  const float keep = static_cast<float>(1.0 - tolerance);
  ReferenceDpi ref;
  for (std::uint32_t x = 0; x < n; ++x)
    for (std::uint32_t y = x + 1; y < n; ++y)
      for (std::uint32_t w = y + 1; w < n; ++w) {
        const float w_xy = weight[x * n + y];
        const float w_xw = weight[x * n + w];
        const float w_yw = weight[y * n + w];
        if (w_xy < 0.0f || w_xw < 0.0f || w_yw < 0.0f) continue;
        ++ref.triangles;
        std::array<float, 3> sorted = {w_xy, w_xw, w_yw};
        std::sort(sorted.begin(), sorted.end());
        if (!(sorted[0] < sorted[1] * keep)) continue;
        ref.removed.insert(w_xy == sorted[0]   ? std::pair{x, y}
                           : w_xw == sorted[0] ? std::pair{x, w}
                                               : std::pair{y, w});
      }
  return ref;
}

// n nodes, each pair an edge with probability `density`. Half the weights
// come from eight levels, so triangles with tied edges are common.
GeneNetwork random_network(std::size_t n, double density,
                           std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back(strprintf("g%zu", i));
  GeneNetwork network(std::move(names));
  Xoshiro256 rng(seed);
  const auto uniform = [&] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (uniform() >= density) continue;
      const float w = rng() % 2 == 0
                          ? 0.125f * static_cast<float>(1 + rng() % 8)
                          : static_cast<float>(0.05 + uniform());
      network.add_edge(a, b, w);
    }
  network.finalize();
  return network;
}

void expect_matches_reference(const GeneNetwork& network,
                              const GeneNetwork& filtered,
                              const DpiStats& stats, const ReferenceDpi& ref) {
  std::vector<Edge> expected;
  for (const Edge& e : network.edges())
    if (ref.removed.count({e.u, e.v}) == 0) expected.push_back(e);
  ASSERT_TRUE(filtered.finalized());
  ASSERT_EQ(filtered.n_edges(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Edge& got = filtered.edges()[i];
    EXPECT_EQ(got.u, expected[i].u);
    EXPECT_EQ(got.v, expected[i].v);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.weight),
              std::bit_cast<std::uint32_t>(expected[i].weight));
  }
  EXPECT_EQ(filtered.node_names(), network.node_names());
  EXPECT_EQ(stats.triangles_examined, ref.triangles);
  EXPECT_EQ(stats.edges_removed, ref.removed.size());
}

TEST(Dpi, MatchesAllTriplesReferenceWithAndWithoutPool) {
  par::ThreadPool pool(4);
  std::size_t removals = 0;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 40u, 97u}) {
    for (const double density : {0.25, 0.7}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const GeneNetwork network =
            random_network(n, density, seed * 1000 + n);
        for (const double tolerance : {0.0, 0.1, 0.5}) {
          SCOPED_TRACE(strprintf("n=%zu density=%.2f seed=%llu tol=%.1f", n,
                                 density,
                                 static_cast<unsigned long long>(seed),
                                 tolerance));
          const ReferenceDpi ref = reference_dpi(network, tolerance);
          removals += ref.removed.size();
          DpiStats stats;
          const GeneNetwork serial = apply_dpi(network, tolerance, &stats);
          expect_matches_reference(network, serial, stats, ref);
          for (const int threads : {1, 2, 4}) {
            SCOPED_TRACE(strprintf("threads=%d", threads));
            DpiStats pooled_stats;
            const GeneNetwork pooled =
                apply_dpi(network, tolerance, &pooled_stats, pool, threads);
            expect_matches_reference(network, pooled, pooled_stats, ref);
          }
        }
      }
    }
  }
  EXPECT_GT(removals, 0u);  // the graphs exercise removals, not just scans
}

}  // namespace
}  // namespace tinge
