// Network-analysis module: hubs, clustering coefficients, power-law fit,
// summary — validated on hand-constructed graphs and generator output.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/analysis.h"
#include "synth/grn.h"

namespace tinge {
namespace {

GeneNetwork make_network(std::size_t n,
                         std::initializer_list<std::pair<int, int>> edges) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    names.push_back(std::string("n").append(std::to_string(i)));
  GeneNetwork network(std::move(names));
  for (const auto& [a, b] : edges)
    network.add_edge(static_cast<std::uint32_t>(a),
                     static_cast<std::uint32_t>(b), 1.0f);
  network.finalize();
  return network;
}

TEST(TopHubs, OrdersByDegree) {
  // star around node 0 plus one extra edge at node 1
  const GeneNetwork network =
      make_network(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}});
  const auto hubs = top_hubs(network, 3);
  ASSERT_EQ(hubs.size(), 3u);
  EXPECT_EQ(hubs[0].node, 0u);
  EXPECT_EQ(hubs[0].degree, 4u);
  EXPECT_EQ(hubs[0].name, "n0");
  EXPECT_EQ(hubs[1].node, 1u);
  EXPECT_EQ(hubs[1].degree, 2u);
}

TEST(TopHubs, CountClampedToNodes) {
  const GeneNetwork network = make_network(3, {{0, 1}});
  EXPECT_EQ(top_hubs(network, 10).size(), 3u);
}

TEST(Clustering, TriangleIsFullyClustered) {
  const GeneNetwork triangle = make_network(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(triangle), 1.0);
  EXPECT_DOUBLE_EQ(local_clustering_coefficient(triangle, 0), 1.0);
}

TEST(Clustering, StarHasZeroClustering) {
  const GeneNetwork star = make_network(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(star), 0.0);
  EXPECT_DOUBLE_EQ(local_clustering_coefficient(star, 0), 0.0);
  EXPECT_DOUBLE_EQ(local_clustering_coefficient(star, 1), 0.0);  // degree 1
}

TEST(Clustering, TriangleWithTailHandComputed) {
  // triangle 0-1-2 plus tail 2-3: triangles=1, triples: deg={2,2,3,1} ->
  // 1+1+3 = 5; C = 3*1/5.
  const GeneNetwork network = make_network(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(network), 0.6);
  EXPECT_DOUBLE_EQ(local_clustering_coefficient(network, 2), 1.0 / 3.0);
}

TEST(Clustering, EmptyAndEdgelessGraphs) {
  GeneNetwork empty({"a", "b"});
  empty.finalize();
  EXPECT_DOUBLE_EQ(global_clustering_coefficient(empty), 0.0);
}

TEST(Powerlaw, NotEstimableOnTinyGraphs) {
  const GeneNetwork network = make_network(3, {{0, 1}});
  EXPECT_DOUBLE_EQ(powerlaw_exponent_mle(network), 0.0);
}

TEST(Powerlaw, ScaleFreeGrnLandsInBiologicalRange) {
  GrnParams params;
  params.n_genes = 3000;
  params.mean_regulators = 2.0;
  params.topology = GrnTopology::ScaleFree;
  params.seed = 9;
  const GeneNetwork network = generate_grn(params).to_undirected();
  const double gamma = powerlaw_exponent_mle(network, /*k_min=*/3);
  EXPECT_GT(gamma, 1.5);
  EXPECT_LT(gamma, 4.0);
}

TEST(Powerlaw, ErdosRenyiFitsWorseThanScaleFree) {
  GrnParams params;
  params.n_genes = 3000;
  params.mean_regulators = 2.0;
  params.seed = 9;
  // A true power law gives a k_min-stable exponent; the Poisson-like ER
  // tail decays super-polynomially, so its apparent gamma inflates rapidly
  // as k_min moves into the tail.
  params.topology = GrnTopology::ScaleFree;
  const GeneNetwork scale_free = generate_grn(params).to_undirected();
  const double drift_sf = powerlaw_exponent_mle(scale_free, 8) -
                          powerlaw_exponent_mle(scale_free, 3);
  params.topology = GrnTopology::ErdosRenyi;
  const GeneNetwork erdos = generate_grn(params).to_undirected();
  const double drift_er = powerlaw_exponent_mle(erdos, 8) -
                          powerlaw_exponent_mle(erdos, 3);
  EXPECT_GT(drift_er, drift_sf + 0.5);
}

TEST(Summary, FieldsAreConsistent) {
  const GeneNetwork network =
      make_network(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}});
  const NetworkSummary summary = summarize_network(network);
  EXPECT_EQ(summary.nodes, 6u);
  EXPECT_EQ(summary.edges, 4u);
  EXPECT_EQ(summary.isolated_nodes, 1u);  // node 5
  EXPECT_EQ(summary.components, 3u);      // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(summary.max_degree, 2u);
  EXPECT_DOUBLE_EQ(summary.mean_degree, 8.0 / 6.0);
  EXPECT_GT(summary.clustering, 0.0);
  const std::string text = to_string(summary);
  EXPECT_NE(text.find("nodes:"), std::string::npos);
  EXPECT_NE(text.find("clustering"), std::string::npos);
}

TEST(Summary, RequiresFinalizedNetwork) {
  GeneNetwork network({"a", "b"});
  network.add_edge(0, 1, 1.0f);
  EXPECT_THROW(summarize_network(network), ContractViolation);
  EXPECT_THROW(top_hubs(network, 1), ContractViolation);
}

}  // namespace
}  // namespace tinge
