// Graph substrate: network container invariants, adjacency, components,
// edge-list/SIF I/O, recovery metrics.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "data/tsv_io.h"
#include "graph/graph_io.h"
#include "graph/metrics.h"
#include "graph/network.h"
#include "stats/rng.h"
#include "util/str.h"

namespace tinge {
namespace {

GeneNetwork small_network() {
  GeneNetwork network({"a", "b", "c", "d", "e"});
  network.add_edge(0, 1, 0.9f);
  network.add_edge(1, 2, 0.5f);
  network.add_edge(3, 0, 0.2f);  // reversed endpoints on purpose
  network.finalize();
  return network;
}

TEST(GeneNetwork, NormalizesEndpointOrder) {
  const GeneNetwork network = small_network();
  for (const Edge& e : network.edges()) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(network.has_edge(0, 3));
  EXPECT_TRUE(network.has_edge(3, 0));
  EXPECT_FLOAT_EQ(network.edge_weight(3, 0), 0.2f);
}

TEST(GeneNetwork, RejectsSelfLoopsAndBadNodes) {
  GeneNetwork network({"a", "b"});
  EXPECT_THROW(network.add_edge(0, 0, 1.0f), ContractViolation);
  EXPECT_THROW(network.add_edge(0, 2, 1.0f), ContractViolation);
}

TEST(GeneNetwork, FinalizeMergesDuplicatesKeepingMax) {
  GeneNetwork network({"a", "b"});
  network.add_edge(0, 1, 0.3f);
  network.add_edge(1, 0, 0.7f);
  network.add_edge(0, 1, 0.5f);
  network.finalize();
  EXPECT_EQ(network.n_edges(), 1u);
  EXPECT_FLOAT_EQ(network.edge_weight(0, 1), 0.7f);
}

TEST(GeneNetwork, EdgeWeightNegativeWhenAbsent) {
  const GeneNetwork network = small_network();
  EXPECT_LT(network.edge_weight(2, 4), 0.0f);
  EXPECT_FALSE(network.has_edge(2, 4));
  EXPECT_FALSE(network.has_edge(1, 1));
}

TEST(GeneNetwork, QueriesRequireFinalize) {
  GeneNetwork network({"a", "b"});
  network.add_edge(0, 1, 1.0f);
  EXPECT_THROW(network.edge_weight(0, 1), ContractViolation);
  EXPECT_THROW(network.degrees(), ContractViolation);
}

TEST(GeneNetwork, Degrees) {
  const auto degrees = small_network().degrees();
  EXPECT_EQ(degrees, (std::vector<std::size_t>{2, 2, 1, 1, 0}));
}

TEST(GeneNetwork, ThresholdedKeepsStrongEdges) {
  const GeneNetwork filtered = small_network().thresholded(0.5f);
  EXPECT_EQ(filtered.n_edges(), 2u);
  EXPECT_TRUE(filtered.has_edge(0, 1));
  EXPECT_TRUE(filtered.has_edge(1, 2));
  EXPECT_FALSE(filtered.has_edge(0, 3));
}

TEST(GeneNetwork, AddEdgesBulkValidates) {
  GeneNetwork network({"a", "b", "c"});
  const Edge good[] = {{0, 1, 1.0f}};
  network.add_edges(good);
  const Edge bad_order[] = {{1, 0, 1.0f}};
  EXPECT_THROW(network.add_edges(bad_order), ContractViolation);
  const Edge bad_node[] = {{0, 3, 1.0f}};
  EXPECT_THROW(network.add_edges(bad_node), ContractViolation);
}

TEST(Adjacency, NeighborsSortedWithWeights) {
  const Adjacency adjacency(small_network());
  const auto n1 = adjacency.neighbors(1);
  ASSERT_EQ(n1.size(), 2u);
  EXPECT_EQ(n1[0].node, 0u);
  EXPECT_FLOAT_EQ(n1[0].weight, 0.9f);
  EXPECT_EQ(n1[1].node, 2u);
  const auto n4 = adjacency.neighbors(4);
  EXPECT_TRUE(n4.empty());
}

TEST(Components, CountsIsolatedNodes) {
  EXPECT_EQ(connected_components(small_network()), 2u);  // {a,b,c,d} and {e}
  GeneNetwork empty({"x", "y", "z"});
  empty.finalize();
  EXPECT_EQ(connected_components(empty), 3u);
}

// ---- I/O ------------------------------------------------------------------------

TEST(GraphIo, EdgeListRoundtripPreservesEverything) {
  const GeneNetwork network = small_network();
  std::stringstream stream;
  write_edge_list(network, stream);
  const GeneNetwork back = read_edge_list(stream);
  EXPECT_EQ(back.n_nodes(), network.n_nodes());  // isolated "e" survives
  EXPECT_EQ(back.n_edges(), network.n_edges());
  EXPECT_EQ(back.node_names(), network.node_names());
  for (const Edge& e : network.edges())
    EXPECT_FLOAT_EQ(back.edge_weight(e.u, e.v), e.weight);
}

TEST(GraphIo, ReadsHeaderlessEdgeLists) {
  std::stringstream stream("x\ty\t0.5\ny\tz\t0.25\n");
  const GeneNetwork network = read_edge_list(stream);
  EXPECT_EQ(network.n_nodes(), 3u);
  EXPECT_EQ(network.n_edges(), 2u);
  EXPECT_FLOAT_EQ(
      network.edge_weight(0, 1), 0.5f);  // first-appearance ids: x=0, y=1
}

TEST(GraphIo, RejectsMalformedRows) {
  std::stringstream stream("a\tb\n");
  EXPECT_THROW(read_edge_list(stream), IoError);
  std::stringstream stream2("a\tb\tnotanumber\n");
  EXPECT_THROW(read_edge_list(stream2), IoError);
}

std::string printf_general(double value, int precision) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*g", precision, value);
  return text;
}

// The writers format numbers with std::to_chars; their bytes must stay the
// "%.9g" weights and "%.3g" p-values the format has always carried.
TEST(GraphIo, WritersPrintTheBytesOfPrintfOnTrickyValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> weights = {
      0.0f, -0.0f, 1.0f, 0.1f, 1.0f / 3.0f, 1e-4f, 9.99999975e-5f,
      1e-5f, 123456789.0f, 999999999.0f, 1e9f, 16777216.0f, FLT_MIN,
      FLT_MAX, std::numeric_limits<float>::denorm_min(), FLT_EPSILON,
      kInf, -kInf, kNan, -kNan, 0.0468800738f, 2.2386f};
  Xoshiro256 rng(19);
  while (weights.size() < 6000)
    weights.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(rng())));
  std::vector<double> pvalues = {
      0.0, 1.0, 1.0 / 3.0, 2.0 / 3.0, 1e-4, 9.9949999999999997e-5, 9.995e-5,
      0.0009995, 0.9995, 0.99949999999999994, 999.5, 1e-300, 5e-324,
      DBL_MAX, 0.125, 0.00049975012493753122};
  while (pvalues.size() < weights.size())
    pvalues.push_back(std::bit_cast<double>(rng()));

  // Node 0 links to every other node, so edges() keeps the weights' order.
  // One name is longer than the writer's 64 KiB flush size.
  std::vector<std::string> names;
  for (std::size_t i = 0; i <= weights.size(); ++i)
    names.push_back(strprintf("g%zu", i));
  names[7] = std::string(70000, 'x');
  GeneNetwork network(names);
  for (std::size_t i = 0; i < weights.size(); ++i)
    network.add_edge(0, static_cast<std::uint32_t>(i + 1), weights[i]);
  network.finalize();

  std::string header = strprintf("# nodes: %zu\n", names.size());
  for (const std::string& name : names)
    header.append("# node\t").append(name) += '\n';
  std::string plain = header;
  std::string with_p = header;
  with_p += "# columns: gene_a\tgene_b\tmi_nats\tnull_p_value\n";
  for (std::size_t i = 0; i < weights.size(); ++i) {
    std::string row = names[0];
    row.append("\t").append(names[i + 1]).append("\t");
    row += printf_general(static_cast<double>(weights[i]), 9);
    plain.append(row) += '\n';
    with_p.append(row).append("\t").append(printf_general(pvalues[i], 3)) +=
        '\n';
  }

  std::stringstream written;
  write_edge_list(network, written);
  EXPECT_EQ(written.str(), plain);
  std::size_t next = 0;
  std::stringstream written_p;
  write_edge_list_with_pvalues(
      network, [&](float) { return pvalues[next++]; }, written_p);
  EXPECT_EQ(written_p.str(), with_p);
}

TEST(GraphIo, SifFormat) {
  std::stringstream stream;
  write_sif(small_network(), stream);
  const std::string sif = stream.str();
  EXPECT_NE(sif.find("a\tmi\tb"), std::string::npos);
  EXPECT_NE(sif.find("b\tmi\tc"), std::string::npos);
}

TEST(GraphIo, FileRoundtrip) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tingex_graph_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "net.tsv").string();
  write_edge_list_file(small_network(), path);
  const GeneNetwork back = read_edge_list_file(path);
  EXPECT_EQ(back.n_edges(), 3u);
  std::filesystem::remove_all(dir);
}

// ---- metrics -----------------------------------------------------------------------

TEST(Metrics, ConfusionHandComputed) {
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.add_edge(1, 2, 1.0f);
  truth.finalize();
  GeneNetwork predicted({"a", "b", "c", "d"});
  predicted.add_edge(0, 1, 0.9f);  // TP
  predicted.add_edge(2, 3, 0.8f);  // FP
  predicted.finalize();
  const Confusion c = compare_networks(predicted, truth);
  EXPECT_EQ(c.true_positive, 1u);
  EXPECT_EQ(c.false_positive, 1u);
  EXPECT_EQ(c.false_negative, 1u);
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.recall(), 0.5);
  EXPECT_DOUBLE_EQ(c.f1(), 0.5);
}

TEST(Metrics, ConfusionDegenerateCases) {
  GeneNetwork empty({"a", "b"});
  empty.finalize();
  const Confusion c = compare_networks(empty, empty);
  EXPECT_DOUBLE_EQ(c.precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.f1(), 0.0);
}

TEST(Metrics, PerfectRankingGivesAveragePrecisionOne) {
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.add_edge(2, 3, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c", "d"});
  scored.add_edge(0, 1, 0.9f);
  scored.add_edge(2, 3, 0.8f);
  scored.add_edge(0, 2, 0.1f);  // false edge ranked last
  scored.finalize();
  EXPECT_DOUBLE_EQ(average_precision(scored, truth), 1.0);
}

TEST(Metrics, WorstRankingGivesLowAveragePrecision) {
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c", "d"});
  scored.add_edge(0, 2, 0.9f);
  scored.add_edge(1, 3, 0.8f);
  scored.add_edge(0, 1, 0.1f);  // the true edge ranked last
  scored.finalize();
  EXPECT_NEAR(average_precision(scored, truth), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, MissedEdgesLowerAveragePrecision) {
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.add_edge(2, 3, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c", "d"});
  scored.add_edge(0, 1, 0.9f);  // only recovers half
  scored.finalize();
  EXPECT_DOUBLE_EQ(average_precision(scored, truth), 0.5);
}

TEST(Metrics, EmptyTruthGivesZero) {
  GeneNetwork truth({"a", "b"});
  truth.finalize();
  GeneNetwork scored({"a", "b"});
  scored.add_edge(0, 1, 1.0f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(average_precision(scored, truth), 0.0);
}

TEST(Metrics, DegreeHistogram) {
  const auto histogram = degree_histogram(small_network());
  // degrees: 2,2,1,1,0 -> hist[0]=1, hist[1]=2, hist[2]=2
  ASSERT_EQ(histogram.size(), 3u);
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 2u);
  EXPECT_EQ(histogram[2], 2u);
}

TEST(Metrics, MismatchedNodeUniverseRejected) {
  GeneNetwork a({"x", "y"});
  a.finalize();
  GeneNetwork b({"x", "y", "z"});
  b.finalize();
  EXPECT_THROW(compare_networks(a, b), ContractViolation);
  EXPECT_THROW(average_precision(a, b), ContractViolation);
}


TEST(Auroc, PerfectRankingGivesOne) {
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.add_edge(2, 3, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c", "d"});
  scored.add_edge(0, 1, 0.9f);
  scored.add_edge(2, 3, 0.8f);
  scored.add_edge(0, 2, 0.1f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, truth), 1.0);
}

TEST(Auroc, WorstRankingGivesZero) {
  // All 5 non-edges scored above the single true edge, which is itself
  // scored (so no unscored-tie credit).
  GeneNetwork truth({"a", "b", "c", "d"});
  truth.add_edge(0, 1, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c", "d"});
  scored.add_edge(0, 2, 0.9f);
  scored.add_edge(0, 3, 0.8f);
  scored.add_edge(1, 2, 0.7f);
  scored.add_edge(1, 3, 0.6f);
  scored.add_edge(2, 3, 0.5f);
  scored.add_edge(0, 1, 0.1f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, truth), 0.0);
}

TEST(Auroc, TiesShareCredit) {
  // One positive tied with one negative, one negative strictly below:
  // AUC = (0.5 + 1) / 2.
  GeneNetwork truth({"a", "b", "c"});
  truth.add_edge(0, 1, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c"});
  scored.add_edge(0, 1, 0.5f);
  scored.add_edge(0, 2, 0.5f);
  scored.add_edge(1, 2, 0.1f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, truth), 0.75);
}

TEST(Auroc, UnscoredPositivesGetHalfCreditAgainstUnscoredNegatives) {
  // Truth edge absent from scored; one negative scored above, one negative
  // unscored (tied): AUC = (0 + 0.5) / 2.
  GeneNetwork truth({"a", "b", "c"});
  truth.add_edge(0, 1, 1.0f);
  truth.finalize();
  GeneNetwork scored({"a", "b", "c"});
  scored.add_edge(0, 2, 0.9f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, truth), 0.25);
}

TEST(Auroc, DegenerateTruthsGiveHalf) {
  GeneNetwork empty({"a", "b", "c"});
  empty.finalize();
  GeneNetwork scored({"a", "b", "c"});
  scored.add_edge(0, 1, 1.0f);
  scored.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, empty), 0.5);
  // Truth = complete graph: no negatives.
  GeneNetwork full({"a", "b", "c"});
  full.add_edge(0, 1, 1.0f);
  full.add_edge(0, 2, 1.0f);
  full.add_edge(1, 2, 1.0f);
  full.finalize();
  EXPECT_DOUBLE_EQ(auroc(scored, full), 0.5);
}

TEST(Auroc, RandomScoresNearHalf) {
  const std::size_t n = 40;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back(std::to_string(i));
  GeneNetwork truth(names);
  GeneNetwork scored(names);
  std::uint64_t state = 12345;
  const auto next = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (next() < 0.1) truth.add_edge(i, j, 1.0f);
      scored.add_edge(i, j, static_cast<float>(next()));
    }
  }
  truth.finalize();
  scored.finalize();
  EXPECT_NEAR(auroc(scored, truth), 0.5, 0.08);
}


TEST(GraphIo, PValueEdgeListHasFourColumnsAndRoundtrips) {
  const GeneNetwork network = small_network();
  std::stringstream stream;
  write_edge_list_with_pvalues(
      network, [](float mi) { return mi > 0.6f ? 0.001 : 0.2; }, stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("null_p_value"), std::string::npos);
  EXPECT_NE(text.find("0.001"), std::string::npos);
  // The standard reader ignores the extra column.
  std::stringstream reread(text);
  const GeneNetwork back = read_edge_list(reread);
  EXPECT_EQ(back.n_edges(), network.n_edges());
  EXPECT_FLOAT_EQ(back.edge_weight(0, 1), 0.9f);
}

}  // namespace
}  // namespace tinge
