// Property-style roundtrips: random matrices of many shapes and missing
// fractions must survive TSV and binary serialization exactly (binary) or
// to printed precision (TSV), and networks must survive edge-list I/O.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <tuple>
#include <unistd.h>

#include "data/binary_io.h"
#include "data/tsv_io.h"
#include "graph/graph_io.h"
#include "stats/rng.h"

namespace tinge {
namespace {

ExpressionMatrix random_matrix(std::size_t genes, std::size_t samples,
                               double missing, std::uint64_t seed) {
  ExpressionMatrix matrix(genes, samples);
  Xoshiro256 rng(seed);
  for (std::size_t g = 0; g < genes; ++g) {
    for (std::size_t s = 0; s < samples; ++s) {
      if (rng.uniform() < missing) {
        matrix.at(g, s) = std::nanf("");
      } else {
        // Mix of magnitudes, signs, and exact values.
        const double magnitude = std::pow(10.0, rng.uniform() * 8.0 - 4.0);
        matrix.at(g, s) = static_cast<float>((rng.uniform() - 0.5) * magnitude);
      }
    }
  }
  return matrix;
}

using Shape = std::tuple<int, int, double>;

class MatrixRoundtrip : public ::testing::TestWithParam<Shape> {};

TEST_P(MatrixRoundtrip, BinaryIsExact) {
  const auto [genes, samples, missing] = GetParam();
  const ExpressionMatrix matrix = random_matrix(
      static_cast<std::size_t>(genes), static_cast<std::size_t>(samples),
      missing, 42 + static_cast<std::uint64_t>(genes));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("tingex_rt_" + std::to_string(::getpid()) + "_" +
        std::to_string(genes) + ".tngx"))
          .string();
  write_expression_binary_file(matrix, path);
  const ExpressionMatrix back = read_expression_binary_file(path);
  std::filesystem::remove(path);

  ASSERT_EQ(back.n_genes(), matrix.n_genes());
  ASSERT_EQ(back.n_samples(), matrix.n_samples());
  EXPECT_EQ(back.gene_names(), matrix.gene_names());
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    for (std::size_t s = 0; s < matrix.n_samples(); ++s) {
      const float a = matrix.at(g, s);
      const float b = back.at(g, s);
      if (std::isnan(a)) {
        EXPECT_TRUE(std::isnan(b));
      } else {
        EXPECT_EQ(a, b) << g << "," << s;  // bit-exact
      }
    }
  }
}

TEST_P(MatrixRoundtrip, TsvIsAccurateToPrintedPrecision) {
  const auto [genes, samples, missing] = GetParam();
  const ExpressionMatrix matrix = random_matrix(
      static_cast<std::size_t>(genes), static_cast<std::size_t>(samples),
      missing, 137 + static_cast<std::uint64_t>(samples));
  std::stringstream stream;
  write_expression_tsv(matrix, stream);
  const ExpressionMatrix back = read_expression_tsv(stream);
  ASSERT_EQ(back.n_genes(), matrix.n_genes());
  ASSERT_EQ(back.n_samples(), matrix.n_samples());
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    for (std::size_t s = 0; s < matrix.n_samples(); ++s) {
      const float a = matrix.at(g, s);
      const float b = back.at(g, s);
      if (std::isnan(a)) {
        EXPECT_TRUE(std::isnan(b));
      } else {
        // %.9g round-trips float exactly.
        EXPECT_EQ(b, a) << g << "," << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixRoundtrip,
    ::testing::Values(Shape{1, 1, 0.0}, Shape{1, 50, 0.3}, Shape{50, 1, 0.0},
                      Shape{7, 13, 0.1}, Shape{33, 64, 0.0},
                      Shape{64, 33, 0.5}, Shape{10, 100, 0.9}),
    [](const auto& param_info) {
      return std::string("g")
          .append(std::to_string(std::get<0>(param_info.param)))
          .append("_s")
          .append(std::to_string(std::get<1>(param_info.param)))
          .append("_m")
          .append(std::to_string(
              static_cast<int>(std::get<2>(param_info.param) * 100)));
    });

class NetworkRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(NetworkRoundtrip, EdgeListPreservesRandomNetworks) {
  const auto n = static_cast<std::size_t>(GetParam());
  Xoshiro256 rng(n);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i)
    names.push_back("gene_" + std::to_string(i));
  GeneNetwork network(std::move(names));
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j)
      if (rng.uniform() < 0.2)
        network.add_edge(i, j, rng.uniformf() + 0.001f);
  network.finalize();

  std::stringstream stream;
  write_edge_list(network, stream);
  const GeneNetwork back = read_edge_list(stream);
  ASSERT_EQ(back.n_nodes(), network.n_nodes());
  ASSERT_EQ(back.n_edges(), network.n_edges());
  for (const Edge& e : network.edges())
    EXPECT_EQ(back.edge_weight(e.u, e.v), e.weight);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkRoundtrip,
                         ::testing::Values(2, 3, 10, 40));

}  // namespace
}  // namespace tinge
