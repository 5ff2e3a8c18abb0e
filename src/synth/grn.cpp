#include "synth/grn.h"

#include <algorithm>
#include <unordered_set>

#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {

GeneNetwork Grn::to_undirected() const {
  std::vector<std::string> names;
  names.reserve(n_genes);
  for (std::size_t g = 0; g < n_genes; ++g)
    names.push_back(std::string("g").append(std::to_string(g)));
  GeneNetwork network(std::move(names));
  for (const GrnEdge& e : edges)
    network.add_edge(e.regulator, e.target, e.strength);
  network.finalize();
  return network;
}

std::vector<std::size_t> Grn::out_degrees() const {
  std::vector<std::size_t> degree(n_genes, 0);
  for (const GrnEdge& e : edges) ++degree[e.regulator];
  return degree;
}

namespace {

float draw_strength(const GrnParams& params, Xoshiro256& rng) {
  return static_cast<float>(params.min_strength +
                            rng.uniform() *
                                (params.max_strength - params.min_strength));
}

int draw_sign(const GrnParams& params, Xoshiro256& rng) {
  return rng.uniform() < params.repression_fraction ? -1 : +1;
}

Grn generate_scale_free(const GrnParams& params, Xoshiro256& rng) {
  Grn grn;
  grn.n_genes = params.n_genes;

  // Preferential attachment over regulator out-degree: the pool holds one
  // entry per gene plus one per regulatory edge it already owns, so hubs
  // keep acquiring targets — the mechanism behind scale-free GRNs.
  std::vector<std::uint32_t> pool;
  pool.reserve(params.n_genes * 3);
  pool.push_back(0);

  std::unordered_set<std::uint32_t> chosen;
  for (std::uint32_t gene = 1; gene < params.n_genes; ++gene) {
    // In-degree ~ Uniform{1, ..., 2*mean-1} (mean = mean_regulators),
    // clipped to the number of available regulators.
    const auto max_in =
        std::max<std::uint64_t>(1, 2 * static_cast<std::uint64_t>(
                                         params.mean_regulators + 0.5) -
                                       1);
    std::size_t in_degree =
        static_cast<std::size_t>(1 + rng.below(max_in));
    in_degree = std::min<std::size_t>(in_degree, gene);

    chosen.clear();
    std::size_t attempts = 0;
    while (chosen.size() < in_degree && attempts < 64 * in_degree) {
      ++attempts;
      const std::uint32_t candidate =
          pool[static_cast<std::size_t>(rng.below(pool.size()))];
      if (candidate < gene) chosen.insert(candidate);
    }
    // Degenerate pools (tiny graphs) fall back to uniform choice.
    while (chosen.size() < in_degree)
      chosen.insert(static_cast<std::uint32_t>(rng.below(gene)));

    for (const std::uint32_t regulator : chosen) {
      grn.edges.push_back(GrnEdge{regulator, gene, draw_strength(params, rng),
                                  draw_sign(params, rng)});
      pool.push_back(regulator);
    }
    pool.push_back(gene);
  }
  return grn;
}

Grn generate_erdos_renyi(const GrnParams& params, Xoshiro256& rng) {
  Grn grn;
  grn.n_genes = params.n_genes;
  // Edge probability chosen so the expected in-degree of non-root genes
  // matches mean_regulators.
  const double p =
      params.n_genes > 1
          ? std::min(1.0, params.mean_regulators /
                              (static_cast<double>(params.n_genes - 1) / 2.0))
          : 0.0;
  for (std::uint32_t target = 1; target < params.n_genes; ++target) {
    for (std::uint32_t regulator = 0; regulator < target; ++regulator) {
      if (rng.uniform() < p) {
        grn.edges.push_back(GrnEdge{regulator, target,
                                    draw_strength(params, rng),
                                    draw_sign(params, rng)});
      }
    }
  }
  return grn;
}

}  // namespace

Grn generate_grn(const GrnParams& params) {
  TINGE_EXPECTS(params.n_genes >= 2);
  TINGE_EXPECTS(params.mean_regulators >= 0.5);
  TINGE_EXPECTS(params.min_strength > 0.0 &&
                params.min_strength <= params.max_strength);
  TINGE_EXPECTS(params.repression_fraction >= 0.0 &&
                params.repression_fraction <= 1.0);
  Xoshiro256 rng(params.seed);
  Grn grn = params.topology == GrnTopology::ScaleFree
                ? generate_scale_free(params, rng)
                : generate_erdos_renyi(params, rng);
  TINGE_ENSURES(std::all_of(grn.edges.begin(), grn.edges.end(),
                            [](const GrnEdge& e) {
                              return e.regulator < e.target;
                            }));
  return grn;
}

}  // namespace tinge
