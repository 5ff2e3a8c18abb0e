#include "synth/expression.h"

#include <cmath>
#include <vector>

#include "stats/rng.h"
#include "util/contracts.h"

namespace tinge {

ExpressionMatrix simulate_expression(const Grn& grn,
                                     const ExpressionParams& params) {
  TINGE_EXPECTS(params.n_samples >= 2);
  TINGE_EXPECTS(params.noise_sd >= 0.0);
  TINGE_EXPECTS(params.measurement_noise_sd >= 0.0);
  TINGE_EXPECTS(params.missing_fraction >= 0.0 && params.missing_fraction < 1.0);
  TINGE_EXPECTS(params.nonmonotone_fraction >= 0.0 &&
                params.nonmonotone_fraction <= 1.0);

  std::vector<std::string> names;
  names.reserve(grn.n_genes);
  for (std::size_t g = 0; g < grn.n_genes; ++g)
    names.push_back(std::string("g").append(std::to_string(g)));
  std::vector<std::string> samples;
  samples.reserve(params.n_samples);
  for (std::size_t s = 0; s < params.n_samples; ++s)
    samples.push_back("array" + std::to_string(s));

  ExpressionMatrix matrix(grn.n_genes, params.n_samples, std::move(names),
                          std::move(samples));

  // Per-gene regulator lists (edges are regulator < target, so evaluating
  // genes in index order is a topological sweep).
  std::vector<std::vector<const GrnEdge*>> regulators(grn.n_genes);
  for (const GrnEdge& e : grn.edges) regulators[e.target].push_back(&e);

  Xoshiro256 rng(params.seed);

  // Per-edge response kind, drawn once so every sample sees the same
  // regulatory functions. tanh(g*u)^2 is centered so a non-monotone edge
  // contributes ~zero linear signal while staying fully informative.
  std::vector<bool> edge_nonmonotone(grn.edges.size(), false);
  if (params.nonmonotone_fraction > 0.0) {
    for (std::size_t e = 0; e < grn.edges.size(); ++e)
      edge_nonmonotone[e] = rng.uniform() < params.nonmonotone_fraction;
  }
  // Flags in the same per-target order as `regulators` (both follow edge
  // order).
  std::vector<std::vector<bool>> gene_edge_nonmonotone(grn.n_genes);
  for (std::size_t e = 0; e < grn.edges.size(); ++e)
    gene_edge_nonmonotone[grn.edges[e].target].push_back(edge_nonmonotone[e]);

  std::vector<double> x(grn.n_genes);
  const auto response = [&](double u) {
    return params.nonlinear ? std::tanh(params.response_gain * u) : u;
  };
  // E[tanh(g*Z)^2] for Z~N(0,1), g=1.5 is ~0.62; exact centering is not
  // required — any constant keeps the edge non-monotone and near-zero-r.
  const double nonmono_center = 0.62;
  const auto response_nonmonotone = [&](double u) {
    const double t = std::tanh(params.response_gain * u);
    return t * t - nonmono_center;
  };

  for (std::size_t s = 0; s < params.n_samples; ++s) {
    for (std::size_t g = 0; g < grn.n_genes; ++g) {
      const auto& regs = regulators[g];
      if (regs.empty()) {
        x[g] = rng.normal();
      } else {
        double drive = 0.0;
        for (std::size_t r = 0; r < regs.size(); ++r) {
          const GrnEdge* e = regs[r];
          const double f = gene_edge_nonmonotone[g][r]
                               ? response_nonmonotone(x[e->regulator])
                               : response(x[e->regulator]);
          drive += static_cast<double>(e->strength) * e->sign * f;
        }
        drive /= std::sqrt(static_cast<double>(regs.size()));
        x[g] = drive + params.noise_sd * rng.normal();
      }
    }
    for (std::size_t g = 0; g < grn.n_genes; ++g) {
      double measured = x[g] + params.measurement_noise_sd * rng.normal();
      if (params.missing_fraction > 0.0 &&
          rng.uniform() < params.missing_fraction) {
        matrix.at(g, s) = std::nanf("");
      } else {
        matrix.at(g, s) = static_cast<float>(measured);
      }
    }
  }
  return matrix;
}

SyntheticDataset make_synthetic_dataset(const GrnParams& grn_params,
                                        const ExpressionParams& expr_params) {
  SyntheticDataset dataset;
  dataset.grn = generate_grn(grn_params);
  dataset.expression = simulate_expression(dataset.grn, expr_params);
  dataset.truth = dataset.grn.to_undirected();
  return dataset;
}

}  // namespace tinge
