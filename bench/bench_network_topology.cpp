// Experiment F6 [reconstructed]: characterization of the inferred network —
// the "what did we actually build" figure (the paper reports an Arabidopsis
// whole-genome network; papers in this lineage summarize it by degree
// distribution, hubs and clustering).
//
// Two panels:
//   1. the network inferred from a scale-free synthetic compendium vs the
//      one inferred from an Erdős–Rényi control (same size/noise): the
//      pipeline must transport the topology class from data to network;
//   2. degree distribution of the scale-free-derived network (log-binned),
//      with the power-law tail exponent.
#include "bench_common.h"
#include "core/network_builder.h"
#include "graph/analysis.h"
#include "graph/metrics.h"
#include "util/args.h"

using namespace tinge;

namespace {

BuildResult infer(const SyntheticDataset& dataset) {
  TingeConfig config;
  config.alpha = 1e-3;
  config.permutations = 2000;
  return NetworkBuilder(config).build(dataset.expression);
}

SyntheticDataset dataset_with_topology(GrnTopology topology, std::size_t genes,
                                       std::size_t samples) {
  GrnParams grn;
  grn.n_genes = genes;
  grn.mean_regulators = 2.0;
  grn.topology = topology;
  grn.seed = 31;
  ExpressionParams arrays;
  arrays.n_samples = samples;
  arrays.noise_sd = 0.9;
  arrays.seed = 32;
  return make_synthetic_dataset(grn, arrays);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes in the compendium", "800");
  args.add("samples", "experiments per gene", "384");
  bench::parse_args(args, argc, argv, "F6: inferred-network characterization.");
  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));

  bench::print_header(
      "F6: inferred-network characterization",
      strprintf("pipeline on %zu genes x %zu samples; scale-free vs "
                "Erdős–Rényi ground truth",
                n, m));

  Table compare({"quantity", "scale-free truth", "ER truth"});
  NetworkSummary summaries[2];
  GeneNetwork networks[2];
  double truth_gamma[2];
  const GrnTopology topologies[2] = {GrnTopology::ScaleFree,
                                     GrnTopology::ErdosRenyi};
  for (int t = 0; t < 2; ++t) {
    const SyntheticDataset dataset = dataset_with_topology(topologies[t], n, m);
    truth_gamma[t] = powerlaw_exponent_mle(dataset.truth, 3);
    BuildResult result = infer(dataset);
    networks[t] = std::move(result.network);
    summaries[t] = summarize_network(networks[t]);
  }
  const auto row = [&](const char* name, auto value_of) {
    compare.add_row({name, value_of(0), value_of(1)});
  };
  row("edges", [&](int t) { return std::to_string(summaries[t].edges); });
  row("mean degree",
      [&](int t) { return strprintf("%.2f", summaries[t].mean_degree); });
  row("max degree",
      [&](int t) { return std::to_string(summaries[t].max_degree); });
  row("isolated genes",
      [&](int t) { return std::to_string(summaries[t].isolated_nodes); });
  row("components",
      [&](int t) { return std::to_string(summaries[t].components); });
  row("clustering coeff",
      [&](int t) { return strprintf("%.4f", summaries[t].clustering); });
  row("gamma (inferred net)", [&](int t) {
    return summaries[t].powerlaw_gamma > 0
               ? strprintf("%.2f", summaries[t].powerlaw_gamma)
               : std::string("n/a");
  });
  row("gamma (truth GRN)",
      [&](int t) { return strprintf("%.2f", truth_gamma[t]); });
  compare.print();

  // Panel 2: log-binned degree distribution of the scale-free network.
  std::printf("\ndegree distribution (scale-free truth), log-binned:\n");
  const auto histogram = degree_histogram(networks[0]);
  Table dist({"degree range", "genes", "fraction"});
  std::size_t lo = 1;
  while (lo < histogram.size()) {
    const std::size_t hi = std::max(lo * 2, lo + 1);
    std::size_t count = 0;
    for (std::size_t d = lo; d < hi && d < histogram.size(); ++d)
      count += histogram[d];
    if (count > 0) {
      dist.add_row({strprintf("%zu-%zu", lo, hi - 1), std::to_string(count),
                    strprintf("%.4f", static_cast<double>(count) /
                                          static_cast<double>(n))});
    }
    lo = hi;
  }
  dist.print();

  std::printf("\ntop hubs:");
  for (const HubInfo& hub : top_hubs(networks[0], 8))
    std::printf(" %s(%zu)", hub.name.c_str(), hub.degree);
  std::printf(
      "\n\nShape to compare: the scale-free compendium yields a hub-heavy,\n"
      "heavy-tailed network (a few very-high-degree regulators, many\n"
      "low-degree genes) while the ER control does not — the property such\n"
      "papers report for real regulatory networks.\n");
  return 0;
}
