// Experiment T1 [reconstructed]: per-stage time breakdown of one full
// network construction — the table that shows the O(n^2) MI pass dominating
// and preprocessing/null-building amortized to noise, which is what makes
// the paper's kernel-level optimization effort worthwhile.
#include "bench_common.h"
#include "core/network_builder.h"
#include "obs/trace.h"
#include "util/args.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes to simulate", "400");
  args.add("samples", "experiments per gene", "512");
  args.add("permutations", "null-distribution draws", "2000");
  args.add("alpha", "significance level", "0.001");
  args.add_flag("dpi", "apply the DPI post-processing stage");
  bench::parse_args(args, argc, argv, "T1: per-stage time breakdown.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));

  bench::print_header(
      "T1: pipeline stage breakdown",
      strprintf("synthetic GRN dataset, %zu genes x %zu samples", n, m));

  const SyntheticDataset dataset = bench::accuracy_dataset(n, m);

  TingeConfig config;
  config.permutations = static_cast<std::size_t>(args.get_int("permutations"));
  config.alpha = args.get_double("alpha");
  config.apply_dpi = args.get_flag("dpi");
  NetworkBuilder builder(config);
  const BuildResult result = builder.build(dataset.expression);

  // The rows come straight from the run's trace tree: one row per stage
  // span, sub-spans (preprocess children) indented under their parent.
  const obs::SpanNode& root = result.trace->root();
  Table table({"stage", "seconds", "share"});
  const auto share = [&](double t) {
    return strprintf("%.1f%%", 100.0 * t / root.seconds);
  };
  for (const auto& stage : root.children) {
    table.add_row({stage->name, strprintf("%.3f", stage->seconds),
                   share(stage->seconds)});
    for (const auto& child : stage->children) {
      table.add_row({"  " + child->name, strprintf("%.3f", child->seconds),
                     share(child->seconds)});
    }
  }
  table.add_row({"total", strprintf("%.3f", root.seconds), "100%"});
  table.print();

  std::printf("\nthreshold I_alpha = %.5f nats (H_marginal = %.4f)\n",
              result.threshold, result.marginal_entropy);
  std::printf("edges kept: %zu of %zu pairs (%.3f%%)\n",
              result.network.n_edges(), result.engine.pairs_computed,
              100.0 * static_cast<double>(result.network.n_edges()) /
                  static_cast<double>(result.engine.pairs_computed));
  std::printf(
      "\nPaper shape to compare: the MI pass owns the overwhelming share at\n"
      "whole-genome n; the null is O(q*m), independent of n, so its share\n"
      "vanishes as n grows.\n");
  return 0;
}
