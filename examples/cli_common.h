// Shared command-line wiring for tinge_cli and tinge_worker.
//
// One source of truth for pipeline defaults: every option default below is
// rendered from a default-constructed TingeConfig / FilterCriteria, so the
// CLI help, the worker and the library can never disagree about what "the
// default alpha" is.
#pragma once

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/null_distribution.h"
#include "data/binary_io.h"
#include "data/series_matrix.h"
#include "data/tsv_io.h"
#include "graph/graph_io.h"
#include "synth/expression.h"
#include "util/args.h"
#include "util/str.h"

namespace tinge::cli {

inline void add_dataset_options(ArgParser& args) {
  args.add("in", "input expression TSV (gene rows, sample columns)");
  args.add("binary-in", "input expression matrix in TNGX binary format");
  args.add("series-matrix", "input NCBI GEO Series Matrix file");
  args.add("synthetic", "generate a synthetic dataset of N genes instead",
           "0");
}

inline void add_pipeline_options(ArgParser& args) {
  const TingeConfig defaults;
  args.add("estimator",
           "pair statistic: bspline|histogram|ksg|pearson|spearman|phi",
           std::string(estimator_name(defaults.estimator)));
  args.add("consensus",
           "bootstrap resamples B for consensus mode (0 = off)",
           strprintf("%zu", defaults.consensus_resamples));
  args.add("consensus-estimators",
           "comma-separated estimators voting per resample (empty = "
           "--estimator only)",
           defaults.consensus_estimators);
  args.add("consensus-min",
           "keep consensus edges with frequency >= this",
           strprintf("%g", defaults.consensus_min_frequency));
  args.add("bins", "histogram/B-spline/phi bins",
           strprintf("%d", defaults.bins));
  args.add("order", "B-spline order", strprintf("%d", defaults.spline_order));
  args.add("alpha", "permutation-test significance level",
           strprintf("%g", defaults.alpha));
  args.add("permutations", "null-distribution draws",
           strprintf("%zu", defaults.permutations));
  args.add("threads", "worker threads (0 = all)",
           strprintf("%d", defaults.threads));
  args.add("tile", "tile size (genes per tile side)",
           strprintf("%zu", defaults.tile_size));
  args.add("team", "threads per tile-claiming team (must divide threads)",
           strprintf("%d", defaults.team_size));
  args.add("kernel",
           std::string("MI kernel: ") + kernel_names() +
               " (same bits; scalar is the reference)",
           std::string(kernel_name(defaults.kernel)));
  args.add("stage-ranks",
           "stage rank rows as uint16 when samples <= 65536: on|off",
           defaults.stage_ranks ? "on" : "off");
  args.add("seed", "RNG seed for the permutation null",
           strprintf("%llu",
                     static_cast<unsigned long long>(defaults.seed)));
  args.add("min-variance", "drop genes with variance below this",
           strprintf("%g", defaults.filter.min_variance));
  args.add("max-missing", "drop genes with more than this missing fraction",
           strprintf("%g", defaults.filter.max_missing_fraction));
  args.add("dpi-tolerance", "DPI tolerance (with --dpi)",
           strprintf("%g", defaults.dpi_tolerance));
  args.add("checkpoint", "journal completed tiles here; resumes if present");
  args.add_flag("dpi", "apply DPI indirect-edge filtering");
}

/// Loads the dataset selected by the dataset options. Throws
/// std::invalid_argument if none was selected.
inline ExpressionMatrix load_dataset(const ArgParser& args, bool quiet) {
  if (args.has("in")) {
    if (!quiet) std::printf("reading %s...\n", args.get("in").c_str());
    return read_expression_tsv_file(args.get("in"));
  }
  if (args.has("binary-in"))
    return read_expression_binary_file(args.get("binary-in"));
  if (args.has("series-matrix")) {
    SeriesMatrix series = read_series_matrix_file(args.get("series-matrix"));
    if (!quiet) {
      const auto title = series.metadata.find("Series_title");
      std::printf("series: %s (%zu probes x %zu samples)\n",
                  title != series.metadata.end() ? title->second.c_str()
                                                 : "untitled",
                  series.expression.n_genes(), series.expression.n_samples());
    }
    return std::move(series.expression);
  }
  if (args.get_int("synthetic") > 0) {
    GrnParams grn;
    grn.n_genes = static_cast<std::size_t>(args.get_int("synthetic"));
    ExpressionParams arrays;
    arrays.n_samples = 400;
    ExpressionMatrix expression =
        simulate_expression(generate_grn(grn), arrays);
    if (!quiet)
      std::printf("generated synthetic dataset: %zu genes x %zu samples\n",
                  expression.n_genes(), expression.n_samples());
    return expression;
  }
  throw std::invalid_argument(
      "provide --in=<tsv>, --binary-in=<tngx>, --series-matrix=<txt> or "
      "--synthetic=<genes> (see --help)");
}

/// Builds a TingeConfig from the pipeline options. Throws
/// std::invalid_argument on an unknown kernel name.
inline TingeConfig config_from_args(const ArgParser& args) {
  TingeConfig config;
  config.estimator = parse_estimator(args.get("estimator"));
  config.consensus_resamples =
      static_cast<std::size_t>(args.get_int("consensus"));
  config.consensus_estimators = args.get("consensus-estimators");
  config.consensus_min_frequency = args.get_double("consensus-min");
  config.bins = static_cast<int>(args.get_int("bins"));
  config.spline_order = static_cast<int>(args.get_int("order"));
  config.alpha = args.get_double("alpha");
  config.permutations = static_cast<std::size_t>(args.get_int("permutations"));
  config.threads = static_cast<int>(args.get_int("threads"));
  config.tile_size = static_cast<std::size_t>(args.get_int("tile"));
  config.team_size = static_cast<int>(args.get_int("team"));
  config.kernel = parse_kernel(args.get("kernel"));
  const auto parse_switch = [&](const char* name) {
    const std::string value = args.get(name);
    if (value == "on") return true;
    if (value == "off") return false;
    throw std::invalid_argument(
        strprintf("--%s=%s: expected on|off", name, value.c_str()));
  };
  config.stage_ranks = parse_switch("stage-ranks");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.apply_dpi = args.get_flag("dpi");
  config.dpi_tolerance = args.get_double("dpi-tolerance");
  if (args.has("checkpoint")) config.checkpoint_path = args.get("checkpoint");
  config.filter.min_variance = args.get_double("min-variance");
  config.filter.max_missing_fraction = args.get_double("max-missing");
  return config;
}

/// Writes the edge list (optionally with null p-values) and the optional
/// SIF file. Requires the "out"/"sif"/"pvalues" options to be registered.
inline void write_network_outputs(
    const ArgParser& args, const GeneNetwork& network,
    const std::shared_ptr<const EmpiricalDistribution>& null) {
  if (args.get_flag("pvalues") && null != nullptr) {
    write_edge_list_with_pvalues_file(
        network,
        [null](float mi) { return null->p_value(static_cast<double>(mi)); },
        args.get("out"));
  } else {
    write_edge_list_file(network, args.get("out"));
  }
  if (args.has("sif")) write_sif_file(network, args.get("sif"));
}

/// argv minus the program name and minus `drop_options` (given without the
/// leading "--"; both the "--name=value" and "--name value" spellings are
/// removed). Used to hand a tinge_cli invocation through to tinge_worker.
inline std::vector<std::string> forward_args(
    int argc, const char* const* argv,
    const std::vector<std::string>& drop_options) {
  std::vector<std::string> kept;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool dropped = false;
    for (const std::string& name : drop_options) {
      const std::string prefix = "--" + name;
      if (arg == prefix) {
        ++i;  // separate-value spelling: drop the value too
        dropped = true;
        break;
      }
      if (arg.rfind(prefix + "=", 0) == 0) {
        dropped = true;
        break;
      }
    }
    if (!dropped) kept.push_back(arg);
  }
  return kept;
}

}  // namespace tinge::cli
