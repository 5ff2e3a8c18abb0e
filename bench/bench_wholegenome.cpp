// Experiment E1 [headline]: the whole-genome run.
//
// The paper constructs a 15,575-gene network of Arabidopsis thaliana from
// 3,137 microarrays in 22 minutes on one Xeon Phi 5110P. This harness runs
// the identical pipeline end-to-end on a synthetic matrix of configurable
// size (default scaled down to finish in ~1 minute on a small container),
// then extrapolates the measured throughput to the full 15,575 x 3,137
// problem and prints the calibrated device-model predictions for the
// paper's machines next to the paper's published figure.
//
// Run the real thing with: bench_wholegenome --genes=15575 --samples=3137
#include <bit>
#include <cstdint>

#include "bench_common.h"
#include "core/network_builder.h"
#include "device/perf_model.h"
#include "obs/trace.h"
#include "util/args.h"

using namespace tinge;

namespace {

/// FNV-1a (64-bit) over each edge's u, v and weight bits, little-endian,
/// in the network's sorted edge order: pins the whole edge list in one
/// number that two builds can compare.
std::uint64_t edge_list_digest(const GeneNetwork& network) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const Edge& e : network.edges()) {
    mix(e.u);
    mix(e.v);
    mix(std::bit_cast<std::uint32_t>(e.weight));
  }
  return hash;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes to run end-to-end", "1500");
  args.add("samples", "experiments per gene", "512");
  args.add("permutations", "null draws q", "2000");
  args.add("alpha", "significance level", "0.0001");
  args.add("threads", "threads (0 = all)", "0");
  bench::parse_args(args, argc, argv,
                    "E1: headline end-to-end run + extrapolation.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));

  bench::print_header(
      "E1: whole-genome network construction (headline experiment)",
      strprintf("end-to-end pipeline on %zu genes x %zu experiments "
                "(paper: 15,575 x 3,137 in 22 min on one Xeon Phi)",
                n, m));

  // Synthetic microarray compendium (generation time excluded, as the
  // paper's load time is excluded from its 22 minutes).
  Stopwatch gen_watch;
  GrnParams grn_params;
  grn_params.n_genes = n;
  grn_params.mean_regulators = 2.0;
  ExpressionParams expr_params;
  expr_params.n_samples = m;
  expr_params.noise_sd = 0.8;
  expr_params.missing_fraction = 0.01;
  SyntheticDataset dataset = make_synthetic_dataset(grn_params, expr_params);
  std::printf("synthetic compendium generated in %s\n\n",
              format_duration(gen_watch.seconds()).c_str());

  TingeConfig config;
  config.permutations = static_cast<std::size_t>(args.get_int("permutations"));
  config.alpha = args.get_double("alpha");
  config.threads = static_cast<int>(args.get_int("threads"));
  NetworkBuilder builder(config);
  builder.set_logger([](std::string_view message) {
    std::printf("  [pipeline] %.*s\n", static_cast<int>(message.size()),
                message.data());
  });
  const BuildResult result = builder.build(std::move(dataset.expression));

  std::printf("\n");
  Table table({"quantity", "value"});
  table.add_row({"genes used", std::to_string(result.genes_used)});
  table.add_row({"pairs computed", std::to_string(result.engine.pairs_computed)});
  table.add_row({"significant edges", std::to_string(result.network.n_edges())});
  table.add_row({"threshold I_alpha (nats)", strprintf("%.5f", result.threshold)});
  table.add_row({"threshold bits",
                 strprintf("0x%016llx", static_cast<unsigned long long>(
                                            std::bit_cast<std::uint64_t>(
                                                result.threshold)))});
  table.add_row({"edge-list digest (FNV-1a)",
                 strprintf("0x%016llx", static_cast<unsigned long long>(
                                            edge_list_digest(result.network)))});
  // Stage timings read from the run's trace tree (the one timing substrate).
  const obs::SpanNode& span_root = result.trace->root();
  const double mi_pass_seconds = obs::span_seconds(span_root, "mi_sweep");
  table.add_row({"total wall time", format_duration(span_root.seconds)});
  table.add_row({"MI-pass time", format_duration(mi_pass_seconds)});
  table.add_row(
      {"MI throughput", bench::rate_str(static_cast<double>(
                            result.engine.pairs_computed) /
                        mi_pass_seconds) + " pairs/s"});
  // The process's peak resident set (VmHWM) and the stage that set it.
  table.add_row({"peak RSS (VmHWM)",
                 strprintf("%.1f MiB", span_root.peak_rss_mb)});
  table.add_row({"peak set in stage", obs::peak_stage(span_root).name});
  table.print();

  // ---- extrapolation to the paper's full problem --------------------------
  const double pair_rate = static_cast<double>(result.engine.pairs_computed) /
                           mi_pass_seconds;
  const double cell_rate = pair_rate * static_cast<double>(m);
  const double full_pairs = 15575.0 * 15574.0 / 2.0;
  const double full_cells = full_pairs * 3137.0;
  const double host_full_seconds = full_cells / cell_rate;

  const MiWorkload per_pair{1, m, 3, 10};
  const double measured_gflops =
      pair_rate * per_pair.flops() / 1e9 /
      std::max(1, config.threads > 0
                      ? config.threads
                      : par::detect_host_topology().total_threads());
  const PerfModel model(host_device(), measured_gflops);
  const MiWorkload full = MiWorkload::all_pairs(15575, 3137, 3, 10);

  std::printf("\nextrapolation to the paper's 15,575 x 3,137 problem:\n");
  Table extra({"platform", "basis", "time"});
  extra.add_row({"this host (all threads)", "measured cell rate",
                 format_duration(host_full_seconds)});
  extra.add_row({"2x Xeon E5-2670 (32 thr)", "calibrated model",
                 format_duration(model.predict_seconds(dual_xeon_e5_2670(),
                                                       full, 32))});
  extra.add_row({"Xeon Phi 5110P (240 thr)", "calibrated model",
                 format_duration(model.predict_seconds(xeon_phi_5110p(),
                                                       full, 240))});
  extra.add_row({"Xeon Phi 5110P (paper)", "published", "22.0 min"});
  extra.print();

  std::printf(
      "\nShape to compare: a single chip handles the whole-genome problem in\n"
      "minutes-not-days; the Phi model lands well under the paper's 22 min\n"
      "because our pipeline needs one MI evaluation per pair (universal\n"
      "null), while the paper's figure includes its per-pair significance\n"
      "machinery and real-hardware efficiency losses. See EXPERIMENTS.md.\n");
  return 0;
}
