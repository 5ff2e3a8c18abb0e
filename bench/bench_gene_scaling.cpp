// Experiment F3 [reconstructed]: runtime vs number of genes at fixed m.
// The pair count is n(n-1)/2, so total time must scale quadratically in n —
// the figure every whole-genome paper shows to justify why n ~ 15,575 needs
// this much machinery.
#include "bench_common.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "util/args.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  args.add("samples", "experiments per gene", "384");
  args.add("max-genes", "largest gene count in the sweep", "1024");
  args.add("threads", "threads to run with", "0");
  bench::parse_args(args, argc, argv, "F3: runtime vs number of genes.");

  const auto m = static_cast<std::size_t>(args.get_int("samples"));
  const auto max_genes = static_cast<std::size_t>(args.get_int("max-genes"));
  int threads = static_cast<int>(args.get_int("threads"));
  if (threads <= 0) threads = par::detect_host_topology().total_threads();

  bench::print_header(
      "F3: runtime vs number of genes (fixed m)",
      strprintf("m=%zu samples, %d threads; expect t ~ n^2", m, threads));

  par::ThreadPool pool(threads);

  Table table({"genes", "pairs", "seconds", "pairs/s", "t/t_prev", "n^2 ratio"});
  double previous_seconds = 0.0;
  std::size_t previous_n = 0;
  for (std::size_t n = max_genes / 8; n <= max_genes; n *= 2) {
    const bench::EngineFixture fixture(n, m);
    const EngineStats stats = bench::timed_pass(
        fixture.engine(), pool, bench::engine_config(threads));
    std::string growth = "-", expected = "-";
    if (previous_n != 0) {
      growth = strprintf("%.2fx", stats.seconds / previous_seconds);
      const double n_ratio = static_cast<double>(n * (n - 1)) /
                             static_cast<double>(previous_n * (previous_n - 1));
      expected = strprintf("%.2fx", n_ratio);
    }
    table.add_row({std::to_string(n), std::to_string(stats.pairs_computed),
                   strprintf("%.3f", stats.seconds),
                   bench::rate_str(static_cast<double>(stats.pairs_computed) /
                                   stats.seconds),
                   growth, expected});
    previous_seconds = stats.seconds;
    previous_n = n;
  }
  table.print();
  std::printf(
      "\nPaper shape to compare: doubling n multiplies runtime by ~4x\n"
      "(t/t_prev column tracks the n^2 ratio column).\n");
  return 0;
}
