// Experiment F4 [reconstructed]: runtime vs number of experiments (m) at
// fixed n. Per-pair work is m * k^2 accumulate FMAs plus an m-independent
// entropy pass, so time grows linearly in m with a constant offset — the
// offset is visible at small m, the slope dominates at microarray-compendium
// sizes.
#include "bench_common.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "util/args.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes in the test matrix", "256");
  args.add("max-samples", "largest sample count in the sweep", "4096");
  args.add("threads", "threads to run with", "0");
  bench::parse_args(args, argc, argv, "F4: runtime vs number of experiments.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto max_m = static_cast<std::size_t>(args.get_int("max-samples"));
  int threads = static_cast<int>(args.get_int("threads"));
  if (threads <= 0) threads = par::detect_host_topology().total_threads();

  bench::print_header(
      "F4: runtime vs number of experiments (fixed n)",
      strprintf("n=%zu genes (%zu pairs), %d threads; expect t ~ a + b*m", n,
                n * (n - 1) / 2, threads));

  par::ThreadPool pool(threads);
  Table table({"m", "seconds", "pairs/s", "ns/cell", "t/t_prev", "m ratio"});
  double previous_seconds = 0.0;
  std::size_t previous_m = 0;
  for (std::size_t m = max_m / 16; m <= max_m; m *= 2) {
    const bench::EngineFixture fixture(n, m);
    const EngineStats stats = bench::timed_pass(
        fixture.engine(), pool, bench::engine_config(threads));
    std::string growth = "-", expected = "-";
    if (previous_m != 0) {
      growth = strprintf("%.2fx", stats.seconds / previous_seconds);
      expected = strprintf("%.2fx", static_cast<double>(m) /
                                        static_cast<double>(previous_m));
    }
    const double cells = static_cast<double>(stats.pairs_computed) *
                         static_cast<double>(m);
    table.add_row({std::to_string(m), strprintf("%.3f", stats.seconds),
                   bench::rate_str(static_cast<double>(stats.pairs_computed) /
                                   stats.seconds),
                   strprintf("%.2f", stats.seconds / cells * 1e9), growth,
                   expected});
    previous_seconds = stats.seconds;
    previous_m = m;
  }
  table.print();
  std::printf(
      "\nPaper shape to compare: t/t_prev approaches the m ratio as m grows\n"
      "(the entropy pass is amortized); ns/cell converges to a constant.\n");
  return 0;
}
