// Experiment T3 [reconstructed]: the cost of significance testing —
// TINGe's universal permutation null vs the naive per-pair permutation test.
//
// The universal null costs q MI evaluations TOTAL; the naive scheme costs
// q MI evaluations PER PAIR. This table shows the measured cost of both at
// small n and the extrapolated cost at whole-genome scale, plus the
// statistical agreement between the two thresholds.
#include "bench_common.h"
#include "core/null_distribution.h"
#include "core/permutation_test.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "util/args.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes for the measured comparison", "48");
  args.add("samples", "experiments per gene", "512");
  args.add("permutations", "q draws per test", "500");
  args.add("alpha", "significance level", "0.01");
  bench::parse_args(args, argc, argv,
                    "T3: universal null vs per-pair permutation test.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));
  const auto q = static_cast<std::size_t>(args.get_int("permutations"));
  const double alpha = args.get_double("alpha");

  bench::print_header(
      "T3: universal null vs per-pair permutation testing",
      strprintf("%zu genes x %zu samples, q=%zu, alpha=%g", n, m, q, alpha));

  const bench::RandomRanks data(n, m);
  const BsplineMi estimator(10, 3, m);
  par::ThreadPool pool(par::detect_host_topology().total_threads());

  // Universal null: q draws once.
  Stopwatch universal_watch;
  const EmpiricalDistribution null =
      build_null_distribution(estimator, q, 42, pool, 0);
  const double universal_seconds = universal_watch.seconds();
  const double threshold = threshold_for_alpha(null, alpha);

  // Naive per-pair testing over all pairs.
  Stopwatch naive_watch;
  JointHistogram scratch = estimator.make_scratch();
  std::size_t pairs = 0, naive_significant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const auto result = pair_permutation_test(
          estimator, data.ranked().ranks(i), data.ranked().ranks(j), q,
          1000 + pairs, scratch);
      if (result.p_value <= alpha) ++naive_significant;
      ++pairs;
    }
  }
  const double naive_seconds = naive_watch.seconds();

  // Universal-threshold decisions on the same pairs.
  std::size_t universal_significant = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (estimator.mi(data.ranked().ranks(i), data.ranked().ranks(j),
                       scratch) >= threshold)
        ++universal_significant;

  Table table({"scheme", "MI evals", "seconds", "per pair", "flagged pairs"});
  table.add_row({"universal null (TINGe)", std::to_string(q),
                 strprintf("%.3f", universal_seconds),
                 strprintf("%.2f us", 0.0), std::to_string(universal_significant)});
  table.add_row({"per-pair permutation", std::to_string((q + 1) * pairs),
                 strprintf("%.3f", naive_seconds),
                 strprintf("%.0f us", naive_seconds / static_cast<double>(pairs) * 1e6),
                 std::to_string(naive_significant)});
  table.print();

  std::printf("\nthreshold I_alpha = %.5f nats; measured cost ratio %.0fx\n",
              threshold, naive_seconds / universal_seconds);

  // Extrapolation to the headline scale.
  const double genome_pairs = 15575.0 * 15574.0 / 2.0;
  const double per_pair_test = naive_seconds / static_cast<double>(pairs);
  std::printf(
      "extrapolated to 15,575 genes: universal null stays %s; per-pair\n"
      "testing would add %s of pure permutation work on one host thread.\n",
      format_duration(universal_seconds).c_str(),
      format_duration(per_pair_test * genome_pairs).c_str());

  // Null-distribution summary (the statistical content of the stage).
  Table null_table({"quantile", "MI (nats)"});
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    null_table.add_row({strprintf("%.3f", p),
                        strprintf("%.5f", null.quantile(p))});
  }
  null_table.add_row({"max", strprintf("%.5f", null.max())});
  std::printf("\nuniversal null distribution (q=%zu draws):\n", q);
  null_table.print();

  // Threshold vs m: the plug-in null scale shrinks like 1/m, so larger
  // compendia admit weaker interactions at the same alpha — the statistical
  // argument for assembling thousands of arrays in the first place.
  std::printf("\nthreshold I_alpha(%.2g) vs number of experiments m:\n", alpha);
  Table m_table({"m", "I_alpha (nats)", "m * I_alpha"});
  for (const std::size_t m_sweep : {128u, 256u, 512u, 1024u, 2048u}) {
    const BsplineMi sweep_estimator(10, 3, m_sweep);
    const EmpiricalDistribution sweep_null =
        build_null_distribution(sweep_estimator, q, 42, pool, 0);
    const double sweep_threshold = threshold_for_alpha(sweep_null, alpha);
    m_table.add_row({std::to_string(m_sweep),
                     strprintf("%.5f", sweep_threshold),
                     strprintf("%.2f", sweep_threshold *
                                           static_cast<double>(m_sweep))});
  }
  m_table.print();
  std::printf("(m * I_alpha roughly constant: the 1/m null scaling)\n");

  std::printf(
      "\nPaper shape to compare: both schemes flag essentially the same\n"
      "pairs, but per-pair testing multiplies the whole computation by q —\n"
      "the universal null is what makes whole-genome significance testing\n"
      "free.\n");
  return 0;
}
