// Experiment A1 (ours): estimator-quality ablation the paper presupposes —
// why B-spline MI, rather than hard-binned MI or correlation, is worth
// vectorizing in the first place.
//
// Panel 1: accuracy against the analytic MI of bivariate Gaussians.
// Panel 2: network recovery (AUPR) on a synthetic GRN with a nonlinear
//          (tanh) regulatory response, where correlation underperforms.
// Panel 3: single-thread cost of each estimator.
#include <cmath>
#include <memory>

#include "bench_common.h"
#include "core/mi_engine.h"
#include "core/pair_statistic.h"
#include "graph/metrics.h"
#include "mi/bspline_mi.h"
#include "mi/correlation.h"
#include "mi/histogram_mi.h"
#include "mi/ksg_mi.h"
#include "mi/phi_mixing.h"
#include "parallel/thread_pool.h"
#include "stats/gaussian.h"
#include "util/args.h"

using namespace tinge;

namespace {

void gaussian_pair(std::size_t m, double rho, std::uint64_t seed,
                   std::vector<float>& x, std::vector<float>& y) {
  Xoshiro256 rng(seed);
  x.resize(m);
  y.resize(m);
  const double noise = std::sqrt(1.0 - rho * rho);
  for (std::size_t j = 0; j < m; ++j) {
    const double u = rng.normal();
    x[j] = static_cast<float>(u);
    y[j] = static_cast<float>(rho * u + noise * rng.normal());
  }
}

void accuracy_panel(std::size_t m) {
  std::printf("Panel 1: estimated vs analytic MI on bivariate Gaussians "
              "(m=%zu, mean of 5 trials)\n", m);
  Table table({"rho", "true MI", "bspline b10k3", "histogram b10",
               "hist+MM b10", "KSG k=4", "|r| (Pearson)"});
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();
  std::vector<float> x, y;
  for (const double rho : {0.0, 0.3, 0.6, 0.9}) {
    double bspline = 0, hist = 0, mm = 0, ksg = 0, pear = 0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      gaussian_pair(m, rho, 100 + static_cast<std::uint64_t>(t), x, y);
      const auto rx = rank_order(x);
      const auto ry = rank_order(y);
      bspline += estimator.mi(rx, ry, scratch);
      hist += histogram_mi_from_ranks(rx, ry, 10);
      mm += histogram_mi_miller_madow(rx, ry, 10);
      ksg += ksg_mi(x, y, 4);
      pear += std::fabs(pearson_correlation(x, y));
    }
    table.add_row({strprintf("%.1f", rho),
                   strprintf("%.4f", gaussian_mi_nats(rho)),
                   strprintf("%.4f", bspline / trials),
                   strprintf("%.4f", hist / trials),
                   strprintf("%.4f", mm / trials),
                   strprintf("%.4f", ksg / trials),
                   strprintf("%.3f", pear / trials)});
  }
  table.print();
  std::printf("\n");
}

void bins_sweep_panel(std::size_t m) {
  std::printf("Panel 1b: bins sweep — bias at independence vs fidelity at "
              "rho=0.6 (m=%zu, k=3, mean of 5 trials; suggest_bins=%d)\n",
              m, suggest_bins(m));
  Table table({"bins", "MI at rho=0 (bias)", "MI at rho=0.6 (true 0.2231)"});
  std::vector<float> x, y;
  for (const int bins : {5, 10, 15, 20, 27}) {
    const BsplineMi estimator(bins, 3, m);
    JointHistogram scratch = estimator.make_scratch();
    double at_zero = 0, at_six = 0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      gaussian_pair(m, 0.0, 500 + static_cast<std::uint64_t>(t), x, y);
      at_zero += estimator.mi(rank_order(x), rank_order(y), scratch);
      gaussian_pair(m, 0.6, 600 + static_cast<std::uint64_t>(t), x, y);
      at_six += estimator.mi(rank_order(x), rank_order(y), scratch);
    }
    table.add_row({std::to_string(bins), strprintf("%.4f", at_zero / trials),
                   strprintf("%.4f", at_six / trials)});
  }
  table.print();
  std::printf(
      "Small b underestimates real dependence; large b inflates the\n"
      "independence bias ~ (b-1)^2/(2m). The suggest_bins rule sits between.\n\n");
}

void recovery_panel(std::size_t genes, std::size_t samples) {
  std::printf("Panel 2: network recovery on a nonlinear synthetic GRN "
              "(%zu genes x %zu samples)\n", genes, samples);
  const SyntheticDataset dataset = bench::accuracy_dataset(genes, samples);
  const double chance = static_cast<double>(dataset.truth.n_edges()) /
                        static_cast<double>(genes * (genes - 1) / 2);

  // Every estimator scores through the same lattice the pipeline exposes
  // as --estimator=...: make_pair_statistic + the engine's dense sweep.
  const RankedMatrix ranked(dataset.expression);
  par::ThreadPool pool(par::detect_host_topology().total_threads());
  Table table({"estimator", "AUPR", "vs chance", "AUROC"});
  const auto add = [&](const char* name, const GeneNetwork& network) {
    const double aupr = average_precision(network, dataset.truth);
    table.add_row({name, strprintf("%.4f", aupr),
                   strprintf("%.1fx", aupr / chance),
                   strprintf("%.3f", auroc(network, dataset.truth))});
  };
  for (const EstimatorKind kind :
       {EstimatorKind::Bspline, EstimatorKind::Histogram, EstimatorKind::Ksg,
        EstimatorKind::Pearson, EstimatorKind::Spearman, EstimatorKind::Phi}) {
    TingeConfig config;
    config.estimator = kind;
    const std::unique_ptr<PairStatistic> statistic =
        make_pair_statistic(config, ranked, &dataset.expression);
    const MiEngine engine(*statistic, ranked);
    const auto dense = engine.compute_dense(config, pool);
    GeneNetwork network(dataset.expression.gene_names());
    for (std::size_t i = 0; i < genes; ++i)
      for (std::size_t j = i + 1; j < genes; ++j)
        network.add_edge(static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         dense[i * genes + j]);
    network.finalize();
    add(estimator_name(kind), network);
  }
  table.print();
  std::printf("chance AUPR = %.4f\n\n", chance);
}

void cost_panel(std::size_t m) {
  std::printf("Panel 3: single-thread cost per pair (m=%zu)\n", m);
  const bench::RandomRanks data(32, m);
  const BsplineMi estimator(10, 3, m);
  JointHistogram scratch = estimator.make_scratch();

  // Raw value profiles for the correlation estimators.
  std::vector<std::vector<float>> values(32, std::vector<float>(m));
  Xoshiro256 rng(5);
  for (auto& row : values)
    for (auto& v : row) v = static_cast<float>(rng.normal());

  Table table({"estimator", "us/pair"});
  const auto time_it = [&](const char* name, auto&& body) {
    Stopwatch watch;
    std::size_t pairs = 0;
    double sink = 0.0;
    while (watch.seconds() < 0.3) {
      for (std::size_t i = 0; i + 1 < 32; ++i) {
        sink += body(i, i + 1);
        ++pairs;
      }
    }
    if (sink == 1234.5) std::printf("?");
    table.add_row({name, strprintf("%.2f",
                                   watch.seconds() /
                                       static_cast<double>(pairs) * 1e6)});
  };
  time_it("B-spline MI (auto kernel)", [&](std::size_t i, std::size_t j) {
    return estimator.mi(data.ranked().ranks(i), data.ranked().ranks(j), scratch);
  });
  time_it("histogram MI", [&](std::size_t i, std::size_t j) {
    return histogram_mi_from_ranks(data.ranked().ranks(i),
                                   data.ranked().ranks(j), 10);
  });
  time_it("Pearson", [&](std::size_t i, std::size_t j) {
    return pearson_correlation(values[i], values[j]);
  });
  time_it("Spearman", [&](std::size_t i, std::size_t j) {
    return spearman_correlation(values[i], values[j]);
  });
  time_it("phi-mixing (b=10)", [&](std::size_t i, std::size_t j) {
    return phi_mixing_symmetric(data.ranked().ranks(i),
                                data.ranked().ranks(j), 10);
  });
  time_it("KSG k=4 (O(m^2))", [&](std::size_t i, std::size_t j) {
    return ksg_mi(values[i], values[j], 4);
  });
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes for the recovery panel", "80");
  args.add("samples", "experiments per gene", "400");
  bench::parse_args(args, argc, argv, "A1: estimator-quality ablation.");

  bench::print_header(
      "A1: estimator-quality ablation",
      "B-spline MI vs histogram MI vs correlation baselines");

  accuracy_panel(2000);
  bins_sweep_panel(2000);
  recovery_panel(static_cast<std::size_t>(args.get_int("genes")),
                 static_cast<std::size_t>(args.get_int("samples")));
  cost_panel(1024);

  std::printf(
      "\nShape to compare: the B-spline estimator tracks the analytic MI\n"
      "with far less bias than hard binning, and matches or beats all\n"
      "baselines on nonlinear-network recovery — at a per-pair cost that\n"
      "the paper's vectorization then drives down.\n");
  return 0;
}
