// Experiment F2 [reconstructed]: vectorization speedup of the B-spline MI
// kernel — the paper's central single-thread optimization claim (scalar vs
// 512-bit VPU formulation on the Phi; the scalar reference vs the
// register-resident vector kernel here). Both kernels compute the same
// bits (mi/bspline_kernels.h), so every row measures speed only.
//
// Two outputs:
//   1. paper-style tables (kernel x sample count -> pairs/s and speedup
//      over scalar; per-pair vs panel; uint16 rank staging),
//   2. google-benchmark microbenchmarks for kernel-grade timing.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "mi/bspline_mi.h"
#include "preprocess/rank_transform.h"

namespace {

using namespace tinge;

constexpr int kBins = 10;
constexpr int kOrder = 3;

double measure_pairs_per_second(const BsplineMi& estimator,
                                const RankedMatrix& ranks, MiKernel kernel,
                                double budget_seconds = 0.3) {
  JointHistogram scratch = estimator.make_scratch();
  const std::size_t n = ranks.n_genes();
  Stopwatch watch;
  std::size_t pairs = 0;
  double sink = 0.0;
  while (watch.seconds() < budget_seconds) {
    for (std::size_t i = 0; i + 1 < n && watch.seconds() < budget_seconds;
         ++i) {
      sink += estimator.mi(ranks.ranks(i), ranks.ranks(i + 1), scratch, kernel);
      ++pairs;
    }
  }
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(pairs) / watch.seconds();
}

void summary_table(bench::BenchJson& out) {
  bench::print_header(
      "F2: MI kernel vectorization speedup (single thread)",
      "per-pair pairs/s per kernel; speedup relative to the scalar "
      "reference. b=10, k=3 (TINGe defaults).");

  const std::vector<std::size_t> sample_counts{256, 1024, 3137};
  const MiKernel kernels[] = {MiKernel::Scalar, MiKernel::Simd};

  Table table({"m (samples)", "kernel", "pairs/s", "Mcells/s", "speedup"});
  for (const std::size_t m : sample_counts) {
    const bench::RandomRanks data(64, m);
    const BsplineMi estimator(kBins, kOrder, m);

    // Ablation baseline: no shared weight table at all — per-pair B-spline
    // basis evaluation (the pre-rank-transform formulation).
    {
      std::vector<std::vector<float>> unit(64, std::vector<float>(m));
      for (std::size_t g = 0; g < 64; ++g)
        for (std::size_t s = 0; s < m; ++s)
          unit[g][s] = rank_to_unit(
              static_cast<float>(data.ranked().ranks(g)[s]), m);
      Stopwatch watch;
      std::size_t pairs = 0;
      double sink = 0.0;
      while (watch.seconds() < 0.3) {
        for (std::size_t i = 0; i + 1 < 64 && watch.seconds() < 0.3; ++i) {
          sink += bspline_mi_direct(unit[i], unit[i + 1], kBins, kOrder);
          ++pairs;
        }
      }
      if (sink == 7e77) std::printf("?");
      const double rate = static_cast<double>(pairs) / watch.seconds();
      table.add_row({std::to_string(m), "no-table (direct)",
                     bench::rate_str(rate),
                     strprintf("%.1f", rate * static_cast<double>(m) / 1e6),
                     "-"});
    }

    double scalar_rate = 0.0;
    for (const MiKernel kernel : kernels) {
      const double rate =
          measure_pairs_per_second(estimator, data.ranked(), kernel);
      if (kernel == MiKernel::Scalar) scalar_rate = rate;
      table.add_row({std::to_string(m), kernel_name(kernel),
                     bench::rate_str(rate),
                     strprintf("%.1f", rate * static_cast<double>(m) / 1e6),
                     strprintf("%.2fx", rate / scalar_rate)});
      obs::Json json = obs::Json::object();
      json["table"] = obs::Json(std::string("kernel_ladder"));
      json["samples"] = obs::Json(m);
      json["kernel"] = obs::Json(std::string(kernel_name(kernel)));
      json["pairs_per_second"] = obs::Json(rate);
      json["speedup_vs_scalar"] = obs::Json(rate / scalar_rate);
      out.add_row(std::move(json));
    }
  }
  table.print();
  std::printf(
      "\nPaper shape to compare: the vectorized kernel wins by a large\n"
      "integer factor that grows with m (the accumulation loop dominates).\n\n");
}

// ---- panel (row-reuse) vs per-pair -----------------------------------------

double measure_panel_pairs_per_second(const BsplineMi& estimator,
                                      const RankedMatrix& ranks,
                                      MiKernel kernel, std::size_t width,
                                      double budget_seconds = 0.3) {
  JointHistogram scratch = estimator.make_scratch();
  const std::size_t n = ranks.n_genes();
  Stopwatch watch;
  std::size_t pairs = 0;
  double sink = 0.0;
  double mi[kMaxPanelWidth];
  const std::uint32_t* ry[kMaxPanelWidth];
  while (watch.seconds() < budget_seconds) {
    for (std::size_t i = 0; i + width < n && watch.seconds() < budget_seconds;
         i += width) {
      for (std::size_t p = 0; p < width; ++p)
        ry[p] = ranks.ranks(i + 1 + p).data();
      estimator.mi_panel(ranks.ranks(i).data(), ry, width, scratch, kernel,
                         mi);
      for (std::size_t p = 0; p < width; ++p) sink += mi[p];
      pairs += width;
    }
  }
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(pairs) / watch.seconds();
}

void panel_table() {
  bench::print_header(
      "Panel blocking: row-reuse MI sweep vs per-pair kernels",
      "pairs/s for the panel path (one row gene amortized over B column "
      "genes) against the best per-pair kernel. b=10, k=3.");

  const std::vector<std::size_t> sample_counts{256, 1024, 2048, 3137};
  const MiKernel kernels[] = {MiKernel::Scalar, MiKernel::Simd};

  Table table({"m (samples)", "path", "B", "pairs/s", "speedup vs best pair"});
  for (const std::size_t m : sample_counts) {
    const bench::RandomRanks data(64, m);
    const BsplineMi estimator(kBins, kOrder, m);

    double best_pair = 0.0;
    const char* best_pair_name = "?";
    for (const MiKernel kernel : kernels) {
      const double rate =
          measure_pairs_per_second(estimator, data.ranked(), kernel);
      if (rate > best_pair) {
        best_pair = rate;
        best_pair_name = kernel_name(kernel);
      }
    }
    table.add_row({std::to_string(m),
                   strprintf("pair/%s (best)", best_pair_name), "1",
                   bench::rate_str(best_pair), "1.00x"});

    for (const MiKernel kernel : kernels) {
      for (const std::size_t width : {std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
        const double rate = measure_panel_pairs_per_second(
            estimator, data.ranked(), kernel, width);
        table.add_row({std::to_string(m),
                       strprintf("panel/%s", kernel_name(kernel)),
                       std::to_string(width), bench::rate_str(rate),
                       strprintf("%.2fx", rate / best_pair)});
      }
    }
    const int auto_width = auto_panel_width(estimator.table());
    const double auto_rate = measure_panel_pairs_per_second(
        estimator, data.ranked(), MiKernel::Auto,
        static_cast<std::size_t>(auto_width));
    table.add_row({std::to_string(m), "panel/auto",
                   std::to_string(auto_width), bench::rate_str(auto_rate),
                   strprintf("%.2fx", auto_rate / best_pair)});
  }
  table.print();
  std::printf(
      "\nThe panel path sorts the row gene once and shares its weight\n"
      "broadcasts across B register windows; the engine uses it for all\n"
      "tile sweeps.\n\n");
}

// ---- uint16 rank staging (F2c) ----------------------------------------------

// Measures the vector panel over rank rows served by `row` (uint32 or
// uint16 — deduced).
template <typename RowFn>
double measure_panel_rows(const BsplineMi& estimator, std::size_t n, RowFn row,
                          std::size_t width, double budget_seconds = 0.3) {
  JointHistogram scratch = estimator.make_scratch();
  Stopwatch watch;
  std::size_t pairs = 0;
  double sink = 0.0;
  double mi[kMaxPanelWidth];
  using RankPtr = decltype(row(std::size_t{0}));
  RankPtr ry[kMaxPanelWidth];
  while (watch.seconds() < budget_seconds) {
    for (std::size_t i = 0; i + width < n && watch.seconds() < budget_seconds;
         i += width) {
      for (std::size_t p = 0; p < width; ++p) ry[p] = row(i + 1 + p);
      estimator.mi_panel(row(i), ry, width, scratch, MiKernel::Simd, mi);
      for (std::size_t p = 0; p < width; ++p) sink += mi[p];
      pairs += width;
    }
  }
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(pairs) / watch.seconds();
}

// The vector panel over uint32 rank rows against uint16 staged rows. Both
// compute bit-identical MI values; the staged rows halve the rank bytes.
void panel_knob_table(bench::BenchJson& out) {
  bench::print_header(
      "F2c: uint16 rank staging (single thread)",
      "pairs/s of the B=8 vector panel over uint32 and uint16 rank rows; "
      "speedup vs uint32. b=10, k=3.");

  const std::vector<std::size_t> sample_counts{2048, 3137};
  constexpr std::size_t kWidth = 8;
  constexpr std::size_t kGenes = 64;

  Table table({"m (samples)", "variant", "pairs/s", "speedup"});
  for (const std::size_t m : sample_counts) {
    const bench::RandomRanks data(kGenes, m);
    const BsplineMi estimator(kBins, kOrder, m);
    const StagedRankMatrix staged(data.ranked());
    const auto row32 = [&](std::size_t g) {
      return data.ranked().ranks(g).data();
    };
    const auto row16 = [&](std::size_t g) { return staged.row(g); };

    const double baseline_rate =
        measure_panel_rows(estimator, kGenes, row32, kWidth);
    const double staged_rate =
        measure_panel_rows(estimator, kGenes, row16, kWidth);
    const std::pair<const char*, double> variants[] = {
        {"baseline (u32 ranks)", baseline_rate},
        {"+uint16 rank staging", staged_rate}};
    for (const auto& [name, rate] : variants) {
      table.add_row({std::to_string(m), name, bench::rate_str(rate),
                     strprintf("%.2fx", rate / baseline_rate)});
      obs::Json json = obs::Json::object();
      json["table"] = obs::Json(std::string("panel_knobs"));
      json["samples"] = obs::Json(m);
      json["variant"] = obs::Json(std::string(name));
      json["pairs_per_second"] = obs::Json(rate);
      json["speedup_vs_baseline"] = obs::Json(rate / baseline_rate);
      out.add_row(std::move(json));
    }
  }
  table.print();
  std::printf(
      "\nBoth rows are bit-identical in output; the delta is the rank-stream\n"
      "bytes.\n\n");
}

// ---- google-benchmark microbenchmarks --------------------------------------

void BM_JointEntropy(benchmark::State& state) {
  const auto kernel = static_cast<MiKernel>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const bench::RandomRanks data(8, m);
  const BsplineMi estimator(kBins, kOrder, m);
  JointHistogram scratch = estimator.make_scratch();
  std::size_t i = 0;
  for (auto _ : state) {
    const double h = estimator.joint_entropy(data.ranked().ranks(i % 8),
                                             data.ranked().ranks((i + 1) % 8),
                                             scratch, kernel);
    benchmark::DoNotOptimize(h);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
  state.SetLabel(kernel_name(kernel));
}

void BM_JointEntropyPanel(benchmark::State& state) {
  const auto kernel = static_cast<MiKernel>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto width = static_cast<std::size_t>(state.range(2));
  const bench::RandomRanks data(16, m);
  const BsplineMi estimator(kBins, kOrder, m);
  JointHistogram scratch = estimator.make_scratch();
  double mi[kMaxPanelWidth];
  const std::uint32_t* ry[kMaxPanelWidth];
  std::size_t i = 0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < width; ++p)
      ry[p] = data.ranked().ranks((i + 1 + p) % 16).data();
    estimator.mi_panel(data.ranked().ranks(i % 16).data(), ry, width, scratch,
                       kernel, mi);
    benchmark::DoNotOptimize(mi[0]);
    i += width;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(width) *
                          static_cast<std::int64_t>(m));
  state.SetLabel(strprintf("%s B=%zu", kernel_name(kernel), width));
}

void register_benchmarks() {
  const MiKernel kernels[] = {MiKernel::Scalar, MiKernel::Simd};
  for (const MiKernel kernel : kernels) {
    for (const std::int64_t m : {256, 1024, 3137}) {
      benchmark::RegisterBenchmark(
          strprintf("BM_JointEntropy/%s/m=%lld", kernel_name(kernel),
                    static_cast<long long>(m))
              .c_str(),
          BM_JointEntropy)
          ->Args({static_cast<std::int64_t>(kernel), m});
    }
  }
  for (const MiKernel kernel : kernels) {
    for (const std::int64_t m : {1024, 3137}) {
      for (const std::int64_t width : {4, 8}) {
        benchmark::RegisterBenchmark(
            strprintf("BM_JointEntropyPanel/%s/m=%lld/B=%lld",
                      kernel_name(kernel), static_cast<long long>(m),
                      static_cast<long long>(width))
                .c_str(),
            BM_JointEntropyPanel)
            ->Args({static_cast<std::int64_t>(kernel), m, width});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchJson out("mi_kernels");
  summary_table(out);
  panel_table();
  panel_knob_table(out);
  std::printf("wrote %s\n", out.write().c_str());
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
