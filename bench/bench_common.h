// Shared helpers for the experiment harnesses in bench/.
//
// Every binary prints a provenance header (ISA, topology, build) so recorded
// numbers are interpretable, then one or more paper-style tables. Defaults
// are sized to finish in seconds; flags scale any experiment up to paper
// scale.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/manifest.h"

#include "core/config.h"
#include "core/mi_engine.h"
#include "data/expression_matrix.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "parallel/topology.h"
#include "preprocess/rank_transform.h"
#include "simd/feature.h"
#include "stats/rng.h"
#include "synth/expression.h"
#include "util/args.h"
#include "util/str.h"
#include "util/table.h"
#include "util/timer.h"

namespace tinge::bench {

inline void print_header(const std::string& title, const std::string& what) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("isa: %s\n", simd::isa_report().c_str());
  std::printf("host: %s\n", par::detect_host_topology().to_string().c_str());
  std::printf("==================================================================\n\n");
}

/// Parses a harness's flags the way the example CLIs do: declares --help
/// (usage on stdout, exit 0) and turns a parse error into "error: ..." on
/// stderr with exit 2. Returns only when the run should go ahead.
inline void parse_args(ArgParser& args, int argc, char** argv,
                       const std::string& summary) {
  args.add_flag("help", "show this help");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  if (args.get_flag("help")) {
    std::fputs(args.usage(argv[0], summary).c_str(), stdout);
    std::exit(0);
  }
}

/// Random-permutation rank profiles — the exact data shape the MI engine
/// consumes — without the cost of simulating expression first. Suitable for
/// all performance experiments (MI cost is data-independent).
class RandomRanks {
 public:
  RandomRanks(std::size_t n_genes, std::size_t m, std::uint64_t seed = 99) {
    ExpressionMatrix matrix(n_genes, m);
    Xoshiro256 rng(seed);
    for (std::size_t g = 0; g < n_genes; ++g) {
      auto row = matrix.row(g);
      for (std::size_t s = 0; s < m; ++s)
        row[s] = static_cast<float>(rng.normal());
    }
    ranked_ = RankedMatrix(matrix);
  }

  const RankedMatrix& ranked() const { return ranked_; }

 private:
  RankedMatrix ranked_;
};

/// The engine rig every scaling/ablation harness shares: random rank
/// profiles plus the paper's b=10, k=3 estimator and an MiEngine over them.
class EngineFixture {
 public:
  EngineFixture(std::size_t n_genes, std::size_t m, std::uint64_t seed = 99)
      : data_(n_genes, m, seed),
        estimator_(10, 3, m),
        engine_(statistic_, data_.ranked()) {}

  const RankedMatrix& ranked() const { return data_.ranked(); }
  const BsplineMi& estimator() const { return estimator_; }
  const MiEngine& engine() const { return engine_; }

 private:
  RandomRanks data_;
  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  MiEngine engine_;
};

/// Engine config for a perf pass. tile_size 0 keeps the library default.
inline TingeConfig engine_config(
    int threads, std::size_t tile_size = 0,
    par::Schedule schedule = par::Schedule::Dynamic) {
  TingeConfig config;
  config.threads = threads;
  if (tile_size > 0) config.tile_size = tile_size;
  config.schedule = schedule;
  return config;
}

/// Thresholded engine passes with warmup: one untimed warmup pass (page
/// faults, kernel auto-resolution) followed by `samples` timed passes, each
/// staging its own rank rows as a pipeline pass does; the stats of the
/// median-seconds pass are returned, so a single descheduling blip cannot
/// masquerade as a kernel regression. The
/// threshold (10 nats) sits above any attainable MI, so the edge set stays
/// empty and the timing is pure sweep cost.
inline EngineStats timed_pass(const MiEngine& engine, par::ThreadPool& pool,
                              const TingeConfig& config, int samples = 3) {
  EngineStats warmup;
  engine.compute_network(/*threshold=*/10.0, config, pool, &warmup);
  std::vector<EngineStats> passes(static_cast<std::size_t>(
      std::max(samples, 1)));
  for (EngineStats& stats : passes)
    engine.compute_network(/*threshold=*/10.0, config, pool, &stats);
  std::sort(passes.begin(), passes.end(),
            [](const EngineStats& a, const EngineStats& b) {
              return a.seconds < b.seconds;
            });
  return passes[passes.size() / 2];
}

/// Synthetic GRN-backed expression dataset for accuracy experiments.
inline SyntheticDataset accuracy_dataset(std::size_t genes, std::size_t samples,
                                         std::uint64_t seed = 7) {
  GrnParams grn_params;
  grn_params.n_genes = genes;
  grn_params.mean_regulators = 1.5;
  grn_params.seed = seed;
  ExpressionParams expr;
  expr.n_samples = samples;
  expr.noise_sd = 1.0;
  // A third of the regulatory edges respond non-monotonically: the
  // dependency class correlation misses and MI exists to catch.
  expr.nonmonotone_fraction = 0.35;
  expr.seed = seed + 1;
  return make_synthetic_dataset(grn_params, expr);
}

/// Machine-readable companion to the printed tables: collects one JSON
/// object per table row and writes BENCH_<name>.json via the obs manifest
/// writer (atomic rename), so CI can compare runs mechanically instead of
/// scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    root_ = obs::Json::object();
    root_["benchmark"] = obs::Json(name_);
    root_["isa"] = obs::Json(simd::isa_report());
    root_["host"] = obs::Json(par::detect_host_topology().to_string());
    rows_ = obs::Json::array();
  }

  void add_row(obs::Json row) { rows_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json (default) or `path`; returns the path.
  std::string write(std::string path = {}) {
    if (path.empty()) path = "BENCH_" + name_ + ".json";
    root_["rows"] = std::move(rows_);
    rows_ = obs::Json::array();
    obs::write_json_file(root_, path);
    return path;
  }

 private:
  std::string name_;
  obs::Json root_;
  obs::Json rows_;
};

/// pairs/s formatted for tables.
inline std::string rate_str(double pairs_per_second) {
  if (pairs_per_second >= 1e6)
    return strprintf("%.2fM", pairs_per_second / 1e6);
  if (pairs_per_second >= 1e3)
    return strprintf("%.1fk", pairs_per_second / 1e3);
  return strprintf("%.0f", pairs_per_second);
}

}  // namespace tinge::bench
