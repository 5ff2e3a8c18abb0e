// Batch modes: input generation, the timed pipeline, its traced
// stage-by-stage twin, and the output check.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/dpi.h"
#include "core/mi_engine.h"
#include "core/network_builder.h"
#include "core/null_distribution.h"
#include "core/pair_statistic.h"
#include "data/tsv_io.h"
#include "graph/graph_io.h"
#include "parallel/thread_pool.h"
#include "preprocess/filter.h"
#include "preprocess/rank_transform.h"
#include "stats/rng.h"
#include "synth/expression.h"

namespace perfbench {

using tinge::obs::Json;

namespace {

int pool_width(const tinge::TingeConfig& config) {
  return config.threads > 0
             ? config.threads
             : tinge::par::detect_host_topology().total_threads();
}

double file_megabytes(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) /
         (1024.0 * 1024.0);
}

Json engine_record(const tinge::EngineStats& stats) {
  Json record = Json::object();
  record["kernel"] = stats.kernel;
  record["panel_width"] = stats.panel_width;
  record["pairs"] = stats.pairs_computed;
  record["edges"] = stats.edges_emitted;
  record["tiles"] = stats.tiles;
  record["panels"] = stats.panels_swept;
  record["panel_fill"] = stats.panel_fill_ratio();
  record["tile_p50_s"] = stats.tile_seconds_p50;
  record["tile_p95_s"] = stats.tile_seconds_p95;
  Json per_thread = Json::array();
  for (const std::uint64_t pairs : stats.pairs_per_thread)
    per_thread.push_back(pairs);
  record["pairs_per_thread"] = std::move(per_thread);
  return record;
}

/// Writes the generated matrix in the TSV layout read_expression_tsv reads.
/// write_expression_tsv_file formats every cell through "%.9g", ~5 s of
/// every e1-reduced run; std::to_chars' shortest form parses back to the
/// same float in a fraction of that.
void write_input_tsv(const tinge::ExpressionMatrix& matrix,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  std::string line = "gene";
  for (const std::string& name : matrix.sample_names()) line += '\t' + name;
  out << line << '\n';
  char cell[32];
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    line = matrix.gene_name(g);
    for (const float value : matrix.row(g)) {
      line += '\t';
      if (std::isnan(value)) {
        line += "NA";
        continue;
      }
      const auto [end, error] = std::to_chars(cell, cell + sizeof(cell), value);
      line.append(cell, end);
    }
    out << line << '\n';
  }
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

/// Genes [0, n) of `matrix` as their own matrix (the scaling probe's
/// fixed subset).
tinge::ExpressionMatrix leading_genes(const tinge::ExpressionMatrix& matrix,
                                      std::size_t n) {
  tinge::ExpressionMatrix subset(n, matrix.n_samples());
  for (std::size_t g = 0; g < n; ++g)
    std::copy(matrix.row(g).begin(), matrix.row(g).end(),
              subset.row(g).begin());
  return subset;
}

}  // namespace

// The compendium is a stack of independent scale-free GRN modules of
// kModuleGenes genes. One genome-wide GRN lets a seed's largest hubs decide
// how many pairs correlate (pre-DPI edges ranged 250k-450k over five seeds
// at 6,000 x 400); summed over 30 modules they stay within a few percent,
// so every seed asks for about the same work. Low intrinsic noise and three
// regulators per gene make modules dense enough that DPI has triangles to
// examine (~16M at 6,000 x 400).
int run_gen(const tinge::ArgParser& args) {
  constexpr std::size_t kModuleGenes = 200;
  tinge::SplitMix64 seeds(static_cast<std::uint64_t>(args.get_int("seed")));
  const auto genes = static_cast<std::size_t>(args.get_int("genes"));
  tinge::ExpressionParams arrays;
  arrays.n_samples = static_cast<std::size_t>(args.get_int("samples"));
  arrays.missing_fraction = args.get_double("missing");
  arrays.noise_sd = 0.3;
  tinge::ExpressionMatrix expression(genes, arrays.n_samples);
  for (std::size_t first = 0; first < genes; first += kModuleGenes) {
    tinge::GrnParams grn;
    grn.n_genes = std::min(kModuleGenes, genes - first);
    grn.mean_regulators = 3.0;
    grn.seed = seeds.next();
    arrays.seed = seeds.next();
    const tinge::ExpressionMatrix part =
        tinge::simulate_expression(tinge::generate_grn(grn), arrays);
    for (std::size_t g = 0; g < part.n_genes(); ++g)
      std::copy(part.row(g).begin(), part.row(g).end(),
                expression.row(first + g).begin());
  }
  write_input_tsv(expression, args.get("out"));
  Json result = Json::object();
  result["genes"] = expression.n_genes();
  result["samples"] = expression.n_samples();
  write_json(result, args.get("result"));
  return 0;
}

int run_batch(const tinge::ArgParser& args) {
  const tinge::TingeConfig config = pipeline_config(args);
  const tinge::Stopwatch read_watch;
  tinge::ExpressionMatrix expression =
      tinge::read_expression_tsv_file(args.get("input"));
  const double setup_s = read_watch.seconds();

  const tinge::Stopwatch build_watch;
  const tinge::BuildResult built =
      tinge::NetworkBuilder(config).build(std::move(expression));
  tinge::write_edge_list_file(built.network, args.get("out"));
  const double build_s = build_watch.seconds();

  const double n = static_cast<double>(built.genes_used);
  Json result = Json::object();
  result["setup_s"] = setup_s;
  result["build_s"] = build_s;
  result["pairs"] = n * (n - 1.0) / 2.0;
  result["threshold"] = built.threshold;
  result["threads"] = built.pool_busy_seconds.size();
  result["engine"] = engine_record(built.engine);
  result["host"] = host_record();
  write_json(result, args.get("result"));
  return 0;
}

// The traced run calls the stages NetworkBuilder::build runs, one by one and
// in its order, so its edge list must equal the untraced run's. Spans cover
// only what the untraced timing covers (build + write) under "pipeline";
// the read and the extra probes sit under their own roots.
int run_trace_batch(const tinge::ArgParser& args) {
  const tinge::TingeConfig config = pipeline_config(args);
  SpanLog log;
  Json result = Json::object();

  tinge::ExpressionMatrix working;
  {
    const ScopedSpan span(&log, "data.read");
    working = tinge::read_expression_tsv_file(args.get("input"));
  }
  result["input_mb"] = file_megabytes(args.get("input"));

  const int threads = pool_width(config);
  const int pipeline = log.begin("pipeline");
  tinge::par::ThreadPool pool(threads);
  {
    const ScopedSpan span(&log, "preprocess.impute", pipeline);
    tinge::impute_missing_with_median(working);
  }
  {
    const ScopedSpan span(&log, "preprocess.filter", pipeline);
    tinge::FilterResult filtered = tinge::filter_genes(working, config.filter);
    working = std::move(filtered.matrix);
  }
  tinge::RankedMatrix ranked;
  {
    const ScopedSpan span(&log, "preprocess.rank", pipeline);
    ranked = tinge::RankedMatrix(working);
  }
  std::unique_ptr<tinge::PairStatistic> statistic;
  {
    const ScopedSpan span(&log, "statistic", pipeline);
    statistic = tinge::make_pair_statistic(config, ranked, &working);
  }
  double threshold = 0.0;
  {
    const ScopedSpan span(&log, "null", pipeline);
    const tinge::EmpiricalDistribution null = tinge::build_null_distribution(
        *statistic, config.permutations, config.seed, pool, config.threads);
    threshold = tinge::threshold_for_alpha(null, config.alpha);
  }
  {
    // The once-per-process kernel resolution (measured microbenchmarks,
    // memoized) that the sweep would otherwise pay inside its span.
    const ScopedSpan span(&log, "plan", pipeline);
    statistic->plan(config);
  }
  tinge::GeneNetwork network;
  tinge::EngineStats stats;
  const std::vector<double> busy_before = pool.busy_seconds_all();
  {
    const ScopedSpan span(&log, "sweep", pipeline);
    const tinge::MiEngine engine(*statistic, ranked);
    network = engine.compute_network(threshold, config, pool, &stats);
  }
  const std::vector<double> busy_after = pool.busy_seconds_all();
  tinge::DpiStats dpi;
  if (config.apply_dpi) {
    const ScopedSpan span(&log, "dpi", pipeline);
    network = tinge::apply_dpi(network, config.dpi_tolerance, &dpi);
  }
  {
    const ScopedSpan span(&log, "output", pipeline);
    tinge::write_edge_list_file(network, args.get("out"));
  }
  log.end(pipeline);

  // Probes, outside the pipeline and its overhead. The no-edge pass runs on
  // a fresh engine, so like the pipeline's sweep it pays the rank staging
  // and not the kernel resolution: the difference is the edge sink.
  const int probes = log.begin("probes");
  const auto timed_pass = [&](const char* name,
                              const tinge::PairStatistic& stat,
                              const tinge::RankedMatrix& ranks, double cut,
                              const tinge::TingeConfig& pass_config) {
    const ScopedSpan span(&log, name, probes);
    const tinge::MiEngine engine(stat, ranks);
    tinge::EngineStats pass_stats;
    engine.compute_network(cut, pass_config, pool, &pass_stats);
    return pass_stats.pairs_computed;
  };
  timed_pass("probe.sweep_no_edges", *statistic, ranked,
             std::numeric_limits<double>::infinity(), config);

  // The scaling probe's subset holds ~4e8 pair-samples: about 2 s on one
  // thread at either workload's m.
  constexpr double kSubsetPairSamples = 4e8;
  const auto subset_genes = std::min(
      ranked.n_genes(),
      static_cast<std::size_t>(std::sqrt(
          2.0 * kSubsetPairSamples / static_cast<double>(ranked.n_samples()))));
  const tinge::RankedMatrix subset(leading_genes(working, subset_genes));
  tinge::TingeConfig one_thread = config;
  one_thread.threads = 1;
  tinge::TingeConfig all_threads = config;
  all_threads.threads = threads;
  const std::size_t subset_pairs =
      timed_pass("probe.subset_1t", *statistic, subset, threshold, one_thread);
  timed_pass("probe.subset_nt", *statistic, subset, threshold, all_threads);
  // Without DPI in the pipeline, apply_dpi runs here on the built network
  // (the edge list stays the untraced run's), so every workload reports
  // what the DPI stage costs on its network.
  if (!config.apply_dpi) {
    const ScopedSpan span(&log, "probe.dpi", probes);
    tinge::apply_dpi(network, config.dpi_tolerance, &dpi);
  }
  log.end(probes);

  result["threads"] = threads;
  result["samples"] = ranked.n_samples();
  result["threshold"] = threshold;
  result["bins"] = config.bins;
  result["order"] = config.spline_order;
  result["q"] = config.permutations;
  result["staged_ranks"] =
      config.stage_ranks &&
      tinge::StagedRankMatrix::can_stage(ranked.n_samples());
  result["engine"] = engine_record(stats);
  Json busy = Json::array();
  for (std::size_t t = 0; t < busy_after.size(); ++t)
    busy.push_back(busy_after[t] -
                   (t < busy_before.size() ? busy_before[t] : 0.0));
  result["sweep_busy_s"] = std::move(busy);
  result["dpi_triangles"] = dpi.triangles_examined;
  result["dpi_edges_removed"] = dpi.edges_removed;
  result["output_mb"] = file_megabytes(args.get("out"));
  result["subset_pairs"] = subset_pairs;
  result["host"] = host_record();
  write_json(log.to_json(), args.get("spans"));
  write_json(result, args.get("result"));
  return 0;
}

namespace {

/// One sampled pair and the class it was drawn from.
struct SampledPair {
  std::uint32_t a = 0, b = 0;
  const char* kind = "";
};

/// The written edge list: weights as written, keyed by normalized pair.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> read_written(
    const std::string& path, const std::vector<std::string>& names) {
  std::map<std::string, std::uint32_t> index;
  for (std::uint32_t g = 0; g < names.size(); ++g) index.emplace(names[g], g);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> written;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t t1 = line.find('\t');
    const std::size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos)
      throw std::runtime_error("malformed edge row: " + line);
    const auto a = index.find(line.substr(0, t1));
    const auto b = index.find(line.substr(t1 + 1, t2 - t1 - 1));
    if (a == index.end() || b == index.end())
      throw std::runtime_error("edge row names an unknown gene: " + line);
    written[std::minmax(a->second, b->second)] = line.substr(t2 + 1);
  }
  return written;
}

}  // namespace

// Independent re-evaluation of a seeded sample of pairs on the same ranked
// matrix: a pair must be written iff its value reaches the threshold (and,
// with DPI, no triangle removes it — re-derived by brute force over every
// witness gene, as ARACNE defines it), with the weight equal at the
// written precision.
int run_check(const tinge::ArgParser& args) {
  const tinge::TingeConfig config = pipeline_config(args);
  tinge::ExpressionMatrix working =
      tinge::read_expression_tsv_file(args.get("input"));
  tinge::impute_missing_with_median(working);
  working = tinge::filter_genes(working, config.filter).matrix;
  const tinge::RankedMatrix ranked(working);
  const std::unique_ptr<tinge::PairStatistic> statistic =
      tinge::make_pair_statistic(config, ranked, &working);
  const int threads = pool_width(config);
  tinge::par::ThreadPool pool(threads);
  const double threshold = tinge::threshold_for_alpha(
      tinge::build_null_distribution(*statistic, config.permutations,
                                     config.seed, pool, config.threads),
      config.alpha);

  Json result = Json::object();
  Json failures = Json::array();
  const double expected = args.get_double("threshold");
  if (!std::isnan(expected) &&
      std::memcmp(&expected, &threshold, sizeof(double)) != 0)
    failures.push_back("threshold differs from the run's");

  const std::unique_ptr<tinge::PairStatistic> reference =
      tinge::make_pair_statistic(reference_config(config), ranked, &working);
  const auto written = read_written(args.get("edges"), ranked.gene_names());
  const std::size_t n = ranked.n_genes();
  const float cut = static_cast<float>(threshold);

  std::vector<std::unique_ptr<tinge::PairScratch>> scratch;
  for (int t = 0; t < threads; ++t)
    scratch.push_back(reference->make_scratch());
  // Pairs evaluate in the sweep's orientation (row gene < column gene), so
  // the value is the one the sweep computed, bit for bit.
  const auto value = [&](std::uint32_t a, std::uint32_t b, int tid) {
    const auto [x, y] = std::minmax(a, b);
    return static_cast<float>(reference->eval_pair(
        ranked.ranks(x).data(), ranked.ranks(y).data(), x, y,
        *scratch[static_cast<std::size_t>(tid)]));
  };
  // Values of gene g against every gene (the DPI witness scan), computed
  // once per gene in parallel.
  std::map<std::uint32_t, std::vector<float>> rows;
  const auto row_of = [&](std::uint32_t g) -> const std::vector<float>& {
    auto it = rows.find(g);
    if (it != rows.end()) return it->second;
    std::vector<float> values(n, 0.0f);
    pool.run(threads, [&](int tid, int width) {
      for (std::size_t z = static_cast<std::size_t>(tid); z < n;
           z += static_cast<std::size_t>(width))
        if (z != g) values[z] = value(g, static_cast<std::uint32_t>(z), tid);
    });
    return rows.emplace(g, std::move(values)).first->second;
  };
  const float keep = static_cast<float>(1.0 - config.dpi_tolerance);
  const auto dpi_removes = [&](std::uint32_t a, std::uint32_t b) {
    const std::vector<float>& ra = row_of(a);
    const std::vector<float>& rb = row_of(b);
    for (std::uint32_t z = 0; z < n; ++z) {
      if (z == a || z == b || ra[z] < cut || rb[z] < cut) continue;
      // The triangle in apply_dpi's orientation: x < y < w, edge (x, y)
      // first, witness w; the weakest edge goes, first match wins.
      std::uint32_t v[3] = {a, b, z};
      std::sort(v, v + 3);
      const auto w = [&](std::uint32_t p, std::uint32_t q) {
        if ((p == a && q == b) || (p == b && q == a)) return ra[b];
        if (p == a || q == a) return ra[p == a ? q : p];
        return rb[p == b ? q : p];
      };
      const float w_xy = w(v[0], v[1]), w_xw = w(v[0], v[2]),
                  w_yw = w(v[1], v[2]);
      const float weakest = std::min({w_xy, w_xw, w_yw});
      const float second = std::min(std::max(w_xy, w_xw),
                                    std::max(std::min(w_xy, w_xw), w_yw));
      if (!(weakest < second * keep)) continue;
      std::pair<std::uint32_t, std::uint32_t> gone =
          w_xy == weakest   ? std::pair{v[0], v[1]}
          : w_xw == weakest ? std::pair{v[0], v[2]}
                            : std::pair{v[1], v[2]};
      if (gone == std::pair<std::uint32_t, std::uint32_t>(std::minmax(a, b)))
        return true;
    }
    return false;
  };

  // The sample: written edges, uniform pairs (mostly non-edges) and, with
  // DPI, two-hop pairs (the ones DPI removes).
  tinge::Xoshiro256 rng(static_cast<std::uint64_t>(args.get_int("seed")) ^
                        0x636865636bULL);
  constexpr std::size_t k = 64;  // pairs per sampled class
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list;
  std::vector<std::vector<std::uint32_t>> neighbors(n);
  for (const auto& [pair, weight] : written) {
    edge_list.push_back(pair);
    neighbors[pair.first].push_back(pair.second);
    neighbors[pair.second].push_back(pair.first);
  }
  std::vector<SampledPair> sample;
  for (std::size_t i = 0; i < k && !edge_list.empty(); ++i) {
    const auto& e = edge_list[rng() % edge_list.size()];
    sample.push_back({e.first, e.second, "edge"});
  }
  for (std::size_t i = 0; i < k; ++i) {
    const auto a = static_cast<std::uint32_t>(rng() % n);
    auto b = static_cast<std::uint32_t>(rng() % (n - 1));
    if (b >= a) ++b;
    sample.push_back({a, b, "uniform"});
  }
  for (std::size_t i = 0; config.apply_dpi && i < k && !edge_list.empty();
       ++i) {
    const auto& e = edge_list[rng() % edge_list.size()];
    const auto& hop = neighbors[e.second];
    const std::uint32_t c = hop[rng() % hop.size()];
    if (c != e.first) sample.push_back({e.first, c, "two_hop"});
  }

  for (const SampledPair& pair : sample) {
    const auto key = std::minmax(pair.a, pair.b);
    const float mi = value(key.first, key.second, 0);
    const bool significant = mi >= cut;
    const bool expect =
        significant &&
        !(config.apply_dpi && dpi_removes(key.first, key.second));
    const auto it = written.find(key);
    const bool found = it != written.end();
    char text[64];
    std::snprintf(text, sizeof(text), "%.9g", static_cast<double>(mi));
    std::string why;
    if (found != expect)
      why = std::string(found ? "written but" : "missing but") +
            " re-evaluated " + text;
    else if (found && it->second != text)
      why = "weight " + it->second + " != re-evaluated " + text;
    if (!why.empty())
      failures.push_back(std::string(pair.kind) + " pair (" +
                         std::to_string(key.first) + ", " +
                         std::to_string(key.second) + "): " + why);
  }
  result["pairs_checked"] = sample.size();
  result["failures"] = std::move(failures);
  write_json(result, args.get("result"));
  return 0;
}

}  // namespace perfbench
