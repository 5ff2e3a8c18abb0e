#include "core/consensus.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/mi_engine.h"
#include "core/null_distribution.h"
#include "core/pair_statistic.h"
#include "stats/rng.h"
#include "util/str.h"
#include "util/timer.h"

namespace tinge {

namespace {

/// One engine run's configuration: the caller's knobs minus everything that
/// must not recurse into or distort a consensus member sweep.
TingeConfig member_config(const TingeConfig& config, EstimatorKind estimator) {
  TingeConfig member = config;
  member.estimator = estimator;
  member.consensus_resamples = 0;
  member.consensus_estimators.clear();
  member.checkpoint_path.clear();  // journaling B*E sweeps would thrash
  member.apply_dpi = false;        // DPI runs once, on the consensus network
  return member;
}

/// Bootstrap resample of the sample axis: column s of the result is column
/// indices[s] of `working`. Gene rows keep their identity, so edge indices
/// stay comparable across resamples.
ExpressionMatrix resample_columns(const ExpressionMatrix& working,
                                  const std::vector<std::uint32_t>& indices) {
  ExpressionMatrix resampled(working.n_genes(), working.n_samples());
  for (std::size_t g = 0; g < working.n_genes(); ++g) {
    const std::span<const float> src = working.row(g);
    const std::span<float> dst = resampled.row(g);
    for (std::size_t s = 0; s < indices.size(); ++s) dst[s] = src[indices[s]];
  }
  return resampled;
}

}  // namespace

std::vector<EstimatorKind> consensus_estimator_list(const TingeConfig& config) {
  if (config.consensus_estimators.empty()) return {config.estimator};
  std::vector<EstimatorKind> kinds;
  std::size_t begin = 0;
  const std::string& list = config.consensus_estimators;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    std::string_view token(list.data() + begin, end - begin);
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) {
      const EstimatorKind kind = parse_estimator(token);
      if (std::find(kinds.begin(), kinds.end(), kind) != kinds.end())
        throw std::invalid_argument(
            strprintf("duplicate consensus estimator '%s'",
                      estimator_name(kind)));
      kinds.push_back(kind);
    }
    begin = end + 1;
  }
  if (kinds.empty())
    throw std::invalid_argument("consensus estimator list is empty");
  return kinds;
}

GeneNetwork build_consensus_network(
    const ExpressionMatrix& working, const RankedMatrix& ranked,
    const TingeConfig& config, par::ThreadPool& pool,
    const std::function<void(std::string_view)>& log, ConsensusStats* stats) {
  TINGE_EXPECTS(config.consensus_resamples >= 1);
  TINGE_EXPECTS(working.n_genes() == ranked.n_genes());
  TINGE_EXPECTS(working.n_samples() == ranked.n_samples());
  const Stopwatch watch;
  const std::size_t n = ranked.n_genes();
  const std::size_t m = ranked.n_samples();
  const std::size_t B = config.consensus_resamples;
  const std::vector<EstimatorKind> estimators =
      consensus_estimator_list(config);

  // Per-estimator significance thresholds from the FULL data's universal
  // null. The null distribution of any statistic here depends only on m —
  // two independent random permutations of 0..m-1 — and the bootstrap
  // preserves m, so one null per estimator serves every resample.
  std::vector<double> thresholds;
  thresholds.reserve(estimators.size());
  std::string names;
  for (const EstimatorKind kind : estimators) {
    if (!names.empty()) names += ',';
    names += estimator_name(kind);
    const TingeConfig member = member_config(config, kind);
    const std::unique_ptr<PairStatistic> statistic =
        make_pair_statistic(member, ranked, &working);
    const EmpiricalDistribution null = build_null_distribution(
        *statistic, config.permutations, config.seed, pool, config.threads);
    thresholds.push_back(threshold_for_alpha(null, config.alpha));
    if (log)
      log(strprintf("consensus: estimator %s threshold %.5f (q=%zu, "
                    "alpha=%.2e)",
                    estimator_name(kind), thresholds.back(),
                    config.permutations, config.alpha));
  }

  // Vote accumulation, keyed (u << 32) | v with u < v (GeneNetwork's edge
  // normalization). Iteration order of the map never shows in the result:
  // finalize() sorts the surviving edges.
  std::unordered_map<std::uint64_t, std::uint32_t> votes;
  std::size_t pairs_computed = 0;
  std::size_t tiles = 0;
  std::string kernels;
  std::vector<std::uint32_t> indices(m);
  for (std::size_t b = 0; b < B; ++b) {
    // The same resampled columns for every estimator at round b — the
    // voters must disagree about the statistic, not about the data. The
    // long_jump decorrelates this stream from the null-distribution
    // streams, which are seeded with the same (seed, golden-ratio) recipe.
    Xoshiro256 rng(config.seed + 0x9e3779b97f4a7c15ULL * (b + 1));
    rng.long_jump();
    for (std::size_t s = 0; s < m; ++s)
      indices[s] = static_cast<std::uint32_t>(rng.below(m));
    const ExpressionMatrix resampled = resample_columns(working, indices);
    const RankedMatrix reranked(resampled);
    for (std::size_t e = 0; e < estimators.size(); ++e) {
      const TingeConfig member = member_config(config, estimators[e]);
      const std::unique_ptr<PairStatistic> statistic =
          make_pair_statistic(member, reranked, &resampled);
      const MiEngine engine(*statistic, reranked);
      EngineStats run;
      const GeneNetwork network =
          engine.compute_network(thresholds[e], member, pool, &run);
      for (const Edge& edge : network.edges())
        ++votes[(static_cast<std::uint64_t>(edge.u) << 32) | edge.v];
      pairs_computed += n * (n - 1) / 2;
      tiles += run.tiles;
      if (b == 0) {
        if (e > 0) kernels += ',';
        kernels += run.kernel;
      }
    }
  }

  const double total_runs =
      static_cast<double>(B) * static_cast<double>(estimators.size());
  GeneNetwork consensus(ranked.gene_names());
  std::size_t kept = 0;
  for (const auto& [key, count] : votes) {
    const double frequency = static_cast<double>(count) / total_runs;
    if (frequency < config.consensus_min_frequency) continue;
    consensus.add_edge(static_cast<std::uint32_t>(key >> 32),
                       static_cast<std::uint32_t>(key & 0xffffffffu),
                       static_cast<float>(frequency));
    ++kept;
  }
  consensus.finalize();

  if (log)
    log(strprintf("consensus: %zu resamples x %zu estimators, %zu candidate "
                  "edges, %zu kept at frequency >= %.2f",
                  B, estimators.size(), votes.size(), kept,
                  config.consensus_min_frequency));
  if (stats != nullptr) {
    stats->resamples = B;
    stats->estimators = estimators.size();
    stats->thresholds = std::move(thresholds);
    stats->candidate_edges = votes.size();
    stats->kept_edges = kept;
    stats->pairs_computed = pairs_computed;
    stats->tiles = tiles;
    stats->kernel = std::move(kernels);
    stats->estimator = std::move(names);
    stats->seconds = watch.seconds();
  }
  return consensus;
}

}  // namespace tinge
