#include "core/dataset_session.h"

#include <optional>
#include <utility>

#include "core/null_distribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/topology.h"
#include "preprocess/filter.h"
#include "util/contracts.h"
#include "util/str.h"

namespace tinge {

namespace {

// A stage span that exists only when the caller passed a trace.
class OptionalSpan {
 public:
  OptionalSpan(obs::Trace* trace, const char* name) {
    if (trace != nullptr) span_.emplace(*trace, name);
  }

 private:
  std::optional<obs::TraceSpan> span_;
};

}  // namespace

int pipeline_threads(const TingeConfig& config) {
  return config.threads > 0 ? config.threads
                            : par::detect_host_topology().total_threads();
}

bool reads_values(const TingeConfig& config) {
  return config.estimator == EstimatorKind::Pearson ||
         config.consensus_resamples > 0;
}

PreprocessedData preprocess_expression(ExpressionMatrix&& expression,
                                       const TingeConfig& config,
                                       par::ThreadPool* pool,
                                       obs::Trace* trace,
                                       const StageLog& log, KeepValues keep) {
  PreprocessedData data;
  data.genes_in = expression.n_genes();
  data.working = std::move(expression);
  const OptionalSpan span(trace, "preprocess");
  std::size_t dropped_low_variance = 0, dropped_missing = 0;
  {
    const OptionalSpan impute_span(trace, "impute");
    data.imputed_cells = impute_missing_with_median(data.working);
  }
  {
    const OptionalSpan filter_span(trace, "filter");
    FilterResult filtered =
        filter_genes(std::move(data.working), config.filter);
    data.genes_used = filtered.matrix.n_genes();
    dropped_low_variance = filtered.dropped_low_variance;
    dropped_missing = filtered.dropped_missing;
    TINGE_EXPECTS(filtered.matrix.n_genes() >= 2);
    data.working = std::move(filtered.matrix);
  }
  {
    const OptionalSpan rank_span(trace, "rank");
    if (keep == KeepValues::Always || reads_values(config))
      data.ranked = pool != nullptr
                        ? RankedMatrix(data.working, *pool, config.threads)
                        : RankedMatrix(data.working);
    else
      data.ranked =
          pool != nullptr
              ? RankedMatrix(std::move(data.working), *pool, config.threads)
              : RankedMatrix(std::move(data.working));
  }
  if (log)
    log(strprintf("preprocess: %zu/%zu genes kept (%zu low-variance, "
                  "%zu missing dropped), %zu cells imputed",
                  data.genes_used, data.genes_in, dropped_low_variance,
                  dropped_missing, data.imputed_cells));
  return data;
}

DatasetSession::DatasetSession(ExpressionMatrix&& expression,
                               const TingeConfig& config,
                               par::ThreadPool& pool, obs::Trace* trace,
                               StageLog log, KeepValues keep)
    : config_(config), pool_(pool), trace_(trace), log_(std::move(log)) {
  config_.validate();
  data_ = preprocess_expression(std::move(expression), config_, &pool_,
                                trace_, log_, keep);
  const std::size_t m = data_.ranked.n_samples();
  {
    const OptionalSpan span(trace_, "weight_table");
    statistic_ = make_pair_statistic(config_, data_.ranked, &data_.working);
  }
  if (log_) {
    if (config_.estimator == EstimatorKind::Bspline)
      log_(strprintf("weight table: b=%d k=%d m=%zu, H_marginal=%.4f nats",
                     config_.bins, config_.spline_order, m,
                     statistic_->marginal_entropy()));
    else
      log_(strprintf("estimator: %s, m=%zu", statistic_->name(), m));
  }
  {
    const OptionalSpan span(trace_, "null");
    null_ = std::make_shared<const EmpiricalDistribution>(
        build_null_distribution(*statistic_, config_.permutations,
                                config_.seed, pool_, config_.threads));
  }
  {
    const OptionalSpan span(trace_, "threshold");
    threshold_ = threshold_for_alpha(*null_, config_.alpha);
    obs::MetricsRegistry::global().gauge("null.threshold").set(threshold_);
    if (log_)
      log_(strprintf("null: q=%zu draws, I_alpha(%.2e)=%.5f nats",
                     config_.permutations, config_.alpha, threshold_));
  }
}

SessionNetwork DatasetSession::build_network(const Progress& progress,
                                             bool keep_checkpoint) const {
  SessionNetwork built;
  // Only the checkpointed sweep has a per-tile callback; the other paths
  // report their endpoints so a caller still sees the stage start and end.
  const bool per_tile = config_.consensus_resamples == 0 &&
                        !config_.checkpoint_path.empty();
  if (progress && !per_tile) progress(0, 1);
  {
    const OptionalSpan span(trace_, "mi_sweep");
    if (config_.consensus_resamples > 0) {
      // B bootstrap resamples x the selected estimators, every member
      // sweep through the same engine. The null and threshold above stay
      // reported (they are the primary estimator's full-data values); the
      // per-member thresholds live in built.consensus.thresholds.
      built.network = build_consensus_network(
          data_.working, data_.ranked, config_, pool_, log_, &built.consensus);
      if (log_)
        log_(strprintf(
            "consensus pass: %zu members, %zu candidate edges, %zu kept",
            built.consensus.resamples * built.consensus.estimators,
            built.consensus.candidate_edges, built.consensus.kept_edges));
    } else {
      const MiEngine engine(*statistic_, data_.ranked);
      if (per_tile)
        built.network = engine.compute_network_checkpointed(
            threshold_, config_, pool_, config_.checkpoint_path,
            &built.engine, progress, keep_checkpoint);
      else
        built.network = engine.compute_network(threshold_, config_, pool_,
                                               &built.engine);
      const EngineStats& stats = built.engine;
      if (log_)
        log_(strprintf(
            "mi pass: kernel=%s panel=%d, %zu pairs, %zu significant "
            "edges (%.2f%%)",
            stats.kernel, stats.panel_width, stats.pairs_computed,
            built.network.n_edges(),
            stats.pairs_computed > 0
                ? 100.0 * static_cast<double>(built.network.n_edges()) /
                      static_cast<double>(stats.pairs_computed)
                : 0.0));
    }
  }
  if (progress && !per_tile) progress(1, 1);
  if (config_.apply_dpi) {
    const OptionalSpan span(trace_, "dpi");
    built.network = apply_dpi(built.network, config_.dpi_tolerance,
                              &built.dpi, pool_, config_.threads);
    if (log_)
      log_(strprintf("dpi: %zu triangles, %zu edges removed, %zu edges "
                     "remain",
                     built.dpi.triangles_examined, built.dpi.edges_removed,
                     built.network.n_edges()));
  }
  return built;
}

}  // namespace tinge
