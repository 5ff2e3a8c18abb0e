#include "core/network_builder.h"

#include <utility>

#include "core/dataset_session.h"
#include "parallel/thread_pool.h"

namespace tinge {

NetworkBuilder::NetworkBuilder(TingeConfig config) : config_(config) {
  config_.validate();
}

BuildResult NetworkBuilder::build(const ExpressionMatrix& expression) const {
  return run(expression.clone());
}

BuildResult NetworkBuilder::build(ExpressionMatrix&& expression) const {
  return run(std::move(expression));
}

BuildResult NetworkBuilder::run(ExpressionMatrix working) const {
  BuildResult result;
  result.trace = std::make_shared<obs::Trace>();
  obs::Trace& trace = *result.trace;
  const obs::MetricsSnapshot metrics_before =
      obs::MetricsRegistry::global().snapshot();

  par::ThreadPool pool(pipeline_threads(config_));
  {
    const DatasetSession session(std::move(working), config_, pool, &trace,
                                 logger_);
    SessionNetwork built = session.build_network();
    result.network = std::move(built.network);
    result.engine = std::move(built.engine);
    result.consensus = std::move(built.consensus);
    result.dpi_stats = built.dpi;
    result.null = session.null();
    result.threshold = session.threshold();
    result.marginal_entropy = session.statistic().marginal_entropy();
    result.genes_in = session.genes_in();
    result.genes_used = session.genes_used();
    result.samples = session.ranked().n_samples();
    result.imputed_cells = session.imputed_cells();
  }

  result.pool_busy_seconds = pool.busy_seconds_all();
  result.pool_lifetime_seconds = pool.lifetime_seconds();
  trace.finish();
  result.metrics = obs::snapshot_delta(metrics_before,
                                       obs::MetricsRegistry::global().snapshot());

  // Flat StageTimes view over the stage tree, for the benches and tests
  // that predate the trace.
  const obs::SpanNode& root = trace.root();
  result.times.preprocess = obs::span_seconds(root, "preprocess");
  result.times.weight_table = obs::span_seconds(root, "weight_table");
  result.times.null_build =
      obs::span_seconds(root, "null") + obs::span_seconds(root, "threshold");
  result.times.mi_pass = obs::span_seconds(root, "mi_sweep");
  result.times.dpi = obs::span_seconds(root, "dpi");
  result.times.total = root.seconds;
  return result;
}

}  // namespace tinge
