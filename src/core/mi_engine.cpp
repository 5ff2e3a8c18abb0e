#include "core/mi_engine.h"

#include <algorithm>
#include <cstdio>

#include "core/checkpoint.h"
#include "core/sweep.h"
#include "util/contracts.h"
#include "util/timer.h"

namespace tinge {

namespace {

// Every compute_* method is a configuration of run_sweep (core/sweep.h):
// the same triangular plan, panel kernel and rank rows (with_rank_rows),
// differing only in scheduler options and sink. The executor owns the
// tile/panel loops, the teamed claiming protocol and the resume filter; the
// methods below just wire a plan + scheduler + sink together and finalize
// the stats.

SweepOptions sweep_options(const TingeConfig& config,
                           const par::ThreadPool& pool) {
  SweepOptions options;
  options.threads = config.threads > 0
                        ? std::min(config.threads, pool.max_threads())
                        : pool.max_threads();
  options.schedule = config.schedule;
  options.team_size = config.team_size;
  return options;
}

std::uint64_t total_pairs_swept(const std::vector<SweepCounters>& counters) {
  std::uint64_t pairs = 0;
  for (const SweepCounters& c : counters) pairs += c.pairs;
  return pairs;
}

}  // namespace

EngineStats engine_stats_from_metrics(const obs::MetricsSnapshot& snapshot) {
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snapshot.counters.find(name);
    return it != snapshot.counters.end() ? it->second : 0;
  };
  EngineStats stats;
  stats.pairs_resumed = counter("engine.pairs_resumed");
  stats.pairs_computed = counter("engine.pairs_computed") + stats.pairs_resumed;
  stats.edges_emitted = counter("engine.edges_emitted");
  stats.tiles_resumed = counter("engine.tiles_resumed");
  stats.tiles = counter("engine.tiles_completed") + stats.tiles_resumed;
  stats.panels_swept = counter("engine.panels_swept");
  const auto gauge = [&](const char* name) -> double {
    const auto it = snapshot.gauges.find(name);
    return it != snapshot.gauges.end() ? it->second : 0.0;
  };
  stats.seconds = gauge("engine.seconds");
  stats.panel_width = static_cast<int>(gauge("engine.panel_width"));
  for (const auto& [name, value] : snapshot.counters) {
    std::size_t tid = 0;
    char what[16] = {0};
    if (std::sscanf(name.c_str(), "engine.thread.%zu.%15s", &tid, what) != 2)
      continue;
    auto& sink = std::string_view(what) == "tiles" ? stats.tiles_per_thread
                                                   : stats.pairs_per_thread;
    if (sink.size() <= tid) sink.resize(tid + 1, 0);
    sink[tid] += value;
  }
  return stats;
}

MiEngine::MiEngine(const PairStatistic& statistic, const RankedMatrix& ranks)
    : statistic_(statistic), ranks_(ranks) {
  TINGE_EXPECTS(statistic.n_samples() == ranks.n_samples());
  TINGE_EXPECTS(ranks.n_genes() >= 2);
}

GeneNetwork MiEngine::compute_network(double threshold,
                                      const TingeConfig& config,
                                      par::ThreadPool& pool,
                                      EngineStats* stats) const {
  config.validate();
  const Stopwatch watch;
  const SweepPlan plan =
      SweepPlan::triangular(0, ranks_.n_genes(), config.tile_size);
  const PanelPlan panels = statistic_.plan(config);
  const SweepOptions options = sweep_options(config, pool);

  EdgeSink sink(threshold, options.threads);
  const std::vector<SweepCounters> counters = with_rank_rows(
      ranks_, config, &pool, options.threads, [&](const auto& row) {
        return run_sweep(plan, statistic_, row, panels, &pool, options, sink);
      });

  GeneNetwork network(ranks_.gene_names());
  sink.drain_into(network);
  network.finalize();

  finalize_engine_pass(stats, panels, plan.count(), watch.seconds(), counters,
                       network.n_edges(), /*tiles_resumed=*/0,
                       /*pairs_resumed=*/0);
  TINGE_ENSURES(total_pairs_swept(counters) == plan.total_pairs());
  return network;
}

GeneNetwork MiEngine::compute_network_checkpointed(
    double threshold, const TingeConfig& config, par::ThreadPool& pool,
    const std::string& checkpoint_path, EngineStats* stats,
    const std::function<void(std::size_t, std::size_t)>& progress,
    bool keep_checkpoint) const {
  config.validate();
  const Stopwatch watch;
  const SweepPlan plan =
      SweepPlan::triangular(0, ranks_.n_genes(), config.tile_size);
  const PanelPlan panels = statistic_.plan(config);
  SweepOptions options = sweep_options(config, pool);

  SweepJournal journal = open_sweep_journal(
      checkpoint_path, statistic_, ranks_, config.tile_size, threshold, plan);
  const ResumeState& resume = journal.resume;
  options.skip = &resume.done;
  JournalSink sink(*journal.writer, threshold, options.threads,
                   {progress, plan.count(), resume.records.size()});
  const std::vector<SweepCounters> counters = with_rank_rows(
      ranks_, config, &pool, options.threads, [&](const auto& row) {
        return run_sweep(plan, statistic_, row, panels, &pool, options, sink);
      });
  journal.writer->close();

  // All tiles journaled: assemble the network from the (now complete) file
  // so the result is exactly what a resume would produce.
  const CheckpointState final_state = load_checkpoint(checkpoint_path);
  TINGE_ENSURES(final_state.completed_tiles().size() == plan.count());
  GeneNetwork network(ranks_.gene_names());
  network.add_edges(final_state.all_edges());
  network.finalize();
  if (!keep_checkpoint) std::remove(checkpoint_path.c_str());

  finalize_engine_pass(stats, panels, plan.count(), watch.seconds(), counters,
                       network.n_edges(), resume.records.size(),
                       resume.pairs_resumed);
  return network;
}

std::vector<float> MiEngine::compute_dense(const TingeConfig& config,
                                           par::ThreadPool& pool,
                                           EngineStats* stats) const {
  config.validate();
  const Stopwatch watch;
  const std::size_t n = ranks_.n_genes();
  TINGE_EXPECTS(n <= 1u << 15);  // dense mode is for study-sized problems
  std::vector<float> mi_matrix(n * n, 0.0f);
  const SweepPlan plan = SweepPlan::triangular(0, n, config.tile_size);
  const PanelPlan panels = statistic_.plan(config);
  const SweepOptions options = sweep_options(config, pool);

  DenseSink sink(mi_matrix.data(), n);
  const std::vector<SweepCounters> counters = with_rank_rows(
      ranks_, config, &pool, options.threads, [&](const auto& row) {
        return run_sweep(plan, statistic_, row, panels, &pool, options, sink);
      });

  finalize_engine_pass(stats, panels, plan.count(), watch.seconds(), counters,
                       /*edges_emitted=*/0, /*tiles_resumed=*/0,
                       /*pairs_resumed=*/0);
  return mi_matrix;
}

}  // namespace tinge
