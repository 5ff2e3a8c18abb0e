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
// the same triangular plan and panel kernel, differing only in scheduler
// options and sink. The executor owns the tile/panel loops, the teamed
// claiming protocol and the resume filter; the methods below just wire a
// plan + scheduler + sink together and finalize the stats.

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

// Dispatches run_sweep over the staged uint16 rows when available, the
// classic uint32 rows otherwise — the only place the engine's row-source
// choice is made. Staging is estimator-independent: the B-spline kernels
// index the same table rows either way and the generic fallback widens
// losslessly, so every statistic sees identical rank values.
template <typename Sink>
std::vector<SweepCounters> run_ranked_sweep(
    const SweepPlan& plan, const PairStatistic& estimator,
    const RankedMatrix& ranks, const StagedRankMatrix* staged,
    const PanelPlan& panels, par::ThreadPool* pool,
    const SweepOptions& options, Sink& sink) {
  if (staged != nullptr) {
    return run_sweep(
        plan, estimator, [staged](std::size_t g) { return staged->row(g); },
        panels, pool, options, sink);
  }
  return run_sweep(
      plan, estimator,
      [&ranks](std::size_t g) { return ranks.ranks(g).data(); }, panels, pool,
      options, sink);
}

// Parallel fill of the staged matrix: each pool context converts one
// contiguous block of gene rows, so a row's pages are first touched by a
// sweep context rather than all by the caller.
void fill_staged_first_touch(StagedRankMatrix& staged,
                             const RankedMatrix& ranks, par::ThreadPool& pool,
                             int threads) {
  const std::size_t n = ranks.n_genes();
  if (threads <= 1) {
    staged.fill_rows(ranks, 0, n);
    return;
  }
  const auto t = static_cast<std::size_t>(threads);
  pool.run(threads, [&](int tid, int /*width*/) {
    const auto c = static_cast<std::size_t>(tid);
    staged.fill_rows(ranks, n * c / t, n * (c + 1) / t);
  });
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

const StagedRankMatrix* MiEngine::staged_ranks(const TingeConfig& config,
                                               par::ThreadPool& pool,
                                               int threads) const {
  if (!config.stage_ranks || !StagedRankMatrix::can_stage(ranks_.n_samples()))
    return nullptr;
  std::call_once(staged_once_, [&] {
    auto staged = std::make_unique<StagedRankMatrix>(ranks_.n_genes(),
                                                     ranks_.n_samples());
    fill_staged_first_touch(*staged, ranks_, pool, threads);
    staged_ = std::move(staged);
  });
  return staged_.get();
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
  const StagedRankMatrix* staged =
      staged_ranks(config, pool, options.threads);

  EdgeSink sink(threshold, options.threads);
  const std::vector<SweepCounters> counters = run_ranked_sweep(
      plan, statistic_, ranks_, staged, panels, &pool, options, sink);

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

  const RunSignature signature{
      ranks_.n_genes(),
      ranks_.n_samples(),
      config.tile_size,
      statistic_.signature_bins(),
      statistic_.signature_order(),
      threshold,
      static_cast<std::uint32_t>(statistic_.kind())};
  const ResumeState resume =
      load_resume_state(checkpoint_path, signature, plan);
  options.skip = &resume.done;
  const StagedRankMatrix* staged =
      staged_ranks(config, pool, options.threads);

  // Rewrite the journal fresh (drops any torn tail), replaying prior tiles.
  CheckpointWriter writer(checkpoint_path, signature);
  for (const TileRecord& record : resume.records)
    writer.append_tile(record.tile_index, record.edges);

  const std::size_t interval =
      config.progress_tile_interval > 0
          ? config.progress_tile_interval
          : std::max<std::size_t>(1, plan.count() / 128);
  JournalSink sink(writer, threshold, options.threads,
                   {progress, interval, plan.count(), resume.records.size()});
  const std::vector<SweepCounters> counters = run_ranked_sweep(
      plan, statistic_, ranks_, staged, panels, &pool, options, sink);
  writer.close();

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
  const StagedRankMatrix* staged =
      staged_ranks(config, pool, options.threads);

  DenseSink sink(mi_matrix.data(), n);
  const std::vector<SweepCounters> counters = run_ranked_sweep(
      plan, statistic_, ranks_, staged, panels, &pool, options, sink);

  finalize_engine_pass(stats, panels, plan.count(), watch.seconds(), counters,
                       /*edges_emitted=*/0, /*tiles_resumed=*/0,
                       /*pairs_resumed=*/0);
  return mi_matrix;
}

}  // namespace tinge
