#include "core/sweep.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "core/mi_engine.h"
#include "data/tsv_io.h"
#include "obs/metrics.h"

namespace tinge {

SweepPlan SweepPlan::triangular(std::size_t gene_begin, std::size_t gene_end,
                                std::size_t tile_size) {
  SweepPlan plan;
  append_triangle_tiles(gene_begin, gene_end, tile_size, plan.tiles_);
  for (const Tile& tile : plan.tiles_) plan.total_pairs_ += tile.pair_count();
  return plan;
}

SweepPlan SweepPlan::from_tiles(std::vector<Tile> tiles) {
  SweepPlan plan;
  plan.tiles_ = std::move(tiles);
  for (const Tile& tile : plan.tiles_) plan.total_pairs_ += tile.pair_count();
  return plan;
}

PanelPlan plan_panels(const BsplineMi& estimator, const TingeConfig& config) {
  const WeightTable& table = estimator.table();
  const MiKernel kernel = resolve_kernel(config.kernel, table.bins());
  return PanelPlan{kernel, auto_panel_width(table), kernel_name(kernel)};
}

void JournalSink::tile_end(int tid, std::size_t t, int team_width) {
  if (team_width <= 1) {
    writer_.append_tile(t, buffers_.local(tid));
  } else {
    // Gather the members' shares into one record. Members hold panels
    // round-robin, so the record is not row-major — the journal does not
    // promise an intra-tile order, and the network finalizer sorts.
    std::vector<Edge> merged;
    for (int member = 0; member < team_width; ++member) {
      const auto& buffer = buffers_.local(tid + member);
      merged.insert(merged.end(), buffer.begin(), buffer.end());
    }
    writer_.append_tile(t, merged);
  }

  const std::size_t completed =
      tiles_done_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // The throttle runs with or without a progress callback: it is also the
  // journal's fsync cadence, and durability must not depend on whether
  // anyone asked for progress lines.
  constexpr std::int64_t kProgressMinMicros = 100'000;  // ~100 ms
  const std::size_t interval = std::max<std::size_t>(1, progress_.total / 128);
  bool due = interval == 1 || completed == progress_.total ||
             completed - last_reported_.load(std::memory_order_relaxed) >=
                 interval;
  if (!due) {
    const auto now_us = static_cast<std::int64_t>(watch_.seconds() * 1e6);
    due = now_us - last_report_us_.load(std::memory_order_relaxed) >=
          kProgressMinMicros;
  }
  if (due) {
    const std::lock_guard<std::mutex> lock(progress_mutex_);
    // Durability rides the progress throttle: fsync the journal before
    // reporting, so every tile a progress line ever claimed as done
    // survives a machine crash — without paying an fsync per tile.
    writer_.sync();
    last_reported_.store(completed, std::memory_order_relaxed);
    last_report_us_.store(static_cast<std::int64_t>(watch_.seconds() * 1e6),
                          std::memory_order_relaxed);
    if (progress_.callback) progress_.callback(completed, progress_.total);
  }
}

namespace {

ResumeState load_resume_state(const std::string& path,
                              const RunSignature& signature,
                              const SweepPlan& plan) {
  ResumeState resume;
  resume.done.assign(plan.count(), 0);
  CheckpointState state;
  try {
    state = load_checkpoint(path);
  } catch (const IoError&) {
    return resume;  // absent/corrupt/old-format: plain fresh start
  }
  if (!(state.signature == signature)) {
    // A journal that matches in every dimension *except* the estimator is
    // not a stale leftover — it is the same run asked to continue under a
    // different statistic, whose scores are incomparable with the
    // journaled edges. Fail loudly instead of quietly starting over.
    RunSignature rebased = state.signature;
    rebased.estimator = signature.estimator;
    if (rebased == signature) {
      throw ContractViolation(strprintf(
          "checkpoint %s was journaled with estimator '%s' but this run "
          "uses '%s'; remove the journal or rerun with --estimator=%s",
          path.c_str(),
          estimator_name(static_cast<EstimatorKind>(state.signature.estimator)),
          estimator_name(static_cast<EstimatorKind>(signature.estimator)),
          estimator_name(
              static_cast<EstimatorKind>(state.signature.estimator))));
    }
    return resume;
  }
  // Likewise a B-spline journal of this very run whose values came from
  // another float accumulation order (every version 1 and 2 journal):
  // resuming it would mix two arithmetics in one network.
  const auto bspline = static_cast<std::uint32_t>(EstimatorKind::Bspline);
  if (signature.estimator == bspline &&
      state.accumulation != kAccumulationOrder) {
    throw ContractViolation(strprintf(
        "checkpoint %s is a version %u journal of B-spline values in "
        "accumulation order %u; this build writes version %u journals in "
        "order %u, whose values differ in the last bits. Remove the journal "
        "and rerun",
        path.c_str(), state.version, state.accumulation, kCheckpointVersion,
        kAccumulationOrder));
  }
  for (TileRecord& record : state.records) {
    const auto index = static_cast<std::size_t>(record.tile_index);
    if (index < plan.count() && !resume.done[index]) {
      resume.done[index] = 1;
      resume.pairs_resumed += plan.tile(index).pair_count();
      resume.records.push_back(std::move(record));
    }
  }
  return resume;
}

}  // namespace

SweepJournal open_sweep_journal(const std::string& path,
                                const PairStatistic& statistic,
                                const RankedMatrix& ranks,
                                std::size_t tile_size, double threshold,
                                const SweepPlan& plan) {
  const RunSignature signature{ranks.n_genes(),
                               ranks.n_samples(),
                               tile_size,
                               statistic.signature_bins(),
                               statistic.signature_order(),
                               threshold,
                               static_cast<std::uint32_t>(statistic.kind())};
  SweepJournal journal;
  // Load before constructing the writer: the writer truncates.
  journal.resume = load_resume_state(path, signature, plan);
  journal.writer = std::make_unique<CheckpointWriter>(path, signature);
  for (const TileRecord& record : journal.resume.records)
    journal.writer->append_tile(record.tile_index, record.edges);
  return journal;
}

namespace {

/// Nearest-rank percentile over a sorted sample vector.
double percentile_sorted(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

void finalize_engine_pass(EngineStats* stats, const PanelPlan& plan,
                          std::size_t plan_tiles, double seconds,
                          std::span<const SweepCounters> per_thread,
                          std::size_t edges_emitted, std::size_t tiles_resumed,
                          std::size_t pairs_resumed) {
  std::uint64_t pairs = 0, panels = 0, tiles_done = 0;
  std::uint64_t tiles_timed = 0;
  double tile_seconds_max = 0.0;
  std::vector<float> tile_samples;
  for (const SweepCounters& c : per_thread) {
    pairs += c.pairs;
    panels += c.panels;
    tiles_done += c.tiles;
    tiles_timed += c.tiles_timed;
    if (c.tile_seconds_max > tile_seconds_max)
      tile_seconds_max = c.tile_seconds_max;
    tile_samples.insert(tile_samples.end(), c.tile_seconds.begin(),
                        c.tile_seconds.end());
  }
  std::sort(tile_samples.begin(), tile_samples.end());
  const double tile_p50 = percentile_sorted(tile_samples, 0.50);
  const double tile_p95 = percentile_sorted(tile_samples, 0.95);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("engine.runs").add(1);
  registry.counter("engine.pairs_computed").add(pairs);
  registry.counter("engine.pairs_resumed").add(pairs_resumed);
  registry.counter("engine.edges_emitted").add(edges_emitted);
  registry.counter("engine.tiles_completed").add(tiles_done);
  registry.counter("engine.tiles_resumed").add(tiles_resumed);
  registry.counter("engine.panels_swept").add(panels);
  registry.gauge("engine.panel_width").set(plan.width);
  // Per-estimator attribution: which statistic swept how many pairs (the
  // consensus ensemble runs several per process).
  registry.counter(strprintf("engine.estimator.%s.pairs", plan.stat_name))
      .add(pairs);
  registry.gauge("engine.seconds").set(seconds);
  registry.histogram("engine.pass_seconds").record(seconds);
  if (tiles_timed > 0) {
    registry.counter("engine.tiles_timed").add(tiles_timed);
    registry.gauge("engine.tile_seconds_p50").set(tile_p50);
    registry.gauge("engine.tile_seconds_p95").set(tile_p95);
    registry.gauge("engine.tile_seconds_max").set(tile_seconds_max);
  }
  for (std::size_t tid = 0; tid < per_thread.size(); ++tid) {
    registry.counter(strprintf("engine.thread.%zu.tiles", tid))
        .add(per_thread[tid].tiles);
    registry.counter(strprintf("engine.thread.%zu.pairs", tid))
        .add(per_thread[tid].pairs);
  }

  if (stats != nullptr) {
    stats->pairs_computed = pairs + pairs_resumed;
    stats->pairs_resumed = pairs_resumed;
    stats->edges_emitted = edges_emitted;
    stats->tiles = plan_tiles;
    stats->tiles_resumed = tiles_resumed;
    stats->panels_swept = panels;
    stats->seconds = seconds;
    stats->kernel = plan.name;
    stats->estimator = plan.stat_name;
    stats->panel_width = plan.width;
    stats->tiles_per_thread.assign(per_thread.size(), 0);
    stats->pairs_per_thread.assign(per_thread.size(), 0);
    for (std::size_t tid = 0; tid < per_thread.size(); ++tid) {
      stats->tiles_per_thread[tid] = per_thread[tid].tiles;
      stats->pairs_per_thread[tid] = per_thread[tid].pairs;
    }
    stats->tiles_timed = tiles_timed;
    stats->tile_seconds_p50 = tile_p50;
    stats->tile_seconds_p95 = tile_p95;
    stats->tile_seconds_max = tile_seconds_max;
  }
}

}  // namespace tinge
