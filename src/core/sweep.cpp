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

SweepPlan SweepPlan::rectangular(std::size_t row_begin, std::size_t row_end,
                                 std::size_t col_begin, std::size_t col_end,
                                 std::size_t tile_size) {
  SweepPlan plan;
  append_rectangle_tiles(row_begin, row_end, col_begin, col_end, tile_size,
                         plan.tiles_);
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
  const int width = config.panel_width > 0
                        ? std::min(config.panel_width, kMaxPanelWidth)
                        : auto_panel_width(table);
  const MiKernel kernel = resolve_kernel(config.kernel, table.bins());
  return PanelPlan{kernel, width, kernel_name(kernel)};
}

LaneLedger::LaneLedger(const SweepPlan& plan, std::size_t n_lanes,
                       const std::vector<double>& seed_fractions,
                       const std::vector<char>* skip)
    : plan_(&plan), pending_(n_lanes), lane_tiles_(n_lanes, 0) {
  TINGE_EXPECTS(n_lanes >= 1);
  TINGE_EXPECTS(seed_fractions.empty() || seed_fractions.size() == n_lanes);
  TINGE_EXPECTS(skip == nullptr || skip->size() == plan.count());
  ready_.reserve(plan.count());
  for (std::size_t t = 0; t < plan.count(); ++t) {
    if (skip != nullptr && (*skip)[t]) continue;
    ready_.push_back(t);
  }
  // LPT order, exactly as LeaseLedger: largest tiles first so the end-game
  // tail is made of the cheapest tiles, ties by ascending index so the
  // order is deterministic.
  std::stable_sort(ready_.begin(), ready_.end(),
                   [&plan](std::size_t a, std::size_t b) {
                     const std::size_t pa = plan.tile(a).pair_count();
                     const std::size_t pb = plan.tile(b).pair_count();
                     if (pa != pb) return pa > pb;
                     return a < b;
                   });
  // Seed grants, issued upfront from the predicted split: each lane's
  // first batch is half its predicted share (the other half stays in the
  // ready queue to absorb prediction error). Granting before any context
  // runs — combined with steals never emptying a queue — guarantees every
  // lane at least one tile, so the measured partition and the calibration
  // always cover all lanes.
  const std::size_t total = ready_.size();
  for (std::size_t lane = 0; lane < n_lanes && head_ < total; ++lane) {
    double fraction = 1.0 / static_cast<double>(n_lanes);
    if (!seed_fractions.empty() && seed_fractions[lane] > 0.0 &&
        seed_fractions[lane] <= 1.0)
      fraction = seed_fractions[lane];
    const auto share = static_cast<std::size_t>(
        fraction * static_cast<double>(total) * 0.5);
    const std::size_t batch =
        std::min(std::max<std::size_t>(1, share), total - head_);
    for (std::size_t i = 0; i < batch; ++i)
      pending_[lane].push_back(ready_[head_++]);
    ++leases_;
  }
}

void LaneLedger::grant_locked(std::size_t lane) {
  const std::size_t remaining = ready_.size() - head_;
  if (remaining == 0) return;
  const std::size_t batch = std::min(
      std::max<std::size_t>(1, remaining / (2 * pending_.size())), remaining);
  for (std::size_t i = 0; i < batch; ++i)
    pending_[lane].push_back(ready_[head_++]);
  ++leases_;
}

void LaneLedger::steal_locked(std::size_t lane) {
  // Victim: the lane with the most granted-but-unclaimed tiles. Steal the
  // back half of its queue — under LPT order the back holds the smaller
  // tiles, the right size for end-game rebalancing — but never the front
  // tile, which stays reserved so a late-waking lane still computes (and
  // times) at least one tile.
  std::size_t victim = lane;
  std::size_t richest = 0;
  for (std::size_t l = 0; l < pending_.size(); ++l) {
    if (l == lane) continue;
    if (pending_[l].size() > richest) {
      richest = pending_[l].size();
      victim = l;
    }
  }
  if (victim == lane || richest <= 1) return;
  const std::size_t moved =
      std::min(std::max<std::size_t>(1, richest / 2), richest - 1);
  auto& from = pending_[victim];
  auto& to = pending_[lane];
  to.insert(to.end(), from.end() - static_cast<std::ptrdiff_t>(moved),
            from.end());
  from.erase(from.end() - static_cast<std::ptrdiff_t>(moved), from.end());
  steals_ += moved;
}

std::size_t LaneLedger::next(int lane) {
  TINGE_EXPECTS(lane >= 0 &&
                static_cast<std::size_t>(lane) < pending_.size());
  const auto l = static_cast<std::size_t>(lane);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (pending_[l].empty()) grant_locked(l);
  if (pending_[l].empty()) steal_locked(l);
  if (pending_[l].empty()) return npos;
  const std::size_t tile = pending_[l].front();
  pending_[l].erase(pending_[l].begin());
  ++claimed_;
  return tile;
}

void LaneLedger::complete(int lane, std::size_t tile) {
  TINGE_EXPECTS(lane >= 0 &&
                static_cast<std::size_t>(lane) < pending_.size());
  TINGE_EXPECTS(tile < plan_->count());
  const std::lock_guard<std::mutex> lock(mutex_);
  ++completed_;
  ++lane_tiles_[static_cast<std::size_t>(lane)];
}

std::size_t LaneLedger::tiles_total() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ready_.size();
}

std::size_t LaneLedger::tiles_granted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return head_;
}

std::size_t LaneLedger::tiles_claimed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return claimed_;
}

std::size_t LaneLedger::tiles_completed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

std::size_t LaneLedger::outstanding() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return claimed_ - completed_;
}

std::size_t LaneLedger::leases_granted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return leases_;
}

std::size_t LaneLedger::steals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return steals_;
}

std::uint64_t LaneLedger::lane_tiles(int lane) const {
  TINGE_EXPECTS(lane >= 0 &&
                static_cast<std::size_t>(lane) < pending_.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  return lane_tiles_[static_cast<std::size_t>(lane)];
}

std::size_t LaneLedger::lane_pending(int lane) const {
  TINGE_EXPECTS(lane >= 0 &&
                static_cast<std::size_t>(lane) < pending_.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_[static_cast<std::size_t>(lane)].size();
}

bool LaneLedger::drained() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (head_ < ready_.size()) return false;
  for (const auto& queue : pending_)
    if (!queue.empty()) return false;
  return true;
}

bool LaneLedger::done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completed_ == ready_.size();
}

NumaTilePlan make_numa_tile_plan(const SweepPlan& plan, std::size_t n_genes,
                                 int nodes, int threads,
                                 const par::NumaLayout* layout) {
  TINGE_EXPECTS(nodes >= 1);
  TINGE_EXPECTS(threads >= 1);
  NumaTilePlan numa;
  numa.nodes = nodes;
  // Adopt the cpu->node table only when it describes the same node space
  // the plan was built for; a synthetic plan (tests forcing N nodes on a
  // 1-node host) keeps the tid-block fallback.
  if (layout != nullptr && layout->nodes == nodes)
    numa.cpu_node = layout->cpu_node;
  numa.tile_node.resize(plan.count());
  for (std::size_t t = 0; t < plan.count(); ++t) {
    numa.tile_node[t] =
        numa_node_of_gene(plan.tile(t).row_begin, n_genes, nodes);
  }
  numa.thread_node.resize(static_cast<std::size_t>(threads));
  for (int tid = 0; tid < threads; ++tid) {
    numa.thread_node[static_cast<std::size_t>(tid)] = numa_node_of_gene(
        static_cast<std::size_t>(tid), static_cast<std::size_t>(threads),
        nodes);
  }
  return numa;
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
  bool due = progress_.interval <= 1 || completed == progress_.total ||
             completed - last_reported_.load(std::memory_order_relaxed) >=
                 progress_.interval;
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
                          std::size_t pairs_resumed, const LanePlan* lanes) {
  std::uint64_t pairs = 0, panels = 0, tiles_done = 0;
  std::uint64_t tiles_local = 0, tiles_stolen = 0;
  std::uint64_t tiles_timed = 0;
  double tile_seconds_max = 0.0;
  std::vector<float> tile_samples;
  for (const SweepCounters& c : per_thread) {
    pairs += c.pairs;
    panels += c.panels;
    tiles_done += c.tiles;
    tiles_local += c.tiles_local;
    tiles_stolen += c.tiles_stolen;
    tiles_timed += c.tiles_timed;
    if (c.tile_seconds_max > tile_seconds_max)
      tile_seconds_max = c.tile_seconds_max;
    tile_samples.insert(tile_samples.end(), c.tile_seconds.begin(),
                        c.tile_seconds.end());
  }
  std::sort(tile_samples.begin(), tile_samples.end());
  const double tile_p50 = percentile_sorted(tile_samples, 0.50);
  const double tile_p95 = percentile_sorted(tile_samples, 0.95);

  // Per-lane outcome: attribute each context's counters to its lane and
  // reconstruct the measured partition from live throughput — what each
  // lane's pair rate (pairs per busy second, scaled by its thread count)
  // says the split *should* have been. This is the number the manifest
  // reports next to the perf model's prediction.
  std::vector<EngineStats::LaneStats> lane_stats;
  if (lanes != nullptr && !lanes->lanes.empty()) {
    lane_stats.resize(lanes->lanes.size());
    for (std::size_t l = 0; l < lanes->lanes.size(); ++l) {
      const SweepLane& lane = lanes->lanes[l];
      EngineStats::LaneStats& out = lane_stats[l];
      out.label = lane.label;
      out.kernel = lane.panels.name;
      out.threads = lane.threads();
      out.predicted_fraction = lane.predicted_fraction;
      for (int tid = lane.begin_context;
           tid < lane.end_context &&
           static_cast<std::size_t>(tid) < per_thread.size();
           ++tid) {
        out.tiles += per_thread[tid].tiles;
        out.pairs += per_thread[tid].pairs;
        out.busy_seconds += per_thread[tid].tile_seconds_sum;
      }
      if (lanes->model != nullptr)
        out.observed_gflops = lanes->model->observed_gflops(static_cast<int>(l));
    }
    // busy_seconds sums per-context tile times, so pairs/busy is the lane's
    // *per-thread* rate; the lane's throughput is that times its width.
    const auto lane_rate = [](const EngineStats::LaneStats& out) {
      return out.busy_seconds > 0.0
                 ? static_cast<double>(out.pairs) / out.busy_seconds *
                       static_cast<double>(out.threads)
                 : 0.0;
    };
    double rate_total = 0.0;
    for (const EngineStats::LaneStats& out : lane_stats)
      rate_total += lane_rate(out);
    for (EngineStats::LaneStats& out : lane_stats)
      if (rate_total > 0.0) out.measured_fraction = lane_rate(out) / rate_total;
  }

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
  // Only the NUMA node-queue scheduler produces these; publishing zeros
  // from every plain pass would just bloat the registry dump.
  if (tiles_local + tiles_stolen > 0) {
    registry.counter("engine.numa.tiles_local").add(tiles_local);
    registry.counter("engine.numa.tiles_stolen").add(tiles_stolen);
  }
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
  if (!lane_stats.empty()) {
    registry.counter("engine.lane.leases").add(lanes->leases_granted);
    registry.counter("engine.lane.steals").add(lanes->steals);
    for (std::size_t l = 0; l < lane_stats.size(); ++l) {
      const EngineStats::LaneStats& out = lane_stats[l];
      registry.counter(strprintf("engine.lane.%zu.tiles", l)).add(out.tiles);
      registry.counter(strprintf("engine.lane.%zu.pairs", l)).add(out.pairs);
      registry.gauge(strprintf("engine.lane.%zu.threads", l))
          .set(out.threads);
      registry.gauge(strprintf("engine.lane.%zu.busy_seconds", l))
          .set(out.busy_seconds);
      registry.gauge(strprintf("engine.lane.%zu.predicted_fraction", l))
          .set(out.predicted_fraction);
      registry.gauge(strprintf("engine.lane.%zu.measured_fraction", l))
          .set(out.measured_fraction);
      registry.gauge(strprintf("engine.lane.%zu.gflops", l))
          .set(out.observed_gflops);
    }
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
    stats->lanes = std::move(lane_stats);
    stats->lane_leases = lanes != nullptr ? lanes->leases_granted : 0;
    stats->lane_steals = lanes != nullptr ? lanes->steals : 0;
  }
}

}  // namespace tinge
