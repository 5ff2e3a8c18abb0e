// The unified pair-sweep executor (DESIGN.md §6d).
//
// Every all-pairs sweep in the system — the engine's plain, checkpointed,
// teamed and dense passes, the cluster lease sweep's leased tiles and the
// serve planner's tile batches — is the same algorithm: walk a set of tiles,
// sweep each tile's rows as row-reuse panels through a pair statistic, hand
// each pair's score to a consumer. run_sweep() is that algorithm written
// once, parameterized by four orthogonal policies:
//
//   * a TILE PLAN (SweepPlan): which tiles — the upper triangle of the
//     gene range, or an explicit list of its tiles (the serve planner);
//   * a PAIR STATISTIC (core/pair_statistic.h): what is computed per pair —
//     B-spline MI through the SIMD panel kernels (the paper's path), or any
//     other estimator through the generic pair-loop fallback;
//   * a SCHEDULER (SweepOptions): dynamic per-thread tile claiming via
//     parallel_for, or teamed claiming where `team_size` threads share one
//     tile's panels round-robin; plus an optional per-tile resume filter
//     backed by the checkpoint journal;
//   * a SINK: what happens to each pair — thresholded edge buffers
//     (EdgeSink), a dense matrix (DenseSink), or thresholded edges
//     journaled per tile with throttled progress (JournalSink).
//
// B-spline pair values are bit-identical across every configuration: panel
// results equal per-pair joint_entropy with the matching kernel
// (test-enforced), so regrouping tiles or splitting panels across a team —
// or routing through the PairStatistic interface — cannot change bits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/checkpoint.h"
#include "core/config.h"
#include "core/pair_statistic.h"
#include "core/tile.h"
#include "graph/network.h"
#include "mi/bspline_mi.h"
#include "parallel/barrier.h"
#include "parallel/parallel_for.h"
#include "parallel/reduction.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"
#include "util/aligned.h"
#include "util/contracts.h"
#include "util/str.h"
#include "util/timer.h"

namespace tinge {

struct EngineStats;

// --- tile plan --------------------------------------------------------------

/// An ordered set of tiles plus the pair total they cover. The enumeration
/// order is the tile index space the scheduler and the checkpoint journal
/// agree on (triangular(0, n, T) reproduces TileSet(n, T) exactly, so
/// existing journals stay valid).
class SweepPlan {
 public:
  /// Upper triangle of [gene_begin, gene_end), T x T blocks.
  static SweepPlan triangular(std::size_t gene_begin, std::size_t gene_end,
                              std::size_t tile_size);

  /// An explicit tile list, in the given order. The query planner uses
  /// this to sweep just the tiles a pair batch touches — each tile carved
  /// with the same boundaries triangular() would produce, so the per-pair
  /// panel grouping (and therefore every bit of every MI value) matches
  /// the batch pass that swept the whole triangle.
  static SweepPlan from_tiles(std::vector<Tile> tiles);

  std::size_t count() const { return tiles_.size(); }
  const Tile& tile(std::size_t index) const {
    TINGE_EXPECTS(index < tiles_.size());
    return tiles_[index];
  }
  /// Sum of pair_count over all tiles.
  std::size_t total_pairs() const { return total_pairs_; }

 private:
  std::vector<Tile> tiles_;
  std::size_t total_pairs_ = 0;
};

// --- kernel plan ------------------------------------------------------------
//
// PanelPlan itself lives in core/pair_statistic.h (each statistic resolves
// its own plan); the B-spline resolution stays here.

/// Resolves kernel and panel width for a B-spline pass (statically: Auto is
/// the vector kernel wherever it can run; the width is always
/// auto_panel_width, 8 at every b <= 80), and names the kernel that
/// actually runs for the stats. This is what BsplineStat::plan delegates
/// to.
PanelPlan plan_panels(const BsplineMi& estimator, const TingeConfig& config);

// --- rank rows --------------------------------------------------------------

/// Returns sweep(row), where row(g) is gene g's uint16 staged row when
/// config.stage_ranks and every rank fits uint16 (m <= 65536), and its
/// uint32 row otherwise (both select the same weight-table rows). The
/// engine's passes and the lease sweep all decide the width here. The
/// staged copy lives for this call; each of `threads` pool contexts
/// narrows one contiguous block of gene rows, so a sweep context first
/// touches its pages (the caller narrows them all when `pool` is null or
/// threads <= 1).
template <typename Sweep>
auto with_rank_rows(const RankedMatrix& ranks, const TingeConfig& config,
                    par::ThreadPool* pool, int threads, Sweep&& sweep) {
  if (!config.stage_ranks || !StagedRankMatrix::can_stage(ranks.n_samples())) {
    const auto row = [&ranks](std::size_t g) { return ranks.ranks(g).data(); };
    return sweep(row);
  }
  StagedRankMatrix staged(ranks.n_genes(), ranks.n_samples());
  const std::size_t n = ranks.n_genes();
  if (pool == nullptr || threads <= 1) {
    staged.fill_rows(ranks, 0, n);
  } else {
    const auto t = static_cast<std::size_t>(threads);
    pool->run(threads, [&](int tid, int /*width*/) {
      const auto c = static_cast<std::size_t>(tid);
      staged.fill_rows(ranks, n * c / t, n * (c + 1) / t);
    });
  }
  const auto row = [&staged](std::size_t g) { return staged.row(g); };
  return sweep(row);
}

// --- scheduler --------------------------------------------------------------

/// Thrown by the lease sweep (cluster/lease_mi.h) when its cancel flag
/// flips mid-pass. Tiles journaled before the abort stay valid — a
/// checkpointed pass resumes from them — so cancellation loses at most the
/// tiles in flight.
class SweepAborted : public std::runtime_error {
 public:
  SweepAborted()
      : std::runtime_error("sweep aborted: cancellation requested") {}
};

/// How run_sweep distributes tiles over contexts.
struct SweepOptions {
  /// Pool contexts participating. 1 runs inline on the caller (the pool may
  /// then be null).
  int threads = 1;
  par::Schedule schedule = par::Schedule::Dynamic;
  /// 1 = flat dynamic claiming (one tile per thread). > 1 = teamed: each
  /// group of team_size consecutive contexts claims one tile together and
  /// splits its panels round-robin (the Phi's threads-of-a-core mode).
  /// Must divide `threads`.
  int team_size = 1;
  /// Optional resume filter, one entry per plan tile; non-zero entries are
  /// skipped (already journaled by a previous attempt).
  const std::vector<char>* skip = nullptr;
};

/// Per-context tally of one pass. Plain counters on per-thread slots: the
/// observability layer costs one integer bump per tile/panel/pair in
/// thread-private cache lines, nothing shared.
struct SweepCounters {
  std::uint64_t tiles = 0;   ///< tiles this context completed (team leader)
  std::uint64_t pairs = 0;   ///< pairs this context computed
  std::uint64_t panels = 0;  ///< panel sweeps this context ran
  /// Per-tile wall-time sampling (both schedulers; teamed passes time on
  /// the leader, claim to post-merge). The raw samples give the pass-level
  /// p50/p95 straggler diagnosis.
  std::uint64_t tiles_timed = 0;
  double tile_seconds_max = 0.0;
  std::vector<float> tile_seconds;  ///< one sample per timed tile
};

// --- sinks ------------------------------------------------------------------
//
// A Sink receives the executor's lifecycle calls:
//   tile_begin(tid, t)          every participating context, before its
//                               share of tile t (skipped tiles excluded);
//   pair(tid, i, j, mi)         once per pair, from the computing context;
//   tile_end(leader_tid, t, w)  once per tile after all w team members'
//                               contributions are complete and visible
//                               (w == 1 outside teamed mode). The members'
//                               slots are leader_tid .. leader_tid + w - 1.

/// Thresholded edge emitter: pairs at or above `threshold` accumulate into
/// per-context buffers, drained in tid order after the pass.
class EdgeSink {
 public:
  EdgeSink(double threshold, int contexts)
      : threshold_(static_cast<float>(threshold)), buffers_(contexts) {}

  void tile_begin(int /*tid*/, std::size_t /*t*/) {}
  void pair(int tid, std::size_t i, std::size_t j, double mi) {
    const float mi_f = static_cast<float>(mi);
    if (mi_f >= threshold_) {
      buffers_.local(tid).push_back(Edge{static_cast<std::uint32_t>(i),
                                         static_cast<std::uint32_t>(j), mi_f});
    }
  }
  void tile_end(int /*tid*/, std::size_t /*t*/, int /*team_width*/) {}

  /// Moves every context's surviving edges into `network` in tid order.
  /// A lone non-empty buffer is adopted whole; otherwise the network
  /// reserves the total once and each buffer is freed as soon as it is
  /// copied, so at most one context's edges ever exist twice.
  void drain_into(GeneNetwork& network) {
    std::size_t total = 0;
    int filled = 0;
    for (int tid = 0; tid < buffers_.size(); ++tid) {
      total += buffers_.local(tid).size();
      filled += buffers_.local(tid).empty() ? 0 : 1;
    }
    if (filled > 1) network.reserve_edges(network.n_edges() + total);
    for (int tid = 0; tid < buffers_.size(); ++tid)
      if (!buffers_.local(tid).empty())
        network.add_edges(std::move(buffers_.local(tid)));
  }

  /// All surviving edges concatenated in tid order, leaving the buffers
  /// empty (the lease sweep ships one tile's edges at a time).
  std::vector<Edge> take_all() {
    std::vector<Edge> all;
    for (int tid = 0; tid < buffers_.size(); ++tid) {
      auto& buffer = buffers_.local(tid);
      all.insert(all.end(), buffer.begin(), buffer.end());
      buffer.clear();
    }
    return all;
  }

 private:
  float threshold_;
  par::PerThread<std::vector<Edge>> buffers_;
};

/// Dense matrix writer: every pair lands in both triangles of the row-major
/// n x n matrix. No thresholding, no edges.
class DenseSink {
 public:
  DenseSink(float* matrix, std::size_t n) : matrix_(matrix), n_(n) {}

  void tile_begin(int /*tid*/, std::size_t /*t*/) {}
  void pair(int /*tid*/, std::size_t i, std::size_t j, double mi) {
    const float mi_f = static_cast<float>(mi);
    matrix_[i * n_ + j] = mi_f;
    matrix_[j * n_ + i] = mi_f;
  }
  void tile_end(int /*tid*/, std::size_t /*t*/, int /*team_width*/) {}

 private:
  float* matrix_;
  std::size_t n_;
};

/// Checkpointing edge emitter: thresholded edges buffer per context during
/// a tile, tile_end journals the whole tile and runs the throttled progress
/// callback. Safe under both schedulers — tile_end fires on the team leader
/// only after every member's buffer is complete and visible.
class JournalSink {
 public:
  struct Progress {
    /// progress(done, total), serialized across workers; an exception
    /// thrown from it aborts the pass (how failure injection tests resume).
    std::function<void(std::size_t, std::size_t)> callback;
    std::size_t total = 0;         ///< plan tile count
    std::size_t already_done = 0;  ///< tiles replayed from the journal
  };

  JournalSink(CheckpointWriter& writer, double threshold, int contexts,
              Progress progress)
      : writer_(writer),
        threshold_(static_cast<float>(threshold)),
        buffers_(contexts),
        progress_(std::move(progress)),
        last_reported_(progress_.already_done),
        tiles_done_(progress_.already_done) {}

  void tile_begin(int tid, std::size_t /*t*/) { buffers_.local(tid).clear(); }
  void pair(int tid, std::size_t i, std::size_t j, double mi) {
    const float mi_f = static_cast<float>(mi);
    if (mi_f >= threshold_) {
      buffers_.local(tid).push_back(Edge{static_cast<std::uint32_t>(i),
                                         static_cast<std::uint32_t>(j), mi_f});
    }
  }
  void tile_end(int tid, std::size_t t, int team_width);

 private:
  CheckpointWriter& writer_;
  float threshold_;
  par::PerThread<std::vector<Edge>> buffers_;

  // Progress throttle: the callback serializes workers behind a mutex, so
  // at whole-genome tile counts it is invoked at most once per
  // max(1, total / 128) tiles or ~100 ms (whichever comes first); the
  // final tile always reports, and a plan below 256 tiles reports every
  // tile.
  Progress progress_;
  Stopwatch watch_;
  std::mutex progress_mutex_;
  std::atomic<std::size_t> last_reported_;
  std::atomic<std::int64_t> last_report_us_{0};
  std::atomic<std::size_t> tiles_done_;
};

// --- resume state -----------------------------------------------------------

/// Tiles already journaled by a previous attempt, mapped onto a plan.
struct ResumeState {
  std::vector<char> done;          ///< per plan tile; 1 = replayed
  std::vector<TileRecord> records; ///< the replayed records (first wins)
  std::size_t pairs_resumed = 0;   ///< pair_count over the replayed tiles
};

/// A sweep's checkpoint journal, open for appending: the tiles a previous
/// attempt journaled, and a writer that has already replayed them.
struct SweepJournal {
  ResumeState resume;
  std::unique_ptr<CheckpointWriter> writer;
};

/// Opens the journal at `path` for a sweep of `plan`, under the one run
/// signature every sweep journal carries: the dataset shape (`ranks`), the
/// statistic's kind and parameters, `tile_size` and `threshold`, with no
/// world size, so the engine's checkpointed pass and the lease master
/// resume each other's journals. A matching journal's tiles are loaded
/// (first record wins, indices outside the plan dropped), then the file is
/// truncated and they are replayed, dropping any torn tail. Anything else
/// starts fresh — except a journal differing *only* in the estimator (same
/// data and tiling, wrong --estimator), or a matching B-spline journal in
/// another accumulation order (versions 1 and 2, whose last bits differ):
/// both throw ContractViolation naming the two values.
SweepJournal open_sweep_journal(const std::string& path,
                                const PairStatistic& statistic,
                                const RankedMatrix& ranks,
                                std::size_t tile_size, double threshold,
                                const SweepPlan& plan);

// --- stats finalizer --------------------------------------------------------

/// The one place every engine-facing pass reports through: fills
/// EngineStats (when requested) and publishes the identical numbers as
/// deltas into the engine.* instruments of the process-wide registry —
/// including the tile-latency percentiles from the per-context samples.
void finalize_engine_pass(EngineStats* stats, const PanelPlan& plan,
                          std::size_t plan_tiles, double seconds,
                          std::span<const SweepCounters> per_thread,
                          std::size_t edges_emitted, std::size_t tiles_resumed,
                          std::size_t pairs_resumed);

// --- the executor -----------------------------------------------------------

namespace detail {

/// Sweeps one tile's row panels through the pair statistic, emitting each
/// pair's score to the sink. `phase`/`stride` select this context's share
/// of the panels (0/1 = all of them; member/team_size in teamed mode —
/// panels, not pairs, are the unit of splitting so each member runs whole
/// row-reuse sweeps).
template <typename RowSource, typename Sink>
void sweep_tile(const PairStatistic& estimator, RowSource& row,
                const Tile& tile, const PanelPlan& plan, std::size_t phase,
                std::size_t stride, PairScratch& scratch,
                SweepCounters& counters, Sink& sink, int tid) {
  // Rank element width follows the row source: uint32 classic rows or
  // uint16 staged rows (bit-identical — the B-spline kernels index the
  // same table rows, the generic fallback widens losslessly). Overload
  // resolution on eval_panel picks the matching variant.
  using RankT = std::remove_cv_t<
      std::remove_pointer_t<decltype(row(std::size_t{0}))>>;
  const RankT* ry[kMaxPanelWidth];
  double mi[kMaxPanelWidth];
  std::size_t panel_index = 0;
  for_each_row_panel(
      tile, static_cast<std::size_t>(plan.width),
      [&](std::size_t i, std::size_t j0, std::size_t width) {
        if (stride > 1 && panel_index++ % stride != phase) return;
        for (std::size_t p = 0; p < width; ++p) ry[p] = row(j0 + p);
        estimator.eval_panel(row(i), ry, width, i, j0, plan.kernel, scratch, mi);
        ++counters.panels;
        counters.pairs += width;
        for (std::size_t p = 0; p < width; ++p) sink.pair(tid, i, j0 + p, mi[p]);
      });
}

/// One sweep context's working state: the statistic's per-context scratch
/// plus this context's counter slot. The single place every scheduler body
/// allocates from, so scratch construction policy lives here, once.
struct SweepContext {
  std::unique_ptr<PairScratch> scratch;
  SweepCounters* counters;
};

inline SweepContext make_sweep_context(const PairStatistic& estimator,
                                       par::PerThread<SweepCounters>& state,
                                       int tid) {
  return SweepContext{estimator.make_scratch(), &state.local(tid)};
}

/// Records one tile's wall time into the context's counters (count, max,
/// raw sample). One push_back per tile — tiles are ms-scale and the
/// slots are thread-private, so the sampling cost is noise.
inline void record_tile_seconds(SweepCounters& counters, double seconds) {
  ++counters.tiles_timed;
  if (seconds > counters.tile_seconds_max)
    counters.tile_seconds_max = seconds;
  counters.tile_seconds.push_back(static_cast<float>(seconds));
}

}  // namespace detail

/// Runs the sweep described by `plan` with the scheduler in `options`,
/// feeding every pair's score to `sink`. `row(g)` must return the rank
/// profile of gene g (a const std::uint32_t* or std::uint16_t* of at least
/// n_samples entries) and be safe to call concurrently. `panels` is the
/// statistic's resolved plan (estimator.plan(config)). `pool` may be null
/// only for the inline case (threads == 1 and team_size == 1). Returns the
/// per-context counters (one slot per participating context).
template <typename RowSource, typename Sink>
std::vector<SweepCounters> run_sweep(const SweepPlan& plan,
                                     const PairStatistic& estimator,
                                     RowSource&& row, const PanelPlan& panels,
                                     par::ThreadPool* pool,
                                     const SweepOptions& options, Sink& sink) {
  TINGE_EXPECTS(options.threads >= 1);
  TINGE_EXPECTS(options.team_size >= 1);
  TINGE_EXPECTS(options.skip == nullptr ||
                options.skip->size() == plan.count());
  const int contexts = options.threads;
  par::PerThread<SweepCounters> state(contexts);

  if (options.team_size <= 1) {
    // Flat scheduler: parallel_for hands out tiles (grain 1) under
    // options.schedule — dynamic by default, as in the paper.
    const auto body = [&](std::size_t tile_begin, std::size_t tile_end,
                          int tid) {
      const detail::SweepContext context =
          detail::make_sweep_context(estimator, state, tid);
      SweepCounters& local = *context.counters;
      Stopwatch tile_watch;
      for (std::size_t t = tile_begin; t < tile_end; ++t) {
        if (options.skip != nullptr && (*options.skip)[t]) continue;
        tile_watch.reset();
        sink.tile_begin(tid, t);
        ++local.tiles;
        detail::sweep_tile(estimator, row, plan.tile(t), panels, 0, 1,
                           *context.scratch, local, sink, tid);
        sink.tile_end(tid, t, 1);
        detail::record_tile_seconds(local, tile_watch.seconds());
      }
    };
    if (contexts == 1 || plan.count() <= 1) {
      body(0, plan.count(), 0);
    } else {
      TINGE_EXPECTS(pool != nullptr);
      par::parallel_for(*pool, contexts, 0, plan.count(), 1,
                        options.schedule, body);
    }
  } else {
    if (contexts % options.team_size != 0) {
      throw ContractViolation(strprintf(
          "teamed sweep: team_size %d does not divide the %d-thread pool "
          "width; choose a team size that tiles the pool exactly",
          options.team_size, contexts));
    }
    TINGE_EXPECTS(pool != nullptr);
    const int team_size = options.team_size;
    const int n_teams = contexts / team_size;

    // Per-team coordination: the leader claims the next tile from the
    // global counter; a team barrier publishes it to the members; every
    // member sweeps its round-robin share of the tile's panels. The second
    // barrier keeps members in lock-step with the leader's next claim (the
    // leader must not overwrite team.tile early) and makes every member's
    // sink contributions visible before tile_end runs on the leader.
    std::atomic<std::size_t> next_tile{0};
    struct alignas(kSimdAlignment) TeamSlot {
      std::size_t tile = 0;
      std::unique_ptr<par::SpinBarrier> barrier;
    };
    std::vector<TeamSlot> teams(static_cast<std::size_t>(n_teams));
    for (auto& team : teams)
      team.barrier = std::make_unique<par::SpinBarrier>(team_size);

    // A sink/progress exception must not strand teammates on a barrier:
    // record the first error, poison the claim counter so every team's
    // next claim terminates the loop, and rethrow after the region.
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::atomic<bool> aborted{false};
    const auto record_error = [&] {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      aborted.store(true, std::memory_order_release);
      next_tile.store(plan.count(), std::memory_order_relaxed);
    };

    pool->run(contexts, [&](int tid, int /*width*/) {
      const int team_id = tid / team_size;
      const int member = tid % team_size;
      TeamSlot& team = teams[static_cast<std::size_t>(team_id)];
      const detail::SweepContext context =
          detail::make_sweep_context(estimator, state, tid);
      SweepCounters& local = *context.counters;
      Stopwatch tile_watch;

      while (true) {
        if (member == 0)
          team.tile = next_tile.fetch_add(1, std::memory_order_relaxed);
        team.barrier->arrive_and_wait();
        const std::size_t t = team.tile;
        if (t >= plan.count()) break;
        const bool skipped =
            options.skip != nullptr && (*options.skip)[t] != 0;
        if (member == 0 && !skipped) tile_watch.reset();
        if (!skipped) {
          try {
            sink.tile_begin(tid, t);
            // The tile is attributed to the claiming leader in the
            // scheduler counters; panel/pair work to the member running it.
            if (member == 0) ++local.tiles;
            detail::sweep_tile(estimator, row, plan.tile(t), panels,
                               static_cast<std::size_t>(member),
                               static_cast<std::size_t>(team_size),
                               *context.scratch, local, sink, tid);
          } catch (...) {
            record_error();
          }
        }
        team.barrier->arrive_and_wait();
        if (member == 0 && !skipped &&
            !aborted.load(std::memory_order_acquire)) {
          try {
            sink.tile_end(tid, t, team_size);
          } catch (...) {
            record_error();
          }
          // Tile wall time as the team experienced it: claim through the
          // members' barrier and the merged tile_end, on the leader's slot.
          detail::record_tile_seconds(local, tile_watch.seconds());
        }
      }
    });
    if (first_error) std::rethrow_exception(first_error);
  }

  std::vector<SweepCounters> counters(static_cast<std::size_t>(contexts));
  for (int tid = 0; tid < contexts; ++tid)
    counters[static_cast<std::size_t>(tid)] = state.local(tid);
  return counters;
}

}  // namespace tinge
