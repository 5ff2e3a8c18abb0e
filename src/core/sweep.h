// The unified pair-sweep executor (DESIGN.md §6d).
//
// Every all-pairs sweep in the system — the engine's plain, checkpointed,
// teamed and dense passes and the cluster ring/lease sweeps' local +
// received-block computations — is the same algorithm: walk a set of tiles,
// sweep each tile's rows as row-reuse panels through a pair statistic, hand
// each pair's score to a consumer. run_sweep() is that algorithm written
// once, parameterized by four orthogonal policies:
//
//   * a TILE PLAN (SweepPlan): which tiles — the upper triangle of a gene
//     range (single-chip engine, ring diagonal blocks) or a rectangle
//     (ring cross-block steps);
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

#include <algorithm>
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
#include "device/perf_model.h"
#include "graph/network.h"
#include "mi/bspline_mi.h"
#include "parallel/affinity.h"
#include "parallel/barrier.h"
#include "parallel/parallel_for.h"
#include "parallel/topology.h"
#include "parallel/reduction.h"
#include "parallel/thread_pool.h"
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

  /// Full [row_begin, row_end) x [col_begin, col_end) rectangle; the row
  /// range must sit entirely below the column range (ring cross blocks).
  static SweepPlan rectangular(std::size_t row_begin, std::size_t row_end,
                               std::size_t col_begin, std::size_t col_end,
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
/// the vector kernel wherever it can run), and names the kernel that
/// actually runs for the stats. This is what BsplineStat::plan delegates
/// to.
PanelPlan plan_panels(const BsplineMi& estimator, const TingeConfig& config);

// --- scheduler --------------------------------------------------------------

/// Thrown by run_sweep when SweepOptions::cancel flips mid-pass. Tiles
/// journaled before the abort stay valid — a checkpointed pass resumes
/// from them — so cancellation loses at most the tiles in flight.
class SweepAborted : public std::runtime_error {
 public:
  SweepAborted()
      : std::runtime_error("sweep aborted: cancellation requested") {}
};

/// NUMA placement of one sweep: which memory node prefers which tiles and
/// where each pool context runs. Built once per pass by
/// make_numa_tile_plan and handed to run_sweep via SweepOptions::numa;
/// with it set (and > 1 node) the flat scheduler swaps its single shared
/// tile counter for per-node queues — each context drains its own node's
/// tiles first (whose row genes were first-touched on that node, see
/// StagedRankMatrix::fill_rows) and steals from other nodes round-robin by
/// hop distance only when its queue runs dry. Tile values are unchanged;
/// only the claiming order is.
struct NumaTilePlan {
  int nodes = 1;
  std::vector<int> tile_node;  ///< per plan tile: node owning its row genes
  /// Per pool context: assumed home node under a contiguous block split of
  /// the contexts across nodes. Only a fallback — pool contexts are handed
  /// out in wake order and may not be pinned at all, so when cpu_node is
  /// populated each context resolves its real home from the CPU it is
  /// running on at sweep time instead.
  std::vector<int> thread_node;
  /// cpu_node[cpu] = node of OS CPU `cpu` (copied from the detected
  /// NumaLayout when the caller supplies one); empty when detection was
  /// unavailable or the plan uses synthetic nodes, in which case
  /// thread_node decides.
  std::vector<int> cpu_node;
};

/// Node owning gene g under the contiguous block partition both the staged
/// first-touch fill and the tile plan use: block boundaries at
/// g * nodes / n_genes.
inline int numa_node_of_gene(std::size_t g, std::size_t n_genes, int nodes) {
  if (n_genes == 0 || nodes <= 1) return 0;
  const std::size_t node =
      g * static_cast<std::size_t>(nodes) / n_genes;
  return static_cast<int>(
      std::min(node, static_cast<std::size_t>(nodes - 1)));
}

/// Builds the per-pass NUMA plan: tiles are attributed to the node of
/// their first row gene. Pass the detected `layout` so sweep contexts can
/// resolve their home node from the CPU they actually run on; without it
/// (or when layout->nodes != nodes — synthetic test plans) contexts fall
/// back to a contiguous block split of tids across nodes, which matches a
/// block-cyclic pinning of the pool and is only a heuristic otherwise.
NumaTilePlan make_numa_tile_plan(const SweepPlan& plan, std::size_t n_genes,
                                 int nodes, int threads,
                                 const par::NumaLayout* layout = nullptr);

// --- heterogeneous executor lanes (DESIGN.md §6i) ---------------------------

/// Shared tile ledger of the heterogeneous lane scheduler. Mirrors the
/// cluster LeaseLedger's conservation discipline — tiles leave an
/// LPT-ordered ready queue (descending pair count, ties by ascending
/// index) in batches, every tile is claimed exactly once, and
/// granted = completed + outstanding at every step — but is internally
/// synchronized: worker contexts call next()/complete() directly instead
/// of routing requests through a master rank. Refill batches shrink
/// geometrically as the ready queue drains (bounding end-game imbalance),
/// and a lane whose pending queue and the ready list are both dry steals
/// the back half of the richest other lane's pending tiles — so a
/// mispredicted seed fraction can cost latency, never completion.
///
/// Seed grants are issued upfront (in the constructor) and a steal always
/// leaves the victim's front tile in place, so every lane is guaranteed at
/// least one tile when the plan has enough to go around — the calibration
/// and the manifest's measured partition get an observation from every
/// lane even if its contexts wake late. Worst-case cost: one straggler
/// tile per lane.
class LaneLedger {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `seed_fractions` sizes each lane's upfront grant — half its predicted
  /// share, the rest staying in the ready queue to absorb prediction error
  /// (empty = equal shares). Tiles with a non-zero `skip` entry (resumed
  /// from a checkpoint) never enter the ready queue.
  LaneLedger(const SweepPlan& plan, std::size_t n_lanes,
             const std::vector<double>& seed_fractions = {},
             const std::vector<char>* skip = nullptr);

  /// Claims the next tile for a context of `lane`: the lane's pending
  /// grant first, else a fresh batch from the ready queue, else a steal
  /// from another lane. npos = the sweep is drained.
  std::size_t next(int lane);

  /// Marks a claimed tile finished.
  void complete(int lane, std::size_t tile);

  // Conservation accounting. At any instant
  //   tiles_granted == tiles_claimed == tiles_completed + outstanding
  // up to tiles still sitting in pending queues (granted, unclaimed), and
  // after the sweep all four equal tiles_total.
  std::size_t tiles_total() const;      ///< plan tiles minus skipped
  std::size_t tiles_granted() const;    ///< left the ready queue
  std::size_t tiles_claimed() const;    ///< returned by next()
  std::size_t tiles_completed() const;
  std::size_t outstanding() const;      ///< claimed, not yet completed
  std::size_t leases_granted() const;   ///< grant batches issued
  std::size_t steals() const;           ///< tiles moved between lanes
  std::uint64_t lane_tiles(int lane) const;  ///< completions per lane
  std::size_t lane_pending(int lane) const;  ///< granted, unclaimed tiles
  bool drained() const;  ///< ready queue and every pending queue empty
  bool done() const;     ///< every non-skipped tile completed

 private:
  void grant_locked(std::size_t lane);
  void steal_locked(std::size_t lane);

  mutable std::mutex mutex_;
  const SweepPlan* plan_;
  std::vector<std::size_t> ready_;  ///< LPT order; head_ is the cursor
  std::size_t head_ = 0;
  std::vector<std::vector<std::size_t>> pending_;  ///< per lane, FIFO
  std::vector<std::uint64_t> lane_tiles_;
  std::size_t claimed_ = 0;
  std::size_t completed_ = 0;
  std::size_t leases_ = 0;
  std::size_t steals_ = 0;
};

/// One executor lane: a contiguous block of pool contexts sweeping with its
/// own resolved kernel plan — e.g. the AVX-512 panel lane vs the scalar
/// lane as stand-ins for the paper's Xeon/Phi split. Kernel variants are
/// bit-identical, so lanes change which context computes a pair, never its
/// value.
struct SweepLane {
  PanelPlan panels;
  int begin_context = 0;  ///< first pool context of the lane (inclusive)
  int end_context = 0;    ///< one past the lane's last pool context
  double predicted_fraction = 0.0;  ///< perf-model share seeding the ledger
  std::string label;                ///< "simd:6"-style, for stats/metrics

  int threads() const { return end_context - begin_context; }
};

/// The lane scheduler's inputs: lanes covering contexts [0, threads)
/// contiguously, the per-pair workload shape (samples/order/bins, pairs
/// left at 1) for converting tiles to modeled FLOPs, and an optional
/// PerfModel receiving per-tile observations (live recalibration;
/// PerfModel::observe is internally locked). run_sweep writes the ledger's
/// conservation counters back into the mutable fields after the pass.
struct LanePlan {
  std::vector<SweepLane> lanes;
  MiWorkload pair_shape;
  PerfModel* model = nullptr;

  /// Filled by run_sweep: the lane ledger's outcome for this pass.
  mutable std::size_t leases_granted = 0;
  mutable std::size_t steals = 0;

  int lane_of_context(int tid) const {
    for (std::size_t l = 0; l + 1 < lanes.size(); ++l)
      if (tid < lanes[l].end_context) return static_cast<int>(l);
    return static_cast<int>(lanes.size()) - 1;
  }
};

/// How run_sweep distributes tiles over contexts.
struct SweepOptions {
  /// Pool contexts participating. 1 runs inline on the caller (the pool may
  /// then be null — the ring sweep has one thread per rank and no pool).
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
  /// Optional cancellation flag, polled between tiles: once it reads true
  /// the pass stops claiming tiles and throws SweepAborted. How a worker
  /// that learned of a peer failure (or caught SIGTERM) abandons a doomed
  /// multi-minute sweep instead of computing to the bitter end.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional NUMA placement (flat scheduler only). Must outlive the
  /// sweep. Combining it with team_size > 1 or `lanes` is a
  /// ContractViolation — see the scheduler-precedence note on
  /// TingeConfig::numa.
  const NumaTilePlan* numa = nullptr;
  /// Optional heterogeneous lane scheduler (flat mode only; team_size must
  /// be 1 and `numa` null). The plan's lanes must cover exactly
  /// [0, threads). Must outlive the sweep.
  const LanePlan* lanes = nullptr;
};

/// Per-context tally of one pass. Plain counters on per-thread slots: the
/// observability layer costs one integer bump per tile/panel/pair in
/// thread-private cache lines, nothing shared.
struct SweepCounters {
  std::uint64_t tiles = 0;   ///< tiles this context completed (team leader)
  std::uint64_t pairs = 0;   ///< pairs this context computed
  std::uint64_t panels = 0;  ///< panel sweeps this context ran
  /// NUMA scheduler only (zero elsewhere): tiles claimed from the
  /// context's own node's queue vs. stolen from another node's.
  std::uint64_t tiles_local = 0;
  std::uint64_t tiles_stolen = 0;
  /// Per-tile wall-time sampling (every scheduler; teamed passes time on
  /// the leader, claim to post-merge). Sum/max feed the lane calibration;
  /// the raw samples give the pass-level p50/p95 straggler diagnosis.
  std::uint64_t tiles_timed = 0;
  double tile_seconds_sum = 0.0;
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

  /// Appends every context's surviving edges to `network` in tid order.
  void drain_into(GeneNetwork& network) {
    for (int tid = 0; tid < buffers_.size(); ++tid)
      network.add_edges(buffers_.local(tid));
  }

  /// All surviving edges concatenated in tid order (the ring sweep keeps
  /// one flat buffer per rank across several run_sweep calls).
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
    std::size_t interval = 1;      ///< min completed tiles between reports
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
  // at whole-genome tile counts it is invoked at most once per `interval`
  // tiles or ~100 ms (whichever comes first); the final tile always
  // reports, and interval == 1 restores exact per-tile callbacks.
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

/// Loads the checkpoint at `path` if it exists and matches `signature`;
/// deduplicates records (first occurrence wins) and drops indices outside
/// the plan. Returns an all-clear state when no matching checkpoint exists
/// — except when the journal differs from `signature` *only* in the
/// estimator, which is almost certainly an operator error (same data, same
/// tiling, wrong --estimator): that throws ContractViolation naming both
/// estimators instead of silently recomputing. A matching B-spline journal
/// written in another accumulation order (journal versions 1 and 2) also
/// throws, naming both journal versions: its values would differ in the
/// last bits from the ones this build computes. The engine's checkpointed
/// pass, the cluster lease sweep and the daemon's journal restore all
/// resume through here.
ResumeState load_resume_state(const std::string& path,
                              const RunSignature& signature,
                              const SweepPlan& plan);

// --- stats finalizer --------------------------------------------------------

/// The one place every engine-facing pass reports through: fills
/// EngineStats (when requested) and publishes the identical numbers as
/// deltas into the engine.* instruments of the process-wide registry —
/// including the tile-latency percentiles from the per-context samples
/// and, when `lanes` is given, the per-lane partition outcome
/// (engine.lane.<i>.* metrics, EngineStats::lanes).
void finalize_engine_pass(EngineStats* stats, const PanelPlan& plan,
                          std::size_t plan_tiles, double seconds,
                          std::span<const SweepCounters> per_thread,
                          std::size_t edges_emitted, std::size_t tiles_resumed,
                          std::size_t pairs_resumed,
                          const LanePlan* lanes = nullptr);

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

/// Records one tile's wall time into the context's counters (count, sum,
/// max, raw sample). One push_back per tile — tiles are ms-scale and the
/// slots are thread-private, so the sampling cost is noise.
inline void record_tile_seconds(SweepCounters& counters, double seconds) {
  ++counters.tiles_timed;
  counters.tile_seconds_sum += seconds;
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
  // Scheduler-precedence guards (see TingeConfig::numa): a NUMA plan or a
  // lane plan combined with teamed claiming used to be a silent no-op —
  // now the caller hears about the conflict instead of losing a knob.
  if (options.numa != nullptr && options.team_size > 1) {
    throw ContractViolation(strprintf(
        "sweep: a NUMA tile plan requires the flat scheduler but "
        "team_size is %d; teamed claiming would silently ignore the plan",
        options.team_size));
  }
  if (options.lanes != nullptr && options.team_size > 1) {
    throw ContractViolation(strprintf(
        "sweep: heterogeneous lanes require the flat scheduler but "
        "team_size is %d",
        options.team_size));
  }
  if (options.lanes != nullptr && options.numa != nullptr) {
    throw ContractViolation(
        "sweep: heterogeneous lanes and the NUMA node-queue scheduler "
        "both replace the flat tile queue; enable at most one");
  }
  const int contexts = options.threads;
  par::PerThread<SweepCounters> state(contexts);

  if (options.team_size <= 1 && options.lanes != nullptr &&
      options.lanes->lanes.size() > 1 && contexts > 1 && plan.count() > 1) {
    // Heterogeneous lane scheduler: each lane owns a contiguous context
    // block and its own kernel plan; tiles flow through the shared
    // LPT-ordered LaneLedger — perf-model-seeded batches first, then
    // demand-driven refills and cross-lane steals, so whichever lane
    // drains first keeps the pool busy regardless of the model's accuracy.
    // Kernel variants are bit-identical and the network finalizer sorts,
    // so lane composition cannot change the result.
    TINGE_EXPECTS(pool != nullptr);
    const LanePlan& lane_plan = *options.lanes;
    TINGE_EXPECTS(lane_plan.lanes.front().begin_context == 0);
    TINGE_EXPECTS(lane_plan.lanes.back().end_context == contexts);
    std::vector<double> fractions;
    fractions.reserve(lane_plan.lanes.size());
    for (const SweepLane& lane : lane_plan.lanes)
      fractions.push_back(lane.predicted_fraction);
    LaneLedger ledger(plan, lane_plan.lanes.size(), fractions, options.skip);

    pool->run(contexts, [&](int tid, int /*width*/) {
      const int lane_index = lane_plan.lane_of_context(tid);
      const SweepLane& lane =
          lane_plan.lanes[static_cast<std::size_t>(lane_index)];
      const detail::SweepContext context =
          detail::make_sweep_context(estimator, state, tid);
      SweepCounters& local = *context.counters;
      Stopwatch tile_watch;
      while (true) {
        const std::size_t t = ledger.next(lane_index);
        if (t == LaneLedger::npos) break;
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed))
          throw SweepAborted();
        tile_watch.reset();
        sink.tile_begin(tid, t);
        ++local.tiles;
        detail::sweep_tile(estimator, row, plan.tile(t), lane.panels, 0, 1,
                           *context.scratch, local, sink, tid);
        sink.tile_end(tid, t, 1);
        const double elapsed = tile_watch.seconds();
        detail::record_tile_seconds(local, elapsed);
        ledger.complete(lane_index, t);
        if (lane_plan.model != nullptr) {
          MiWorkload tile_work = lane_plan.pair_shape;
          tile_work.pairs = plan.tile(t).pair_count();
          lane_plan.model->observe(lane_index, tile_work, elapsed);
        }
      }
    });
    lane_plan.leases_granted = ledger.leases_granted();
    lane_plan.steals = ledger.steals();
  } else if (options.team_size <= 1) {
    const bool numa_scheduling = options.numa != nullptr &&
                                 options.numa->nodes > 1 && contexts > 1 &&
                                 plan.count() > 1;
    if (numa_scheduling) {
      // NUMA node-queue scheduler: one tile queue per memory node, one
      // shared cursor per queue. A context drains the queue of its own
      // node first (tiles whose row genes are resident there), then steals
      // from the other nodes in hop order. Work-conserving — every tile is
      // claimed exactly once — and tile values are scheduler-independent,
      // so results stay bit-identical to the shared-queue path.
      TINGE_EXPECTS(pool != nullptr);
      const NumaTilePlan& numa = *options.numa;
      TINGE_EXPECTS(numa.tile_node.size() == plan.count());
      TINGE_EXPECTS(numa.thread_node.size() >=
                    static_cast<std::size_t>(contexts));
      const int nodes = numa.nodes;
      std::vector<std::vector<std::size_t>> queues(
          static_cast<std::size_t>(nodes));
      for (std::size_t t = 0; t < plan.count(); ++t) {
        int node = numa.tile_node[t];
        if (node < 0 || node >= nodes) node = 0;
        queues[static_cast<std::size_t>(node)].push_back(t);
      }
      struct alignas(kSimdAlignment) NodeCursor {
        std::atomic<std::size_t> next{0};
      };
      std::vector<NodeCursor> cursors(static_cast<std::size_t>(nodes));

      pool->run(contexts, [&](int tid, int /*width*/) {
        const detail::SweepContext context =
            detail::make_sweep_context(estimator, state, tid);
        SweepCounters& local = *context.counters;
        // Home node: prefer the node of the CPU this context is actually
        // running on (tids are claimed in wake order, so the plan's
        // tid-block mapping cannot know it); fall back to that mapping
        // when the plan has no cpu table or the query is unsupported.
        int home = numa.thread_node[static_cast<std::size_t>(tid)];
        const int cpu = par::current_cpu();
        if (cpu >= 0 && static_cast<std::size_t>(cpu) < numa.cpu_node.size())
          home = numa.cpu_node[static_cast<std::size_t>(cpu)];
        if (home < 0 || home >= nodes) home = 0;
        Stopwatch tile_watch;
        for (int hop = 0; hop < nodes; ++hop) {
          const int node = (home + hop) % nodes;
          const auto& queue = queues[static_cast<std::size_t>(node)];
          auto& cursor = cursors[static_cast<std::size_t>(node)].next;
          while (true) {
            const std::size_t qi =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (qi >= queue.size()) break;
            const std::size_t t = queue[qi];
            if (options.cancel != nullptr &&
                options.cancel->load(std::memory_order_relaxed))
              throw SweepAborted();
            if (options.skip != nullptr && (*options.skip)[t]) continue;
            tile_watch.reset();
            sink.tile_begin(tid, t);
            ++local.tiles;
            if (hop == 0) {
              ++local.tiles_local;
            } else {
              ++local.tiles_stolen;
            }
            detail::sweep_tile(estimator, row, plan.tile(t), panels, 0, 1,
                               *context.scratch, local, sink, tid);
            sink.tile_end(tid, t, 1);
            detail::record_tile_seconds(local, tile_watch.seconds());
          }
        }
      });
    } else {
      // Flat scheduler: tiles are the unit of dynamic claiming, exactly as
      // parallel_for distributes them (grain 1).
      const auto body = [&](std::size_t tile_begin, std::size_t tile_end,
                            int tid) {
        const detail::SweepContext context =
            detail::make_sweep_context(estimator, state, tid);
        SweepCounters& local = *context.counters;
        Stopwatch tile_watch;
        for (std::size_t t = tile_begin; t < tile_end; ++t) {
          if (options.cancel != nullptr &&
              options.cancel->load(std::memory_order_relaxed))
            throw SweepAborted();
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
        if (member == 0) {
          // Cancellation rides the same poisoning path as a sink error so
          // teammates drain off their barriers instead of stranding.
          if (options.cancel != nullptr &&
              options.cancel->load(std::memory_order_relaxed) &&
              !aborted.load(std::memory_order_acquire)) {
            try {
              throw SweepAborted();
            } catch (...) {
              record_error();
            }
          }
          team.tile = next_tile.fetch_add(1, std::memory_order_relaxed);
        }
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
