// The tiled, multithreaded all-pairs mutual-information engine — the
// component the paper parallelizes across the Phi's cores, hardware threads
// and vector units.
//
// Work decomposition: the upper-triangular pair space is tiled (core/tile.h);
// tiles are distributed over the thread pool with the configured schedule
// (dynamic by default, as in the paper). Each thread owns a joint-histogram
// scratch and an edge buffer; inside a tile each row gene's column range is
// swept as panels of B column genes by the row-reuse kernel
// (joint_entropy_panel in mi/bspline_kernels.h), sharing the row gene's
// table lookups across the panel. Edges at or
// above the significance threshold are kept; everything else is discarded
// immediately — at whole-genome scale the dense MI matrix (15,575^2 floats
// ~ 1 GB) is never materialized.
//
// Every compute_* method below is a thin configuration of the unified
// sweep executor (core/sweep.h, DESIGN.md §6d): one triangular tile plan,
// the scheduler options from the config (flat or teamed, plus the resume
// filter for checkpointed runs) and a sink (edge buffers, journal, dense
// matrix). The tile/panel loops, the teamed claiming protocol and the
// stats finalizer exist once, in the executor.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pair_statistic.h"
#include "core/tile.h"
#include "graph/network.h"
#include "mi/bspline_mi.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"

namespace tinge {

/// Per-call accounting of one engine pass. All four engine paths (plain,
/// checkpointed, teamed, dense) populate every field through one shared
/// finalizer, which also publishes the same numbers as deltas into the
/// engine.* counters of obs::MetricsRegistry::global() — EngineStats is a
/// per-call view over the registry, not a second bookkeeping scheme
/// (engine_stats_from_metrics reads the numeric fields back out of a
/// registry delta).
struct EngineStats {
  /// Pairs the returned result covers — always the full n*(n-1)/2 of the
  /// pass, including pairs of tiles replayed from a checkpoint.
  std::size_t pairs_computed = 0;
  std::size_t edges_emitted = 0;
  std::size_t tiles = 0;
  /// Tiles loaded from a checkpoint journal instead of recomputed.
  std::size_t tiles_resumed = 0;
  /// Row-reuse panel sweeps executed (kernel invocations).
  std::size_t panels_swept = 0;
  double seconds = 0.0;

  /// Name of the kernel variant actually run (config Auto resolved to the
  /// vector kernel wherever it can run; static string, never null).
  const char* kernel = "?";
  /// Name of the pair statistic the pass evaluated (static string).
  const char* estimator = "bspline";
  /// Panel width B actually used by the row-reuse sweep (>= 1).
  int panel_width = 0;

  /// Pairs of tiles that were replayed from a checkpoint (subset of
  /// pairs_computed; zero outside resumed runs).
  std::size_t pairs_resumed = 0;

  /// Tile-scheduler outcome: tiles completed per pool context (teamed runs
  /// attribute a tile to the team leader's tid). Sums to
  /// tiles - tiles_resumed.
  std::vector<std::uint64_t> tiles_per_thread;
  /// Pairs computed per pool context. Sums to pairs_computed - pairs_resumed.
  std::vector<std::uint64_t> pairs_per_thread;

  /// Per-tile wall-time distribution over the computed (not resumed) tiles:
  /// nearest-rank percentiles over every context's samples. Zero when no
  /// tile was computed. The p95/p50 ratio is the straggler diagnosis.
  std::uint64_t tiles_timed = 0;
  double tile_seconds_p50 = 0.0;
  double tile_seconds_p95 = 0.0;
  double tile_seconds_max = 0.0;

  /// Average panel occupancy: computed pairs per sweep over the configured
  /// width (1.0 = every sweep ran at full width; ragged tile edges lower it).
  double panel_fill_ratio() const {
    return panels_swept > 0 && panel_width > 0
               ? static_cast<double>(pairs_computed - pairs_resumed) /
                     (static_cast<double>(panels_swept) *
                      static_cast<double>(panel_width))
               : 0.0;
  }

  /// Pair-sample throughput: pairs * m / seconds.
  double cell_rate(std::size_t m) const {
    return seconds > 0.0 ? static_cast<double>(pairs_computed) *
                               static_cast<double>(m) / seconds
                         : 0.0;
  }
};

/// Reads the engine.* counters of a metrics snapshot (typically a
/// run-scoped delta) back into the numeric EngineStats fields. kernel /
/// panel_width / seconds come from gauges where available; the per-thread
/// vectors are reassembled from the engine.thread.<tid>.* counters.
EngineStats engine_stats_from_metrics(const obs::MetricsSnapshot& snapshot);

class MiEngine {
 public:
  /// Both references must outlive the engine. The ranked matrix must have
  /// the same sample count as the statistic.
  MiEngine(const PairStatistic& statistic, const RankedMatrix& ranks);

  /// All-pairs MI with thresholding: returns the network of pairs with
  /// MI >= threshold (weights are MI in nats). config.team_size > 1 runs
  /// the teamed scheduler: teams of that many threads (the Phi's hardware
  /// threads of one core) claim a tile together and split its panels
  /// round-robin. It must divide config.threads (or the pool width when
  /// config.threads is 0) — a clear ContractViolation otherwise. Results
  /// are identical for every team size.
  GeneNetwork compute_network(double threshold, const TingeConfig& config,
                              par::ThreadPool& pool,
                              EngineStats* stats = nullptr) const;

  /// Dense n x n MI matrix (row-major, diagonal = 0). For small n only —
  /// used by tests, the DPI baseline and estimator studies.
  std::vector<float> compute_dense(const TingeConfig& config,
                                   par::ThreadPool& pool,
                                   EngineStats* stats = nullptr) const;

  /// Checkpointed variant of compute_network: journals each completed tile
  /// to `checkpoint_path`; if a checkpoint with the identical run signature
  /// already exists there, completed tiles are loaded instead of recomputed.
  /// The checkpoint file is removed on successful completion unless
  /// `keep_checkpoint` is set — a long-lived server keeps the completed
  /// journal so a restart restores the network from it instead of
  /// recomputing the whole triangle.
  ///
  /// `progress(done, total)` is called from worker threads (serialized) as
  /// tiles complete — throttled to at most once per max(1, tiles / 128)
  /// tiles or ~100 ms, whichever comes first; the final tile always
  /// reports, and a pass below 256 tiles reports every tile. An exception
  /// thrown from it aborts the run exactly like a crash would — which is
  /// how the failure-injection tests exercise resume.
  /// Honors config.team_size, so a checkpointed run can resume under the
  /// teamed scheduler (and vice versa — the journal is scheduler-agnostic).
  GeneNetwork compute_network_checkpointed(
      double threshold, const TingeConfig& config, par::ThreadPool& pool,
      const std::string& checkpoint_path, EngineStats* stats = nullptr,
      const std::function<void(std::size_t, std::size_t)>& progress = {},
      bool keep_checkpoint = false) const;

 private:
  const PairStatistic& statistic_;
  const RankedMatrix& ranks_;
};

}  // namespace tinge
