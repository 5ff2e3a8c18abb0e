// Configuration of the TINGe-style network construction pipeline.
#pragma once

#include <cstdint>
#include <string>

#include "core/estimator_kind.h"
#include "mi/bspline_kernels.h"
#include "parallel/parallel_for.h"
#include "preprocess/filter.h"

namespace tinge {

struct TingeConfig {
  // --- estimator (Daub et al. defaults used by TINGe) ------------------
  /// Which pair statistic the sweep computes (core/pair_statistic.h).
  /// Bspline is the paper's pipeline; the others reuse the same executor
  /// through the generic panel fallback.
  EstimatorKind estimator = EstimatorKind::Bspline;
  int bins = 10;          ///< histogram/B-spline/phi bins b
  int spline_order = 3;   ///< B-spline order k (degree k-1)

  // --- significance ------------------------------------------------------
  double alpha = 1e-3;           ///< permutation-test significance level
  std::size_t permutations = 2000;  ///< null-distribution sample size q

  // --- parallel execution ------------------------------------------------
  std::size_t tile_size = 64;  ///< genes per tile side (cache blocking)
  int threads = 0;             ///< 0 = all hardware threads
  MiKernel kernel = MiKernel::Auto;
  par::Schedule schedule = par::Schedule::Dynamic;

  /// Threads per tile-claiming team (the Phi's hardware threads of one
  /// core): 1 = flat dynamic scheduling (one tile per thread); > 1 groups
  /// that many consecutive pool contexts into teams that claim one tile
  /// together and split its panels round-robin. Must divide the effective
  /// thread count (checked when the sweep starts, since `threads = 0`
  /// resolves against the pool width). Results are bit-identical either
  /// way.
  int team_size = 1;

  // --- memory-side knob (bit-identical) ----------------------------------
  /// Stage rank rows as uint16 for the O(n^2) sweep when m <= 65536,
  /// halving the streamed rank bytes. Falls back to uint32 transparently
  /// for larger m.
  bool stage_ranks = true;

  // --- reproducibility ----------------------------------------------------
  std::uint64_t seed = 20140519;  ///< drives the permutation null

  // --- fault tolerance ------------------------------------------------------
  /// When non-empty, the MI pass journals completed tiles to this file and
  /// resumes from it if a matching checkpoint exists (crash recovery for
  /// whole-genome runs). Removed automatically on success.
  std::string checkpoint_path;

  // --- cluster execution ---------------------------------------------------
  /// 0 = single-process engine; >= 1 = shard the pipeline across this many
  /// ranks with the rank-0 tile-lease sweep (cluster/lease_mi.h): idle
  /// ranks pull tiles from a global ledger, so a straggler does not gate
  /// the sweep and checkpoints resume on any world size (same edges,
  /// test-enforced).
  int cluster_ranks = 0;
  /// Transport backend for cluster runs: "inproc" (rank-threads, simulated
  /// network) or "tcp" (real framed sockets / worker processes).
  std::string cluster_transport = "inproc";

  // --- consensus (bootstrapped ensemble; ARACNE's procedure) ---------------
  /// B > 0 runs the single-process pipeline as an ensemble: B bootstrap
  /// column resamples per selected estimator, each swept through the same
  /// executor at that estimator's own null threshold; edge weights become
  /// per-edge support frequencies in (0, 1]. 0 = plain single network.
  std::size_t consensus_resamples = 0;
  /// Comma-separated estimator names voting in the consensus ("bspline,
  /// pearson"); empty = just `estimator`.
  std::string consensus_estimators;
  /// Minimum support frequency for an edge to survive the consensus.
  double consensus_min_frequency = 0.5;

  // --- post-processing ----------------------------------------------------
  bool apply_dpi = false;      ///< ARACNE-style indirect-edge removal
  double dpi_tolerance = 0.1;  ///< DPI tolerance epsilon

  // --- preprocessing -------------------------------------------------------
  FilterCriteria filter;

  /// Throws ContractViolation on inconsistent settings.
  void validate() const;
};

}  // namespace tinge
