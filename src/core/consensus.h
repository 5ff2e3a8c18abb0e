// Bootstrapped consensus networks over the pair-statistic lattice
// (DESIGN.md §6h).
//
// One estimator on one dataset yields one network — and every estimator
// has blind spots (B-spline MI needs enough samples per bin, Pearson only
// sees linear structure, KSG is noisy at small m). Consensus mode runs
// B bootstrap resamples of the sample axis through the SAME sweep executor
// for each selected estimator and scores every edge by the fraction of
// (resample, estimator) runs that kept it:
//
//   frequency(u, v) = #{runs where MI/score >= that run's threshold}
//                     / (B * n_estimators)
//
// The consensus network keeps edges with frequency >= min_frequency and
// carries the frequency as the edge weight — a per-edge confidence in
// [min_frequency, 1]. DPI then prunes on these consensus weights (an edge
// that survives few resamples loses its triangles first), which is the
// consensus analogue of ARACNE's bootstrap pipeline.
//
// Determinism: resample b draws its sample indices from
// Xoshiro256(seed + golden * (b + 1)) — the same index vector for every
// estimator at round b, so estimators vote on identical resampled data —
// and each run's threshold comes from the full-data universal null of its
// estimator (the null depends only on m, which resampling preserves).
// Fixed seed => identical edge frequencies, test-enforced.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/estimator_kind.h"
#include "data/expression_matrix.h"
#include "graph/network.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"

namespace tinge {

struct ConsensusStats {
  std::size_t resamples = 0;   ///< B
  std::size_t estimators = 0;  ///< voters per resample
  /// Per-estimator full-data significance thresholds, in list order.
  std::vector<double> thresholds;
  /// Distinct edges that appeared in at least one run.
  std::size_t candidate_edges = 0;
  /// Edges kept at frequency >= config.consensus_min_frequency.
  std::size_t kept_edges = 0;
  /// Pairs evaluated across all B * estimators sweeps (null draws excluded).
  std::size_t pairs_computed = 0;
  /// Tiles swept across all B * estimators sweeps.
  std::size_t tiles = 0;
  /// The kernel each estimator's member sweeps resolved
  /// (EngineStats::kernel), comma-joined in estimator order.
  std::string kernel;
  /// The voting estimators' names, comma-joined in list order.
  std::string estimator;
  double seconds = 0.0;
};

/// The estimators that vote in each resample: config.consensus_estimators
/// parsed as a comma-separated list (duplicates rejected), or just
/// config.estimator when the list is empty. Throws std::invalid_argument
/// on an unknown name, exactly like parse_estimator.
std::vector<EstimatorKind> consensus_estimator_list(const TingeConfig& config);

/// Builds the consensus network for `working` (the preprocessed expression
/// matrix `ranked` was computed from). Runs
/// config.consensus_resamples x consensus_estimator_list(config) engine
/// sweeps on bootstrap-resampled columns and returns the finalized network
/// of edges with frequency >= config.consensus_min_frequency, frequency as
/// weight. `log`, when set, receives one line per estimator and a summary.
GeneNetwork build_consensus_network(
    const ExpressionMatrix& working, const RankedMatrix& ranked,
    const TingeConfig& config, par::ThreadPool& pool,
    const std::function<void(std::string_view)>& log = {},
    ConsensusStats* stats = nullptr);

}  // namespace tinge
