// The TINGe pipeline sharded over the ranks of a cluster, so it runs
// identically on in-process rank-threads and on real TCP worker processes.
//
// The stage order is the single-process one (core/dataset_session.h); this
// file adds only what distribution needs. Result determinism makes the
// output byte-identical to the single-process pipeline (test-enforced):
//   * at one rank the build IS the single-process pipeline: a
//     DatasetSession's stages, checkpointing and teamed claiming included;
//   * at p > 1 every rank preprocesses locally with preprocess_expression
//     (deterministic, so this costs no communication and no
//     reproducibility); rank 0 runs the session's stages 1-3, broadcasts
//     the B-spline weight table (receivers reconstruct it via WeightTable's
//     deserializing constructor) and the threshold I_alpha;
//   * all ranks then run the tile-lease sweep (lease_mi.h); rank 0 merges,
//     optionally applies DPI, and gathers per-rank traffic.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cluster/launcher.h"
#include "cluster/lease_mi.h"
#include "core/config.h"
#include "core/consensus.h"
#include "core/dpi.h"
#include "core/null_distribution.h"
#include "core/run_manifest.h"
#include "data/expression_matrix.h"
#include "graph/network.h"

namespace tinge::cluster {

struct ShardedBuildResult {
  /// Merged, thresholded (and optionally DPI-filtered) network on rank 0;
  /// empty finalized network on other ranks.
  GeneNetwork network;
  /// The universal permutation null (rank 0 only).
  std::shared_ptr<const EmpiricalDistribution> null;
  double threshold = 0.0;
  double marginal_entropy = 0.0;
  std::size_t genes_in = 0;
  std::size_t genes_used = 0;
  std::size_t samples = 0;
  std::size_t imputed_cells = 0;
  std::size_t pairs_total = 0;  ///< rank 0 only
  DpiStats dpi_stats;
  /// Consensus-mode accounting (zero unless config.consensus_resamples > 0,
  /// which only a one-rank build runs).
  ConsensusStats consensus;
  /// Communication accounting for the whole sharded run (rank 0 only;
  /// other ranks carry just their own totals in bytes_per_rank[rank]).
  ClusterStats cluster;
  double seconds = 0.0;
};

/// Runs this rank's share of the pipeline. Collective: every rank of
/// `comm`'s cluster must call it with the same expression matrix and
/// config. At comm.size() == 1 it runs a DatasetSession (honoring
/// config.checkpoint_path and config.team_size); at p > 1 the lease sweep,
/// which journals on rank 0 to the same path. `cancel`, when set, is
/// polled between tiles of a p > 1 sweep, which throws SweepAborted once
/// it trips: how a worker that caught SIGTERM abandons a doomed
/// multi-minute sweep.
ShardedBuildResult sharded_build(Comm& comm,
                                 const ExpressionMatrix& expression,
                                 const TingeConfig& config,
                                 const std::atomic<bool>* cancel = nullptr);

/// Move-in overload: preprocessing mutates the matrix in place instead of
/// cloning it.
ShardedBuildResult sharded_build(Comm& comm, ExpressionMatrix&& expression,
                                 const TingeConfig& config,
                                 const std::atomic<bool>* cancel = nullptr);

/// Maps the cluster stats + pair counts into the core manifest section.
ClusterManifest to_cluster_manifest(const ClusterStats& stats);

/// Manifest document for a sharded run (mode "cluster"): config echo,
/// dataset and result sections as in the single-process manifest, plus the
/// "cluster" section with per-rank bytes and imbalance. Call on rank 0.
obs::Json make_cluster_run_manifest(const ShardedBuildResult& result,
                                    const TingeConfig& config);

/// make_cluster_run_manifest + obs::write_json_file.
void write_cluster_run_manifest(const ShardedBuildResult& result,
                                const TingeConfig& config,
                                const std::string& path);

/// Manifest document for a *failed* cluster run (mode "cluster", status
/// "failed"): config echo plus a "failure" section naming the rank that
/// failed first, a human-readable cause per worker, and the resume command
/// line (empty string = no checkpoint to resume from). Written by the
/// launcher so a dead 22-minute run leaves an attributable record, not
/// just scrollback.
obs::Json make_cluster_failure_manifest(const TingeConfig& config,
                                        const std::vector<WorkerExit>& exits,
                                        const std::string& resume_command);

/// make_cluster_failure_manifest + obs::write_json_file.
void write_cluster_failure_manifest(const TingeConfig& config,
                                    const std::vector<WorkerExit>& exits,
                                    const std::string& resume_command,
                                    const std::string& path);

}  // namespace tinge::cluster
