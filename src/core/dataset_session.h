// One dataset's pass through the pipeline: the stage order written once.
//
// The paper's pipeline (DESIGN.md §1) runs in one fixed order: impute ->
// filter -> rank transform (stage 1), the pair statistic with its shared
// B-spline weight table (2), the universal permutation null and its
// threshold I_alpha (3), the thresholded all-pairs sweep or the bootstrap
// consensus vote (4), then optional DPI (5). A DatasetSession runs stages
// 1-3 once at construction and owns what they produce; stages 4-5 run from
// one const method, as often as a caller asks.
//
// NetworkBuilder runs the network stage once, the serve daemon at startup
// and again for every sweep job, and a one-rank cluster build once; a
// multi-rank build takes its preprocessing from preprocess_expression and
// rank 0's stages 1-3 from a session (cluster/sharded_pipeline.h).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>

#include "core/config.h"
#include "core/consensus.h"
#include "core/dpi.h"
#include "core/mi_engine.h"
#include "core/pair_statistic.h"
#include "data/expression_matrix.h"
#include "graph/network.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"
#include "stats/quantile.h"

namespace tinge {

namespace obs {
class Trace;
}  // namespace obs

/// Stage announcement sink (one line per stage); empty = silent.
using StageLog = std::function<void(std::string_view)>;

/// Pool width for a pipeline run: config.threads, or every hardware thread
/// of the host when it is 0.
int pipeline_threads(const TingeConfig& config);

/// Whether stage 1 keeps the float values once it has ranked them.
/// IfRead keeps them only when the build reads them after ranking: the
/// Pearson statistic and the consensus vote's column resampling. Every
/// other build ranks in place, so the ranks take over the values'
/// allocation. Always keeps them for a caller that may build a
/// value-reading statistic later (the serve daemon's on-demand
/// estimators).
enum class KeepValues { IfRead, Always };

/// True when `config`'s build reads the float values after ranking.
bool reads_values(const TingeConfig& config);

/// Stage 1's products: the imputed, filtered expression matrix (value-based
/// statistics and consensus read it; empty when dropped at ranking) and its
/// rank transform.
struct PreprocessedData {
  ExpressionMatrix working;
  RankedMatrix ranked;
  std::size_t genes_in = 0;    ///< before filtering
  std::size_t genes_used = 0;  ///< after filtering
  std::size_t imputed_cells = 0;
};

/// Stage 1: impute -> filter -> rank transform, each on the one matrix
/// `expression` moved in: the filter compacts its rows in place and, unless
/// `keep` asks for the values, the rank transform overwrites them. Ranks on
/// `pool` when given, on the calling thread otherwise (one-thread cluster
/// ranks). Opens the preprocess(impute, filter, rank) spans on `trace` and
/// logs one summary line when they are set. Throws ContractViolation when
/// fewer than two genes survive the filter.
PreprocessedData preprocess_expression(ExpressionMatrix&& expression,
                                       const TingeConfig& config,
                                       par::ThreadPool* pool,
                                       obs::Trace* trace = nullptr,
                                       const StageLog& log = {},
                                       KeepValues keep = KeepValues::IfRead);

/// What the network stage produces.
struct SessionNetwork {
  /// The thresholded sweep's network, or the consensus network (edge
  /// weights are then support frequencies); DPI-pruned when configured.
  GeneNetwork network;
  EngineStats engine;        ///< the sweep's; default in consensus mode
  ConsensusStats consensus;  ///< zero unless config.consensus_resamples > 0
  DpiStats dpi;              ///< zero unless config.apply_dpi
};

class DatasetSession {
 public:
  using Progress = std::function<void(std::size_t, std::size_t)>;

  /// Validates `config` and runs stages 1-3 on `pool`: preprocess, the pair
  /// statistic config.estimator selects, the universal null and its
  /// threshold (also published as the null.threshold gauge). With a trace
  /// and a log it opens the preprocess, weight_table, null and threshold
  /// spans and announces each stage. `keep` decides whether working()
  /// still holds the values afterwards. `pool` (and `trace`) must outlive
  /// the session.
  DatasetSession(ExpressionMatrix&& expression, const TingeConfig& config,
                 par::ThreadPool& pool, obs::Trace* trace = nullptr,
                 StageLog log = {}, KeepValues keep = KeepValues::IfRead);

  // The statistic and any engine hold references into the session.
  DatasetSession(const DatasetSession&) = delete;
  DatasetSession& operator=(const DatasetSession&) = delete;

  /// Stages 4-5: the consensus vote when config.consensus_resamples > 0,
  /// otherwise the thresholded sweep (checkpointed when
  /// config.checkpoint_path is set: the journal is deleted on success
  /// unless `keep_checkpoint`, so a later session can replay it); then DPI
  /// when config.apply_dpi. Opens the mi_sweep and dpi spans.
  /// `progress(done, total)` reports per tile on the checkpointed sweep,
  /// which has a per-tile callback, and the endpoints (0, 1) and (1, 1)
  /// otherwise. Deterministic: every call returns the same network.
  SessionNetwork build_network(const Progress& progress = {},
                               bool keep_checkpoint = false) const;

  const TingeConfig& config() const { return config_; }
  /// The preprocessed values; empty when stage 1 dropped them at ranking.
  const ExpressionMatrix& working() const { return data_.working; }
  const RankedMatrix& ranked() const { return data_.ranked; }
  const PairStatistic& statistic() const { return *statistic_; }
  const std::shared_ptr<const EmpiricalDistribution>& null() const {
    return null_;
  }
  double threshold() const { return threshold_; }
  std::size_t genes_in() const { return data_.genes_in; }
  std::size_t genes_used() const { return data_.genes_used; }
  std::size_t imputed_cells() const { return data_.imputed_cells; }

 private:
  TingeConfig config_;
  par::ThreadPool& pool_;
  obs::Trace* trace_;
  StageLog log_;
  PreprocessedData data_;
  std::unique_ptr<PairStatistic> statistic_;
  std::shared_ptr<const EmpiricalDistribution> null_;
  double threshold_ = 0.0;
};

}  // namespace tinge
