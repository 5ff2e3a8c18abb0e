// The PairStatistic concept: what run_sweep computes per gene pair
// (DESIGN.md §6h).
//
// The sweep executor (core/sweep.h) walks tiles and panels; *what* it
// evaluates for each (i, j) pair is this interface. The B-spline MI
// estimator — the paper's — implements the panel hooks with the SIMD panel
// kernels and stays bit-identical to the pre-plugin executor; every other
// statistic (histogram MI, KSG, |Pearson|, |Spearman|, phi-mixing) rides
// the generic fallback that loops eval_pair over a panel. Estimators are
// selected per run via TingeConfig::estimator (--estimator=...) and flow
// as an opaque handle through the engine, both cluster schedulers, the
// permutation null and the consensus builder.
//
// Contract highlights:
//   * eval_pair/eval_panel receive *rank* rows (a permutation of 0..m-1,
//     uint32 classic or uint16 staged) plus the gene indices; rank-based
//     statistics ignore the indices, value-based ones (Pearson) ignore the
//     rank rows and resolve their gene's raw profile from the indices.
//   * uint16 staged rows are widened losslessly by the generic fallback, so
//     staged and unstaged sweeps agree bitwise for every estimator.
//   * eval_null_pair scores two random permutations of 0..m-1 — the
//     universal permutation null (DESIGN §6b) generalized per statistic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator_kind.h"
#include "mi/bspline_mi.h"

namespace tinge {

struct TingeConfig;
class RankedMatrix;
class ExpressionMatrix;

// --- kernel plan ------------------------------------------------------------

/// Kernel and panel width resolved once per pass, before the parallel
/// region; the stats report the kernel that actually ran. Non-B-spline
/// statistics plan width-1 scalar panels — the generic fallback loops
/// pairs, so only B-spline needs SIMD panels.
struct PanelPlan {
  MiKernel kernel;   ///< concrete kernel handed to every panel sweep
  int width;         ///< panel width B (1..kMaxPanelWidth)
  const char* name;  ///< resolved kernel name for EngineStats
  const char* stat_name = "bspline";  ///< estimator name for stats/metrics
};

// --- scratch ----------------------------------------------------------------

/// Per-context scratch, created once per sweep context and reused across
/// pairs. Statistics subclass it with whatever state their kernel needs
/// (the B-spline JointHistogram, bin count tables, float staging buffers).
/// The wide_x/wide_y buffers belong to the generic uint16 panel fallback
/// (rank widening); eval_pair implementations must not touch them.
struct PairScratch {
  virtual ~PairScratch();
  std::vector<std::uint32_t> wide_x, wide_y;
};

// --- the concept ------------------------------------------------------------

class PairStatistic {
 public:
  virtual ~PairStatistic();

  EstimatorKind kind() const { return kind_; }
  const char* name() const { return estimator_name(kind_); }

  /// Number of samples per profile (m).
  virtual std::size_t n_samples() const = 0;

  /// Shared marginal entropy H(X) in nats, when the statistic has one
  /// (B-spline: every rank profile shares it). 0 otherwise.
  virtual double marginal_entropy() const { return 0.0; }

  /// Resolves the per-pass panel plan. The default is the scalar width-1
  /// plan that drives the generic fallback; B-spline overrides with its
  /// kernel and panel width.
  virtual PanelPlan plan(const TingeConfig& config) const;

  virtual std::unique_ptr<PairScratch> make_scratch() const;

  /// Scores genes i (rank row x) and j (rank row y). Rank rows are
  /// permutations of 0..m-1.
  virtual double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                           std::size_t i, std::size_t j,
                           PairScratch& scratch) const = 0;

  /// Panel evaluation: out[p] = score(gene i, gene j0+p) for p < width.
  /// The default loops eval_pair; B-spline overrides with the panel
  /// kernel. Must be bit-identical to per-pair eval_pair calls.
  virtual void eval_panel(const std::uint32_t* x,
                          const std::uint32_t* const* ys, std::size_t width,
                          std::size_t i, std::size_t j0,
                          MiKernel kernel, PairScratch& scratch,
                          double* out) const;

  /// Staged (uint16) variant. The default widens into the scratch staging
  /// buffers and reuses eval_pair — lossless, so staged sweeps match
  /// unstaged ones bitwise for every statistic.
  virtual void eval_panel(const std::uint16_t* x,
                          const std::uint16_t* const* ys, std::size_t width,
                          std::size_t i, std::size_t j0,
                          MiKernel kernel, PairScratch& scratch,
                          double* out) const;

  /// Scores one permutation-null draw: x and y are two independent random
  /// permutations of 0..m-1. The default delegates to eval_pair with
  /// dummy gene indices; value-based statistics override (Pearson scores
  /// the permutations as rank profiles — a Spearman null).
  virtual double eval_null_pair(const std::uint32_t* x,
                                const std::uint32_t* y,
                                PairScratch& scratch) const;

  /// Checkpoint-signature discretization parameters: journals written with
  /// different values must not resume each other.
  virtual std::uint32_t signature_bins() const = 0;
  virtual std::uint32_t signature_order() const { return 0; }

 protected:
  explicit PairStatistic(EstimatorKind kind) : kind_(kind) {}

 private:
  EstimatorKind kind_;
};

// --- the paper's estimator --------------------------------------------------

/// B-spline MI as a PairStatistic. Wraps a BsplineMi either by reference
/// (caller keeps it alive — engine/test call sites) or by value (the
/// factory and the cluster broadcast path). `kernel` is the kernel of
/// per-pair calls and null draws (width-1 panels); panel sweeps take theirs
/// from the PanelPlan. Both kernels give the same bits.
class BsplineStat final : public PairStatistic {
 public:
  explicit BsplineStat(const BsplineMi& mi, MiKernel kernel = MiKernel::Auto)
      : PairStatistic(EstimatorKind::Bspline), mi_(&mi), kernel_(kernel) {}
  explicit BsplineStat(BsplineMi&& mi, MiKernel kernel = MiKernel::Auto)
      : PairStatistic(EstimatorKind::Bspline),
        owned_(std::make_unique<BsplineMi>(std::move(mi))),
        mi_(owned_.get()),
        kernel_(kernel) {}

  const BsplineMi& bspline() const { return *mi_; }

  std::size_t n_samples() const override { return mi_->n_samples(); }
  double marginal_entropy() const override { return mi_->marginal_entropy(); }
  PanelPlan plan(const TingeConfig& config) const override;
  std::unique_ptr<PairScratch> make_scratch() const override;
  double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                   std::size_t i, std::size_t j,
                   PairScratch& scratch) const override;
  void eval_panel(const std::uint32_t* x, const std::uint32_t* const* ys,
                  std::size_t width, std::size_t i, std::size_t j0,
                  MiKernel kernel, PairScratch& scratch,
                  double* out) const override;
  void eval_panel(const std::uint16_t* x, const std::uint16_t* const* ys,
                  std::size_t width, std::size_t i, std::size_t j0,
                  MiKernel kernel, PairScratch& scratch,
                  double* out) const override;
  double eval_null_pair(const std::uint32_t* x, const std::uint32_t* y,
                        PairScratch& scratch) const override;
  std::uint32_t signature_bins() const override {
    return static_cast<std::uint32_t>(mi_->basis().bins());
  }
  std::uint32_t signature_order() const override {
    return static_cast<std::uint32_t>(mi_->basis().order());
  }

 private:
  std::unique_ptr<BsplineMi> owned_;  ///< set only for the owning ctor
  const BsplineMi* mi_;
  MiKernel kernel_;
};

// --- factory ----------------------------------------------------------------

/// Builds the statistic `config.estimator` selects, sized for `ranked`.
/// `raw` is the expression matrix the ranks were computed from; required by
/// value-based statistics (Pearson) and must outlive the returned handle —
/// pass nullptr only when config.estimator is known to be rank-based.
std::unique_ptr<PairStatistic> make_pair_statistic(
    const TingeConfig& config, const RankedMatrix& ranked,
    const ExpressionMatrix* raw = nullptr);

}  // namespace tinge
