// Rank transformation of expression profiles.
//
// TINGe rank-transforms every gene before estimating mutual information.
// This serves two purposes:
//   1. Statistical: MI is invariant under monotone transforms, and ranks
//      make the estimate robust to microarray normalization artifacts.
//   2. Computational (the one the paper exploits): after ranking, every
//      gene's profile is a permutation of the SAME multiset
//      {1, 2, ..., m}. All marginal entropies collapse to one constant and
//      all B-spline weight vectors come from one shared m-row table; a gene
//      is then just an array of m rank ids indexing that table.
//
// Tie handling decides whether the shared table applies:
//   * StableOrder — ties broken by sample index (deterministic). Ranks are
//     a true permutation of 0..m-1: the fast shared-table path. TINGe's
//     choice.
//   * Average — tied samples receive the mean of their rank range
//     (fractional). Statistically cleaner for heavily quantized data, but
//     each gene then needs its own B-spline weights (generic path).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/expression_matrix.h"

namespace tinge {

namespace par {
class ThreadPool;
}

enum class TiePolicy { StableOrder, Average };

/// 0-based ranks with ties broken by sample order (a permutation of
/// 0..m-1). Input must be NaN-free (impute first).
std::vector<std::uint32_t> rank_order(std::span<const float> values);

/// 0-based fractional ranks with ties averaged. Input must be NaN-free.
std::vector<float> rank_average(std::span<const float> values);

/// Maps a (possibly fractional) 0-based rank among m to the open unit
/// interval: z = (rank + 0.5) / m. This keeps B-spline evaluation away
/// from the clamped knot boundaries.
inline float rank_to_unit(float rank, std::size_t m) {
  return (rank + 0.5f) / static_cast<float>(m);
}

/// All genes of a matrix ranked with StableOrder ties: the input to the
/// shared-weight-table MI engine. Row g holds the rank ids of gene g's
/// samples, in sample order, padded to the matrix stride.
class RankedMatrix {
 public:
  RankedMatrix() = default;
  explicit RankedMatrix(const ExpressionMatrix& matrix);

  /// The same ranks, with genes ranked in parallel on `threads` contexts of
  /// `pool` (0 = all of them). Genes are independent, so the result is
  /// bit-identical to the single-threaded constructor.
  RankedMatrix(const ExpressionMatrix& matrix, par::ThreadPool& pool,
               int threads);

  /// The same ranks, consuming `matrix`: each row's floats are overwritten
  /// by that row's uint32 ranks and the allocation is adopted (both element
  /// types are 4 bytes at the same padded stride), so ranking never holds a
  /// second matrix. `matrix` is left empty.
  explicit RankedMatrix(ExpressionMatrix&& matrix);
  RankedMatrix(ExpressionMatrix&& matrix, par::ThreadPool& pool, int threads);

  std::size_t n_genes() const { return n_genes_; }
  std::size_t n_samples() const { return n_samples_; }

  std::span<const std::uint32_t> ranks(std::size_t g) const {
    TINGE_EXPECTS(g < n_genes_);
    return {ranks_.data() + g * stride_, n_samples_};
  }

  const std::vector<std::string>& gene_names() const { return gene_names_; }

 private:
  RankedMatrix(const ExpressionMatrix& matrix, par::ThreadPool* pool,
               int threads);
  RankedMatrix(ExpressionMatrix&& matrix, par::ThreadPool* pool, int threads);

  std::size_t n_genes_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t stride_ = 0;
  AlignedBuffer<std::uint32_t> ranks_;
  std::vector<std::string> gene_names_;
};

/// uint16 copy of a RankedMatrix: the memory-bandwidth staging layer of the
/// O(n^2) sweep. Ranks are exact integers < m, so when m fits uint16 the
/// rank rows can be narrowed losslessly, halving the bytes the panel
/// kernels stream per pair (the per-sample table *lookups* are unchanged —
/// a uint16 index selects the same weight row — so MI results are
/// bit-identical to the uint32 path).
///
/// Rows are allocated untouched and filled via fill_rows so the engine can
/// split the fill across its pool, one contiguous block of gene rows per
/// context.
class StagedRankMatrix {
 public:
  /// Largest sample count a uint16 rank can index (ranks are 0..m-1).
  static constexpr std::size_t kMaxStagedSamples = 65536;

  static bool can_stage(std::size_t n_samples) {
    return n_samples <= kMaxStagedSamples;
  }

  StagedRankMatrix() = default;

  /// Allocates rows without touching them. Every gene row must be filled
  /// via fill_rows before it is read.
  StagedRankMatrix(std::size_t n_genes, std::size_t n_samples);

  /// Allocate-and-fill convenience (single-threaded first touch).
  explicit StagedRankMatrix(const RankedMatrix& source);

  /// Narrows genes [first, last) of `source` into this matrix. Thread-safe
  /// for disjoint gene ranges; the calling thread first-touches the pages.
  void fill_rows(const RankedMatrix& source, std::size_t first,
                 std::size_t last);

  std::size_t n_genes() const { return n_genes_; }
  std::size_t n_samples() const { return n_samples_; }

  const std::uint16_t* row(std::size_t g) const {
    TINGE_EXPECTS(g < n_genes_);
    return ranks_.data() + g * stride_;
  }

  std::span<const std::uint16_t> ranks(std::size_t g) const {
    return {row(g), n_samples_};
  }

 private:
  std::size_t n_genes_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t stride_ = 0;
  AlignedBuffer<std::uint16_t> ranks_;
};

/// In-place rank transform of a whole matrix: each gene row is replaced by
/// rank_to_unit(rank) values under the given tie policy. Used by the
/// generic (non-shared-table) estimator path and by baselines (Spearman).
void rank_transform_in_place(ExpressionMatrix& matrix, TiePolicy policy);

}  // namespace tinge
