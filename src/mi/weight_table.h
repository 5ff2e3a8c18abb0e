// The shared rank -> B-spline-weight table.
//
// After the StableOrder rank transform every gene's profile is a permutation
// of the ranks 0..m-1, so the B-spline weights of "the sample with rank r"
// are the same for every gene. This table stores, for each rank r:
//   * first_bin[r]  — index of the first histogram bin the sample touches,
//   * weights[r][0..order) — the basis weights (padded with zeros to a
//     SIMD-friendly stride so kernels can issue full-width loads).
//
// This is the paper's first key restructuring: it removes all per-pair
// B-spline evaluation from the O(n^2) stage and turns the kernel into pure
// table-driven fused multiply-adds. It also makes the marginal entropy a
// single dataset-wide constant, exposed here.
//
// Two layouts of the same floats coexist:
//   * classic — weights_ (m x weight_stride floats) and first_bin_ (m
//     int32): the order weights of each rank. The scalar reference kernel
//     reads this.
//   * expanded — m rows of expanded_stride (16 or 32) floats, one lane per
//     histogram column: row r holds rank r's weights at columns
//     first_bin(r) .. first_bin(r)+order-1 and zeros elsewhere. It is the
//     vector kernel's y operand: one aligned load per sample gives a whole
//     histogram row's update, and the zero lanes leave the accumulators
//     bitwise unchanged. Built only when bins <= 32 (the vector kernel's
//     limit); m x 64 bytes at the paper's b = 10.
#pragma once

#include <cstdint>
#include <span>

#include "mi/bspline.h"
#include "util/aligned.h"

namespace tinge {

/// Largest bin count with expanded rows, and so the largest the vector
/// kernel runs (two 16-lane vectors per histogram row above 16 bins).
inline constexpr int kMaxVectorBins = 32;

class WeightTable {
 public:
  /// Builds the table for m samples (ranks 0..m-1 mapped to the open unit
  /// interval via (r + 0.5)/m, see rank_transform.h).
  WeightTable(std::size_t m, const BsplineBasis& basis);

  /// Reconstructs a table from its serialized pieces (the cluster pipeline
  /// builds the table once on rank 0 and broadcasts it; receiving ranks use
  /// this instead of recomputing). `weights` must be m * weight_stride
  /// floats and `first_bin` m entries, laid out exactly as weights_data()
  /// / first_bin_data() expose them.
  WeightTable(std::size_t m, int bins, int order, std::size_t weight_stride,
              std::span<const float> weights,
              std::span<const std::int32_t> first_bin,
              double marginal_entropy);

  std::size_t n_samples() const { return m_; }
  int bins() const { return bins_; }
  int order() const { return order_; }

  /// Floats per weight row (>= order, zero padded, multiple of 4).
  std::size_t weight_stride() const { return weight_stride_; }

  const float* weights_data() const { return weights_.data(); }
  const std::int32_t* first_bin_data() const { return first_bin_.data(); }

  /// Floats per expanded row: 16 for bins <= 16, 32 for bins <= 32, 0 when
  /// the table has more bins than the vector kernel handles (no expanded
  /// rows are built then).
  std::size_t expanded_stride() const { return expanded_stride_; }

  /// The expanded rows: expanded_data()[r * expanded_stride() + c] is the
  /// weight of rank r in histogram column c (zero outside its order
  /// columns). Rows are 64-byte aligned.
  const float* expanded_data() const { return expanded_.data(); }

  std::span<const float> weights(std::size_t rank) const {
    TINGE_EXPECTS(rank < m_);
    return {weights_.data() + rank * weight_stride_, weight_stride_};
  }
  std::int32_t first_bin(std::size_t rank) const {
    TINGE_EXPECTS(rank < m_);
    return first_bin_[rank];
  }

  /// H(X) of the shared marginal distribution (nats). Identical for all
  /// genes by construction; MI(x, y) = 2 * marginal_entropy() - H(x, y).
  double marginal_entropy() const { return marginal_entropy_; }

 private:
  void build_expanded();

  std::size_t m_;
  int bins_;
  int order_;
  std::size_t weight_stride_;
  std::size_t expanded_stride_ = 0;
  AlignedBuffer<float> weights_;        // m x weight_stride
  AlignedBuffer<std::int32_t> first_bin_;  // m
  AlignedBuffer<float> expanded_;       // m x expanded_stride
  double marginal_entropy_ = 0.0;
};

}  // namespace tinge
