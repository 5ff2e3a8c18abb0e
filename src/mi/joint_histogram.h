// Per-thread joint-histogram scratch for the pair kernels.
//
// Rows are padded to whole 16-float blocks, so each row starts on a 64-byte
// boundary and the vector kernel's row stores (16 or 32 lanes, the weight
// table's expanded stride) cover the row exactly. With the paper's b in the
// 10-30 range one histogram is a few KB — it lives in L1 for the whole
// tile, which is precisely why the estimator is compute- rather than
// memory-bound.
//
// A histogram can carry `replicas` stacked copies (each bins x stride):
// the panel kernel writes member p of a panel into region p.
//
// The scratch also carries the kernels' row-gene memo (RowOrderMemo): the
// row gene's samples sorted by first bin, reused by every panel call that
// passes the same rank row.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/aligned.h"

namespace tinge {

/// The B-spline kernels' per-row-gene work (bspline_kernels.cpp): the row
/// gene's samples stably counting-sorted by first bin. Valid for the rank
/// row whose bytes are `key`, under the weight table identified by
/// `table`/`bins`/`order`; the kernels rebuild it when a call passes a
/// different row.
struct RowOrderMemo {
  const float* table = nullptr;  ///< WeightTable::weights_data() of the build
  int bins = 0;
  int order = 0;
  std::vector<unsigned char> key;      ///< bytes of the rank row
  std::vector<std::uint32_t> sample;   ///< sample index, in sorted order
  std::vector<std::uint32_t> rank;     ///< the row gene's rank, same order
  std::vector<std::uint32_t> group_begin;  ///< bins - order + 2 offsets
};

class JointHistogram {
 public:
  /// Row stride (floats) of a histogram of `bins` bins: `bins` rounded up
  /// to whole 16-float blocks. Exposed so sizing policies (panel width
  /// selection) can compute a histogram's footprint without allocating one.
  static constexpr std::size_t stride_for(int bins) {
    return round_up(static_cast<std::size_t>(bins),
                    kSimdAlignment / sizeof(float));
  }

  explicit JointHistogram(int bins, int replicas = 1)
      : bins_(bins),
        replicas_(replicas),
        stride_(stride_for(bins)),
        cells_(static_cast<std::size_t>(bins) * static_cast<std::size_t>(replicas) *
               stride_) {
    TINGE_EXPECTS(bins >= 1);
    TINGE_EXPECTS(replicas >= 1);
  }

  int bins() const { return bins_; }
  int replicas() const { return replicas_; }
  std::size_t stride() const { return stride_; }

  /// Cells in one replica (bins * stride).
  std::size_t replica_cells() const {
    return static_cast<std::size_t>(bins_) * stride_;
  }
  /// Cells in the whole allocation.
  std::size_t cell_count() const { return cells_.size(); }

  float* data() { return cells_.data(); }
  const float* data() const { return cells_.data(); }

  float* row(int i, int replica = 0) {
    TINGE_EXPECTS(i >= 0 && i < bins_);
    TINGE_EXPECTS(replica >= 0 && replica < replicas_);
    return cells_.data() + static_cast<std::size_t>(replica) * replica_cells() +
           static_cast<std::size_t>(i) * stride_;
  }
  const float* row(int i, int replica = 0) const {
    return const_cast<JointHistogram*>(this)->row(i, replica);
  }

  void clear() { std::memset(cells_.data(), 0, cells_.size() * sizeof(float)); }

  RowOrderMemo& row_order() { return row_order_; }

  /// Sum over all cells (diagnostics; equals m after an accumulation pass).
  double total_mass() const {
    double total = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) total += cells_.data()[i];
    return total;
  }

 private:
  int bins_;
  int replicas_;
  std::size_t stride_;
  AlignedBuffer<float> cells_;
  RowOrderMemo row_order_;
};

}  // namespace tinge
