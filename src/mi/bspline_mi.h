// Facade over basis + weight table + kernels: the B-spline mutual
// information estimator on rank profiles, as used by the network pipeline.
#pragma once

#include <memory>
#include <span>

#include "mi/bspline.h"
#include "mi/bspline_kernels.h"
#include "mi/weight_table.h"

namespace tinge {

class BsplineMi {
 public:
  /// bins/order per Daub et al.; m is the number of experiments.
  BsplineMi(int bins, int order, std::size_t m)
      : basis_(bins, order), table_(m, basis_) {}

  /// Wraps a pre-built (e.g. broadcast-received) weight table; see the
  /// WeightTable deserializing constructor.
  explicit BsplineMi(WeightTable table)
      : basis_(table.bins(), table.order()), table_(std::move(table)) {}

  const BsplineBasis& basis() const { return basis_; }
  const WeightTable& table() const { return table_; }
  std::size_t n_samples() const { return table_.n_samples(); }

  /// Shared marginal entropy H(X) (nats).
  double marginal_entropy() const { return table_.marginal_entropy(); }

  /// Per-thread scratch; create one per worker, reuse across pairs.
  JointHistogram make_scratch() const { return make_kernel_scratch(table_); }

  double joint_entropy(std::span<const std::uint32_t> ranks_x,
                       std::span<const std::uint32_t> ranks_y,
                       JointHistogram& scratch,
                       MiKernel kernel = MiKernel::Auto) const {
    TINGE_EXPECTS(ranks_x.size() >= n_samples());
    TINGE_EXPECTS(ranks_y.size() >= n_samples());
    return tinge::joint_entropy(table_, ranks_x.data(), ranks_y.data(),
                                n_samples(), scratch, kernel);
  }

  /// MI(x, y) = 2 * H_marginal - H(x, y), in nats. Non-negative up to
  /// float rounding of the kernel's entropy pass.
  double mi(std::span<const std::uint32_t> ranks_x,
            std::span<const std::uint32_t> ranks_y, JointHistogram& scratch,
            MiKernel kernel = MiKernel::Auto) const {
    const double h_joint = joint_entropy(ranks_x, ranks_y, scratch, kernel);
    return 2.0 * table_.marginal_entropy() - h_joint;
  }

  /// Batched MI of one row gene against `width` column genes (the panel
  /// kernel, see bspline_kernels.h): mi_out[p] = MI(x, y_p), for uint32
  /// classic or uint16 staged rank rows (RankT). Results are bit-identical
  /// to per-pair mi() for either kernel and either rank width.
  template <typename RankT>
  void mi_panel(const RankT* ranks_x, const RankT* const* ranks_y,
                std::size_t width, JointHistogram& scratch, MiKernel kernel,
                double* mi_out) const {
    tinge::joint_entropy_panel(table_, ranks_x, ranks_y, width, n_samples(),
                               scratch, kernel, mi_out);
    const double h2 = 2.0 * table_.marginal_entropy();
    for (std::size_t p = 0; p < width; ++p) mi_out[p] = h2 - mi_out[p];
  }

 private:
  BsplineBasis basis_;
  WeightTable table_;
};

/// Generic (shared-table-free) B-spline MI on values in [0, 1]:
/// evaluates per-sample weights for both variables, forms the joint and the
/// *consistent* marginals, and returns Hx + Hy - Hxy in nats (always >= 0).
/// Used for Average-tie rank data and for estimator validation; this is the
/// path the pipeline avoids by rank-transforming.
double bspline_mi_direct(std::span<const float> x01, std::span<const float> y01,
                         int bins, int order);

/// B-spline MI over pairwise-complete observations: samples where either
/// profile is NaN are dropped, the survivors are rank-transformed, and the
/// direct estimator runs on them. The alternative to median imputation for
/// sparse missingness (pairwise deletion keeps per-pair information exact
/// at the cost of a varying effective m). Requires >= 8 complete pairs.
double bspline_mi_pairwise_complete(std::span<const float> x,
                                    std::span<const float> y, int bins,
                                    int order);

}  // namespace tinge
