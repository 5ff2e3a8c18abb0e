// Slow, obviously-correct double-precision reference implementations used
// to validate the optimized kernels. Test-only code.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "mi/bspline.h"
#include "preprocess/rank_transform.h"

namespace tinge::testref {

/// Largest |H_kernel - H_reference| (nats) the float kernels may show
/// against joint_entropy_reference below, for m up to the paper's 3,137
/// samples. The kernels sum each float histogram cell in their canonical
/// order; every cell holds at most m contributions of at most one, so its
/// rounding error stays far below one part in 10^4 of its mass, and the
/// entropy pass adds double-precision rounding only. Checked at m = 3,137
/// in test_kernel_paths.cpp and at small m across every (bins, order)
/// shape in test_mi_kernels.cpp / test_panel_kernels.cpp.
inline constexpr double kJointEntropyBound = 5e-4;

/// Joint entropy H(X,Y) in nats via a dense double-precision histogram,
/// evaluating B-spline weights from scratch for every sample.
inline double joint_entropy_reference(std::span<const std::uint32_t> ranks_x,
                                      std::span<const std::uint32_t> ranks_y,
                                      int bins, int order) {
  const BsplineBasis basis(bins, order);
  const std::size_t m = ranks_x.size();
  const auto b = static_cast<std::size_t>(bins);
  std::vector<double> joint(b * b, 0.0);
  std::vector<float> wx(static_cast<std::size_t>(order));
  std::vector<float> wy(static_cast<std::size_t>(order));
  for (std::size_t j = 0; j < m; ++j) {
    const int fx = basis.evaluate(
        rank_to_unit(static_cast<float>(ranks_x[j]), m), wx.data());
    const int fy = basis.evaluate(
        rank_to_unit(static_cast<float>(ranks_y[j]), m), wy.data());
    for (int a = 0; a < order; ++a)
      for (int c = 0; c < order; ++c)
        joint[static_cast<std::size_t>(fx + a) * b +
              static_cast<std::size_t>(fy + c)] +=
            static_cast<double>(wx[static_cast<std::size_t>(a)]) *
            static_cast<double>(wy[static_cast<std::size_t>(c)]);
  }
  double h = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);
  for (const double cell : joint) {
    const double p = cell * inv_m;
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

/// Marginal entropy of the shared rank distribution, same construction.
inline double marginal_entropy_reference(std::size_t m, int bins, int order) {
  const BsplineBasis basis(bins, order);
  const auto b = static_cast<std::size_t>(bins);
  std::vector<double> marginal(b, 0.0);
  std::vector<float> w(static_cast<std::size_t>(order));
  for (std::size_t r = 0; r < m; ++r) {
    const int first =
        basis.evaluate(rank_to_unit(static_cast<float>(r), m), w.data());
    for (int a = 0; a < order; ++a)
      marginal[static_cast<std::size_t>(first + a)] +=
          static_cast<double>(w[static_cast<std::size_t>(a)]);
  }
  double h = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);
  for (const double cell : marginal) {
    const double p = cell * inv_m;
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

/// Reference MI from ranks.
inline double mi_reference(std::span<const std::uint32_t> ranks_x,
                           std::span<const std::uint32_t> ranks_y, int bins,
                           int order) {
  return 2.0 * marginal_entropy_reference(ranks_x.size(), bins, order) -
         joint_entropy_reference(ranks_x, ranks_y, bins, order);
}

}  // namespace tinge::testref
