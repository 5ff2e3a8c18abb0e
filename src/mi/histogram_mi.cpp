#include "mi/histogram_mi.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/contracts.h"

namespace tinge {

namespace {

struct JointCounts {
  std::vector<double> joint;  // b x b
  std::vector<double> px, py;
  std::size_t m = 0;
  int bins = 0;

  double mi() const {
    const double inv_m = 1.0 / static_cast<double>(m);
    const auto plogp = [inv_m](double c) {
      return c > 0 ? c * inv_m * std::log(c * inv_m) : 0.0;
    };
    double h_x = 0.0, h_y = 0.0, h_xy = 0.0;
    for (const double c : px)
      if (c > 0) h_x -= c * inv_m * std::log(c * inv_m);
    for (const double c : py)
      if (c > 0) h_y -= c * inv_m * std::log(c * inv_m);
    // Swapping the arguments transposes the joint table. Summing the
    // diagonal, then each cell with its transpose (the smaller count
    // first), evaluates the same expressions on the same values either
    // way, so MI(x, y) and MI(y, x) agree bit for bit.
    const auto b = static_cast<std::size_t>(bins);
    for (std::size_t i = 0; i < b; ++i) {
      h_xy -= plogp(joint[i * b + i]);
      for (std::size_t j = i + 1; j < b; ++j) {
        const auto [lo, hi] = std::minmax(joint[i * b + j], joint[j * b + i]);
        h_xy -= plogp(lo) + plogp(hi);
      }
    }
    return h_x + h_y - h_xy;
  }

  double miller_madow_bias() const {
    std::size_t k_xy = 0, k_x = 0, k_y = 0;
    for (const double c : joint)
      if (c > 0) ++k_xy;
    for (const double c : px)
      if (c > 0) ++k_x;
    for (const double c : py)
      if (c > 0) ++k_y;
    return (static_cast<double>(k_xy) - static_cast<double>(k_x) -
            static_cast<double>(k_y) + 1.0) /
           (2.0 * static_cast<double>(m));
  }
};

template <typename BinOfX, typename BinOfY>
JointCounts count(std::size_t m, int bins, BinOfX&& bin_x, BinOfY&& bin_y) {
  JointCounts counts;
  counts.m = m;
  counts.bins = bins;
  const auto b = static_cast<std::size_t>(bins);
  counts.joint.assign(b * b, 0.0);
  counts.px.assign(b, 0.0);
  counts.py.assign(b, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t bx = bin_x(j);
    const std::size_t by = bin_y(j);
    counts.joint[bx * b + by] += 1.0;
    counts.px[bx] += 1.0;
    counts.py[by] += 1.0;
  }
  return counts;
}

std::size_t rank_bin(std::uint32_t rank, std::size_t m, int bins) {
  return static_cast<std::size_t>(rank) * static_cast<std::size_t>(bins) / m;
}

std::size_t value_bin(float v01, int bins) {
  TINGE_EXPECTS(v01 >= 0.0f && v01 <= 1.0f);
  const auto b = static_cast<std::size_t>(bins);
  const auto bin = static_cast<std::size_t>(static_cast<double>(v01) *
                                            static_cast<double>(bins));
  return std::min(bin, b - 1);
}

JointCounts counts_from_ranks(std::span<const std::uint32_t> rx,
                              std::span<const std::uint32_t> ry, int bins) {
  TINGE_EXPECTS(rx.size() == ry.size());
  TINGE_EXPECTS(rx.size() >= 2);
  TINGE_EXPECTS(bins >= 1);
  const std::size_t m = rx.size();
  return count(
      m, bins, [&](std::size_t j) { return rank_bin(rx[j], m, bins); },
      [&](std::size_t j) { return rank_bin(ry[j], m, bins); });
}

}  // namespace

double histogram_mi_from_ranks(std::span<const std::uint32_t> rx,
                               std::span<const std::uint32_t> ry, int bins) {
  return counts_from_ranks(rx, ry, bins).mi();
}

double histogram_mi(std::span<const float> x01, std::span<const float> y01,
                    int bins) {
  TINGE_EXPECTS(x01.size() == y01.size());
  TINGE_EXPECTS(x01.size() >= 2);
  TINGE_EXPECTS(bins >= 1);
  return count(
             x01.size(), bins,
             [&](std::size_t j) { return value_bin(x01[j], bins); },
             [&](std::size_t j) { return value_bin(y01[j], bins); })
      .mi();
}

double histogram_mi_miller_madow(std::span<const std::uint32_t> rx,
                                 std::span<const std::uint32_t> ry, int bins) {
  const JointCounts counts = counts_from_ranks(rx, ry, bins);
  return counts.mi() - counts.miller_madow_bias();
}

}  // namespace tinge
