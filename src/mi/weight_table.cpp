#include "mi/weight_table.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "preprocess/rank_transform.h"
#include "simd/math.h"

namespace tinge {

WeightTable::WeightTable(std::size_t m, const BsplineBasis& basis)
    : m_(m),
      bins_(basis.bins()),
      order_(basis.order()),
      weight_stride_(round_up(static_cast<std::size_t>(basis.order()), 4)),
      weights_(m * weight_stride_),
      first_bin_(m) {
  TINGE_EXPECTS(m >= 2);
  std::vector<double> marginal(static_cast<std::size_t>(bins_), 0.0);
  float local[BsplineBasis::kMaxOrder];
  for (std::size_t r = 0; r < m_; ++r) {
    const float z = rank_to_unit(static_cast<float>(r), m_);
    const int first = basis.evaluate(z, local);
    first_bin_[r] = first;
    float* row = weights_.data() + r * weight_stride_;
    for (int c = 0; c < order_; ++c) {
      row[static_cast<std::size_t>(c)] = local[c];
      marginal[static_cast<std::size_t>(first + c)] += static_cast<double>(local[c]);
    }
    // padding already zero-initialized by AlignedBuffer
  }

  double h = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m_);
  for (const double mass : marginal) {
    const double p = mass * inv_m;
    if (p > 0.0) h -= p * std::log(p);
  }
  marginal_entropy_ = h;
  build_expanded();
}

void WeightTable::build_expanded() {
  constexpr std::size_t kLanes = 16;
  if (bins_ > kMaxVectorBins) return;  // scalar-only shape
  expanded_stride_ = round_up(static_cast<std::size_t>(bins_), kLanes);
  expanded_ = AlignedBuffer<float>(m_ * expanded_stride_);
  for (std::size_t r = 0; r < m_; ++r) {
    const float* src = weights_.data() + r * weight_stride_;
    float* dst = expanded_.data() + r * expanded_stride_ +
                 static_cast<std::size_t>(first_bin_[r]);
    std::copy(src, src + order_, dst);
    // the other columns stay zero (AlignedBuffer zero-initializes)
  }
}

WeightTable::WeightTable(std::size_t m, int bins, int order,
                         std::size_t weight_stride,
                         std::span<const float> weights,
                         std::span<const std::int32_t> first_bin,
                         double marginal_entropy)
    : m_(m),
      bins_(bins),
      order_(order),
      weight_stride_(weight_stride),
      weights_(m * weight_stride),
      first_bin_(m),
      marginal_entropy_(marginal_entropy) {
  TINGE_EXPECTS(m >= 2);
  TINGE_EXPECTS(order >= 1 && bins >= order);
  TINGE_EXPECTS(weight_stride >=
                round_up(static_cast<std::size_t>(order), 4));
  TINGE_EXPECTS(weights.size() == m * weight_stride);
  TINGE_EXPECTS(first_bin.size() == m);
  std::copy(weights.begin(), weights.end(), weights_.data());
  std::copy(first_bin.begin(), first_bin.end(), first_bin_.data());
  build_expanded();
}

}  // namespace tinge
