#include "preprocess/filter.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace tinge {

std::size_t impute_missing_with_median(ExpressionMatrix& matrix) {
  std::size_t imputed = 0;
  std::vector<float> finite;
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    auto row = matrix.row(g);
    finite.clear();
    for (const float v : row)
      if (!std::isnan(v)) finite.push_back(v);
    if (finite.size() == row.size()) continue;

    float median = 0.0f;
    if (!finite.empty()) {
      const std::size_t mid = finite.size() / 2;
      std::nth_element(finite.begin(), finite.begin() + mid, finite.end());
      median = finite[mid];
      if (finite.size() % 2 == 0) {
        const float below =
            *std::max_element(finite.begin(), finite.begin() + mid);
        median = (median + below) / 2.0f;
      }
    }
    for (float& v : row) {
      if (std::isnan(v)) {
        v = median;
        ++imputed;
      }
    }
  }
  return imputed;
}

FilterResult filter_genes(ExpressionMatrix&& matrix,
                          const FilterCriteria& criteria) {
  FilterResult result;
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    const Summary s = summarize(matrix.row(g));
    const double missing_fraction =
        matrix.n_samples() == 0
            ? 0.0
            : static_cast<double>(s.missing) /
                  static_cast<double>(matrix.n_samples());
    if (missing_fraction > criteria.max_missing_fraction) {
      ++result.dropped_missing;
      continue;
    }
    if (!(s.variance >= criteria.min_variance)) {
      ++result.dropped_low_variance;
      continue;
    }
    result.kept.push_back(g);
  }
  matrix.keep_genes(result.kept);
  result.matrix = std::move(matrix);
  return result;
}

FilterResult filter_genes(const ExpressionMatrix& matrix,
                          const FilterCriteria& criteria) {
  return filter_genes(matrix.clone(), criteria);
}

}  // namespace tinge
