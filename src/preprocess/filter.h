// Gene filtering and missing-value handling.
//
// Whole-genome compendia contain probes that never vary (dead spots,
// unexpressed genes) and arrays with missing measurements. TINGe's
// preprocessing imputes missing spots and drops uninformative genes before
// the O(n^2) MI stage — every gene removed here saves n pair computations.
#pragma once

#include <cstddef>
#include <vector>

#include "data/expression_matrix.h"

namespace tinge {

/// Replaces each NaN with the gene's median over finite entries (0 if a
/// gene is entirely missing). Returns the number of imputed cells.
std::size_t impute_missing_with_median(ExpressionMatrix& matrix);

struct FilterCriteria {
  double min_variance = 1e-12;       ///< drop genes with variance below this
  double max_missing_fraction = 0.3; ///< drop genes with more NaNs than this
};

struct FilterResult {
  ExpressionMatrix matrix;             ///< surviving genes, original order
  std::vector<std::size_t> kept;       ///< original index of each kept gene
  std::size_t dropped_low_variance = 0;
  std::size_t dropped_missing = 0;
};

/// Applies the criteria (missing fraction is evaluated before imputation,
/// so call this first) in place: the kept rows move up over the dropped
/// ones and `matrix` becomes result.matrix, so no second matrix exists.
FilterResult filter_genes(ExpressionMatrix&& matrix,
                          const FilterCriteria& criteria);

/// The same filter on a copy; the input matrix is not modified.
FilterResult filter_genes(const ExpressionMatrix& matrix,
                          const FilterCriteria& criteria);

}  // namespace tinge
