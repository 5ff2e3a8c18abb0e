#include "preprocess/rank_transform.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "parallel/parallel_for.h"

namespace tinge {

namespace {
// Indices 0..m-1 sorted by value with sample order as tiebreak.
std::vector<std::uint32_t> sorted_order(std::span<const float> values) {
  std::vector<std::uint32_t> order(values.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  return order;
}
}  // namespace

std::vector<std::uint32_t> rank_order(std::span<const float> values) {
  for (const float v : values) TINGE_EXPECTS(!std::isnan(v));
  const auto order = sorted_order(values);
  std::vector<std::uint32_t> rank(values.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

std::vector<float> rank_average(std::span<const float> values) {
  for (const float v : values) TINGE_EXPECTS(!std::isnan(v));
  const auto order = sorted_order(values);
  std::vector<float> rank(values.size());
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && values[order[j + 1]] == values[order[i]]) ++j;
    const float avg = static_cast<float>(i + j) / 2.0f;
    for (std::size_t t = i; t <= j; ++t) rank[order[t]] = avg;
    i = j + 1;
  }
  return rank;
}

namespace {

/// Writes gene row `values`' ranks, zero-padded to `stride` elements, to
/// `out` in one memcpy. `out` may be the row's own storage: the values are
/// read in full before the ranks are copied over them.
void rank_row(std::span<const float> values, void* out, std::size_t stride) {
  std::vector<std::uint32_t> ranks = rank_order(values);
  ranks.resize(stride);
  std::memcpy(out, ranks.data(), stride * sizeof(std::uint32_t));
}

/// Runs body(first, last) over genes [0, n): in dynamic blocks on
/// `threads` contexts of `pool` (0 = all), or on the calling thread.
template <typename Body>
void for_gene_blocks(par::ThreadPool* pool, int threads, std::size_t n,
                     const Body& body) {
  if (pool == nullptr) {
    body(std::size_t{0}, n);
    return;
  }
  const int contexts = threads > 0 ? std::min(threads, pool->max_threads())
                                   : pool->max_threads();
  par::parallel_for(*pool, contexts, 0, n, /*grain=*/8, par::Schedule::Dynamic,
                    [&](std::size_t first, std::size_t last, int /*tid*/) {
                      body(first, last);
                    });
}

}  // namespace

RankedMatrix::RankedMatrix(const ExpressionMatrix& matrix)
    : RankedMatrix(matrix, nullptr, 0) {}

RankedMatrix::RankedMatrix(const ExpressionMatrix& matrix,
                           par::ThreadPool& pool, int threads)
    : RankedMatrix(matrix, &pool, threads) {}

RankedMatrix::RankedMatrix(ExpressionMatrix&& matrix)
    : RankedMatrix(std::move(matrix), nullptr, 0) {}

RankedMatrix::RankedMatrix(ExpressionMatrix&& matrix, par::ThreadPool& pool,
                           int threads)
    : RankedMatrix(std::move(matrix), &pool, threads) {}

RankedMatrix::RankedMatrix(const ExpressionMatrix& matrix,
                           par::ThreadPool* pool, int threads)
    : n_genes_(matrix.n_genes()),
      n_samples_(matrix.n_samples()),
      stride_(matrix.stride()),
      ranks_(n_genes_ * stride_, kUninitialized),
      gene_names_(matrix.gene_names()) {
  for_gene_blocks(pool, threads, n_genes_, [&](std::size_t first,
                                               std::size_t last) {
    for (std::size_t g = first; g < last; ++g)
      rank_row(matrix.row(g), ranks_.data() + g * stride_, stride_);
  });
}

RankedMatrix::RankedMatrix(ExpressionMatrix&& matrix, par::ThreadPool* pool,
                           int threads)
    : n_genes_(matrix.n_genes()),
      n_samples_(matrix.n_samples()),
      stride_(matrix.stride()) {
  for_gene_blocks(pool, threads, n_genes_, [&](std::size_t first,
                                               std::size_t last) {
    for (std::size_t g = first; g < last; ++g)
      rank_row(matrix.row(g), matrix.row(g).data(), stride_);
  });
  ranks_ = std::move(matrix.values_).reinterpret_as<std::uint32_t>();
  gene_names_ = std::move(matrix.gene_names_);
  matrix = ExpressionMatrix();
}

StagedRankMatrix::StagedRankMatrix(std::size_t n_genes, std::size_t n_samples)
    : n_genes_(n_genes),
      n_samples_(n_samples),
      stride_(round_up(n_samples == 0 ? 1 : n_samples,
                       kSimdAlignment / sizeof(std::uint16_t))),
      ranks_(n_genes * stride_, kUninitialized) {
  TINGE_EXPECTS(can_stage(n_samples));
}

StagedRankMatrix::StagedRankMatrix(const RankedMatrix& source)
    : StagedRankMatrix(source.n_genes(), source.n_samples()) {
  fill_rows(source, 0, n_genes_);
}

void StagedRankMatrix::fill_rows(const RankedMatrix& source, std::size_t first,
                                 std::size_t last) {
  TINGE_EXPECTS(last <= n_genes_ && first <= last);
  TINGE_EXPECTS(source.n_genes() == n_genes_);
  TINGE_EXPECTS(source.n_samples() == n_samples_);
  for (std::size_t g = first; g < last; ++g) {
    const std::uint32_t* src = source.ranks(g).data();
    std::uint16_t* dst = ranks_.data() + g * stride_;
    for (std::size_t s = 0; s < n_samples_; ++s)
      dst[s] = static_cast<std::uint16_t>(src[s]);
    // Zero the padding tail: kernels only read n_samples_ entries, but
    // uninitialized pad bytes would make rerun checksums nondeterministic.
    for (std::size_t s = n_samples_; s < stride_; ++s) dst[s] = 0;
  }
}

void rank_transform_in_place(ExpressionMatrix& matrix, TiePolicy policy) {
  const std::size_t m = matrix.n_samples();
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    auto row = matrix.row(g);
    if (policy == TiePolicy::StableOrder) {
      const auto ranks = rank_order(row);
      for (std::size_t s = 0; s < m; ++s)
        row[s] = rank_to_unit(static_cast<float>(ranks[s]), m);
    } else {
      const auto ranks = rank_average(row);
      for (std::size_t s = 0; s < m; ++s) row[s] = rank_to_unit(ranks[s], m);
    }
  }
}

}  // namespace tinge
