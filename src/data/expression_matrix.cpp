#include "data/expression_matrix.h"

#include <algorithm>
#include <cmath>

#include "util/str.h"

namespace tinge {

namespace {
std::vector<std::string> default_names(const char* prefix, std::size_t count) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    names.push_back(strprintf("%s%05zu", prefix, i));
  return names;
}
}  // namespace

std::size_t ExpressionMatrix::padded_stride(std::size_t n_samples) {
  const std::size_t floats_per_line = kSimdAlignment / sizeof(float);
  return round_up(n_samples == 0 ? 1 : n_samples, floats_per_line);
}

ExpressionMatrix::ExpressionMatrix(std::size_t n_genes, std::size_t n_samples)
    : ExpressionMatrix(n_genes, n_samples, default_names("g", n_genes),
                       default_names("s", n_samples)) {}

ExpressionMatrix::ExpressionMatrix(std::size_t n_genes, std::size_t n_samples,
                                   std::vector<std::string> gene_names,
                                   std::vector<std::string> sample_names)
    : n_genes_(n_genes),
      n_samples_(n_samples),
      stride_(padded_stride(n_samples)),
      values_(n_genes * stride_),
      gene_names_(std::move(gene_names)),
      sample_names_(std::move(sample_names)) {
  TINGE_EXPECTS(gene_names_.size() == n_genes_);
  TINGE_EXPECTS(sample_names_.size() == n_samples_);
}

ExpressionMatrix::ExpressionMatrix(std::vector<std::string> gene_names,
                                   std::vector<std::string> sample_names,
                                   AlignedBuffer<float> values)
    : n_genes_(gene_names.size()),
      n_samples_(sample_names.size()),
      stride_(padded_stride(n_samples_)),
      values_(std::move(values)),
      gene_names_(std::move(gene_names)),
      sample_names_(std::move(sample_names)) {
  TINGE_EXPECTS(values_.size() >= n_genes_ * stride_);
}

ExpressionMatrix ExpressionMatrix::clone() const {
  ExpressionMatrix copy(n_genes_, n_samples_, gene_names_, sample_names_);
  for (std::size_t g = 0; g < n_genes_; ++g) {
    const auto src = row(g);
    auto dst = copy.row(g);
    for (std::size_t s = 0; s < n_samples_; ++s) dst[s] = src[s];
  }
  return copy;
}

std::size_t ExpressionMatrix::find_gene(const std::string& name) const {
  for (std::size_t g = 0; g < n_genes_; ++g)
    if (gene_names_[g] == name) return g;
  return npos;
}

std::size_t ExpressionMatrix::count_missing() const {
  std::size_t missing = 0;
  for (std::size_t g = 0; g < n_genes_; ++g)
    for (const float v : row(g))
      if (std::isnan(v)) ++missing;
  return missing;
}

ExpressionMatrix ExpressionMatrix::select_genes(
    const std::vector<std::size_t>& keep) const {
  std::vector<std::string> names;
  names.reserve(keep.size());
  for (const std::size_t g : keep) {
    TINGE_EXPECTS(g < n_genes_);
    names.push_back(gene_names_[g]);
  }
  ExpressionMatrix out(keep.size(), n_samples_, std::move(names), sample_names_);
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const auto src = row(keep[i]);
    auto dst = out.row(i);
    for (std::size_t s = 0; s < n_samples_; ++s) dst[s] = src[s];
  }
  return out;
}

void ExpressionMatrix::keep_genes(const std::vector<std::size_t>& keep) {
  for (std::size_t i = 0; i < keep.size(); ++i) {
    TINGE_EXPECTS(keep[i] < n_genes_);
    TINGE_EXPECTS(i == 0 || keep[i - 1] < keep[i]);
  }
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const std::size_t g = keep[i];
    if (g == i) continue;
    std::copy_n(values_.data() + g * stride_, stride_,
                values_.data() + i * stride_);
    gene_names_[i] = std::move(gene_names_[g]);
  }
  n_genes_ = keep.size();
  gene_names_.resize(n_genes_);
}

}  // namespace tinge
