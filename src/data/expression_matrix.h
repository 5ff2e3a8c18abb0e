// The gene expression matrix: n genes x m experiments (microarrays).
//
// Layout matters: the MI kernels stream two gene rows at a time, so rows are
// stored contiguously with a 64-byte-aligned, SIMD-width-padded stride.
// Missing microarray spots are quiet NaNs until preprocessing imputes them.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/aligned.h"
#include "util/contracts.h"

namespace tinge {

class RankedMatrix;

class ExpressionMatrix {
 public:
  /// Floats per row for `n_samples` samples: padded to the SIMD alignment
  /// (at least one full line, even for zero samples).
  static std::size_t padded_stride(std::size_t n_samples);

  ExpressionMatrix() = default;

  /// Zero-initialized n_genes x n_samples matrix with default names
  /// ("g0001".., "s0001"..).
  ExpressionMatrix(std::size_t n_genes, std::size_t n_samples);

  ExpressionMatrix(std::size_t n_genes, std::size_t n_samples,
                   std::vector<std::string> gene_names,
                   std::vector<std::string> sample_names);

  /// Adopts `values` as the rows, padded_stride(sample_names.size()) floats
  /// apart: the TSV reader parses straight into such a buffer. `values`
  /// holds at least one row per gene; a longer tail is never read.
  ExpressionMatrix(std::vector<std::string> gene_names,
                   std::vector<std::string> sample_names,
                   AlignedBuffer<float> values);

  ExpressionMatrix(ExpressionMatrix&&) = default;
  ExpressionMatrix& operator=(ExpressionMatrix&&) = default;
  ExpressionMatrix(const ExpressionMatrix&) = delete;
  ExpressionMatrix& operator=(const ExpressionMatrix&) = delete;

  ExpressionMatrix clone() const;

  std::size_t n_genes() const { return n_genes_; }
  std::size_t n_samples() const { return n_samples_; }
  std::size_t stride() const { return stride_; }

  /// Expression profile of gene `g` (length n_samples).
  std::span<float> row(std::size_t g) {
    TINGE_EXPECTS(g < n_genes_);
    return {values_.data() + g * stride_, n_samples_};
  }
  std::span<const float> row(std::size_t g) const {
    TINGE_EXPECTS(g < n_genes_);
    return {values_.data() + g * stride_, n_samples_};
  }

  float& at(std::size_t g, std::size_t s) {
    TINGE_EXPECTS(g < n_genes_ && s < n_samples_);
    return values_.data()[g * stride_ + s];
  }
  float at(std::size_t g, std::size_t s) const {
    TINGE_EXPECTS(g < n_genes_ && s < n_samples_);
    return values_.data()[g * stride_ + s];
  }

  const std::vector<std::string>& gene_names() const { return gene_names_; }
  const std::vector<std::string>& sample_names() const { return sample_names_; }
  const std::string& gene_name(std::size_t g) const {
    TINGE_EXPECTS(g < n_genes_);
    return gene_names_[g];
  }

  /// Index of the named gene, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find_gene(const std::string& name) const;

  /// Total missing (NaN) entries.
  std::size_t count_missing() const;

  /// New matrix containing only the genes in `keep` (order preserved).
  ExpressionMatrix select_genes(const std::vector<std::size_t>& keep) const;

  /// In-place select_genes for a strictly increasing `keep`: each kept row
  /// moves up over the dropped ones, so no second matrix is allocated.
  void keep_genes(const std::vector<std::size_t>& keep);

 private:
  // The consuming rank transform rewrites each row as uint32 ranks in
  // place and adopts the allocation and the gene names.
  friend class RankedMatrix;

  std::size_t n_genes_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t stride_ = 0;  // floats per row, padded to the SIMD alignment
  AlignedBuffer<float> values_;
  std::vector<std::string> gene_names_;
  std::vector<std::string> sample_names_;
};

}  // namespace tinge
