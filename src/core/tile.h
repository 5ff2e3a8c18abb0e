// Cache-blocked decomposition of the upper-triangular pair space.
//
// All n*(n-1)/2 gene pairs are grouped into T x T tiles. A thread working a
// tile touches only 2T rank profiles plus its private histogram; T is chosen
// so that working set fits in cache (the tile-size ablation, experiment F5,
// sweeps it). Tiles are the unit of dynamic scheduling, exactly as in the
// paper.
#pragma once

#include <cstddef>
#include <vector>

#include "util/contracts.h"

namespace tinge {

struct Tile {
  std::size_t row_begin = 0, row_end = 0;  ///< gene range on the x side
  std::size_t col_begin = 0, col_end = 0;  ///< gene range on the y side

  /// Diagonal tiles enumerate i < j inside the block; off-diagonal tiles
  /// enumerate the full cross product.
  bool diagonal() const { return row_begin == col_begin; }

  /// Number of (i, j), i < j pairs in this tile.
  std::size_t pair_count() const {
    const std::size_t rows = row_end - row_begin;
    const std::size_t cols = col_end - col_begin;
    return diagonal() ? rows * (rows - 1) / 2 : rows * cols;
  }
};

/// Appends the T x T tiling of the upper triangle of [gene_begin, gene_end)
/// to `out`, row-major over block rows then block columns, skipping tiles
/// with zero (i < j) pairs. This enumeration order defines tile indices for
/// both the scheduler and the checkpoint journal — TileSet and every
/// SweepPlan factory share it so journal indices stay stable.
void append_triangle_tiles(std::size_t gene_begin, std::size_t gene_end,
                           std::size_t tile_size, std::vector<Tile>& out);

class TileSet {
 public:
  TileSet(std::size_t n_genes, std::size_t tile_size);

  std::size_t count() const { return tiles_.size(); }
  const Tile& tile(std::size_t index) const {
    TINGE_EXPECTS(index < tiles_.size());
    return tiles_[index];
  }

  std::size_t n_genes() const { return n_genes_; }
  std::size_t tile_size() const { return tile_size_; }

  /// Sum of pair_count over all tiles == n*(n-1)/2.
  std::size_t total_pairs() const;

 private:
  std::size_t n_genes_;
  std::size_t tile_size_;
  std::vector<Tile> tiles_;
};

/// Visits every pair (i, j), i < j of a tile in row-major order.
template <typename Visitor>
void for_each_pair(const Tile& tile, Visitor&& visit) {
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    const std::size_t j_begin =
        tile.diagonal() ? std::max(i + 1, tile.col_begin) : tile.col_begin;
    for (std::size_t j = j_begin; j < tile.col_end; ++j) visit(i, j);
  }
}

/// Visits the tile's pairs as row-gene panels: for each row gene i its
/// column range is chopped into runs of at most `max_width` consecutive
/// column genes and visit(i, j_first, width) is called per run. The final
/// run of a row (and every run of a short row) is narrower than max_width —
/// the ragged-tail case panel kernels must handle. Covers exactly the pairs
/// for_each_pair visits, in the same row-major order.
template <typename Visitor>
void for_each_row_panel(const Tile& tile, std::size_t max_width,
                        Visitor&& visit) {
  TINGE_EXPECTS(max_width >= 1);
  for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
    const std::size_t j_begin =
        tile.diagonal() ? std::max(i + 1, tile.col_begin) : tile.col_begin;
    for (std::size_t j = j_begin; j < tile.col_end; j += max_width)
      visit(i, j, std::min(max_width, tile.col_end - j));
  }
}

}  // namespace tinge
