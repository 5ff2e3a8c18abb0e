#include "core/tile.h"

#include <algorithm>

namespace tinge {

void append_triangle_tiles(std::size_t gene_begin, std::size_t gene_end,
                           std::size_t tile_size, std::vector<Tile>& out) {
  TINGE_EXPECTS(tile_size >= 1);
  TINGE_EXPECTS(gene_begin <= gene_end);
  const std::size_t n = gene_end - gene_begin;
  const std::size_t blocks = (n + tile_size - 1) / tile_size;
  out.reserve(out.size() + blocks * (blocks + 1) / 2);
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    for (std::size_t bj = bi; bj < blocks; ++bj) {
      Tile tile;
      tile.row_begin = gene_begin + bi * tile_size;
      tile.row_end = std::min(tile.row_begin + tile_size, gene_end);
      tile.col_begin = gene_begin + bj * tile_size;
      tile.col_end = std::min(tile.col_begin + tile_size, gene_end);
      if (tile.pair_count() > 0) out.push_back(tile);
    }
  }
}

TileSet::TileSet(std::size_t n_genes, std::size_t tile_size)
    : n_genes_(n_genes), tile_size_(tile_size) {
  append_triangle_tiles(0, n_genes, tile_size, tiles_);
}

std::size_t TileSet::total_pairs() const {
  std::size_t total = 0;
  for (const Tile& tile : tiles_) total += tile.pair_count();
  return total;
}

}  // namespace tinge
