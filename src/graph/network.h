// The inferred gene network: an undirected, weighted graph over gene ids.
//
// Whole-genome scale means up to ~15k nodes and (after thresholding)
// typically 10^5..10^7 edges, so edges live in a flat sorted vector and
// adjacency is built on demand as CSR.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/contracts.h"

namespace tinge {

struct Edge {
  std::uint32_t u = 0;  ///< smaller endpoint
  std::uint32_t v = 0;  ///< larger endpoint
  float weight = 0.0f;  ///< MI (nats) or |correlation|

  friend bool operator==(const Edge&, const Edge&) = default;
};

class GeneNetwork {
 public:
  GeneNetwork() = default;
  explicit GeneNetwork(std::vector<std::string> node_names);

  std::size_t n_nodes() const { return node_names_.size(); }
  std::size_t n_edges() const { return edges_.size(); }
  const std::vector<std::string>& node_names() const { return node_names_; }

  /// Adds an undirected edge (endpoint order normalized). Self loops are
  /// rejected by contract.
  void add_edge(std::uint32_t a, std::uint32_t b, float weight);

  /// Bulk append of already-normalized edges (engine output buffers).
  void add_edges(std::span<const Edge> edges);

  /// The same append, consuming `edges`: a network with no edge storage
  /// yet adopts the buffer whole; otherwise the edges are copied and the
  /// buffer's memory is released at once.
  void add_edges(std::vector<Edge>&& edges);

  /// Reserves room for `count` edges in total.
  void reserve_edges(std::size_t count) { edges_.reserve(count); }

  /// Sorts by (u, v) and merges duplicates keeping the max weight.
  /// Must be called before queries that assume sorted order.
  void finalize();
  bool finalized() const { return finalized_; }

  std::span<const Edge> edges() const { return edges_; }

  /// Weight of (a, b), or a negative value if absent. Requires finalize().
  float edge_weight(std::uint32_t a, std::uint32_t b) const;
  bool has_edge(std::uint32_t a, std::uint32_t b) const {
    return edge_weight(a, b) >= 0.0f;
  }

  /// Per-node degree. Requires finalize().
  std::vector<std::size_t> degrees() const;

  /// New network containing only edges with weight >= threshold.
  GeneNetwork thresholded(float threshold) const;

  /// New finalized network without the edges whose `drop` byte is nonzero
  /// (`drop` is indexed like edges()). Requires finalize().
  GeneNetwork without_edges(std::span<const std::uint8_t> drop) const;

 private:
  void check_normalized(std::span<const Edge> edges) const;

  std::vector<std::string> node_names_;
  std::vector<Edge> edges_;
  bool finalized_ = false;
};

/// CSR adjacency over a finalized network (neighbors sorted ascending).
class Adjacency {
 public:
  explicit Adjacency(const GeneNetwork& network);

  std::size_t n_nodes() const { return offsets_.size() - 1; }

  struct Neighbor {
    std::uint32_t node;
    float weight;
  };

  std::span<const Neighbor> neighbors(std::uint32_t node) const {
    TINGE_EXPECTS(node + 1 < offsets_.size());
    return {entries_.data() + offsets_[node],
            offsets_[node + 1] - offsets_[node]};
  }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<Neighbor> entries_;
};

/// Number of connected components (isolated nodes each count as one).
std::size_t connected_components(const GeneNetwork& network);

}  // namespace tinge
