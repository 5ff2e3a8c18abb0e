#include "graph/network.h"

#include <algorithm>
#include <numeric>

namespace tinge {

GeneNetwork::GeneNetwork(std::vector<std::string> node_names)
    : node_names_(std::move(node_names)) {}

void GeneNetwork::add_edge(std::uint32_t a, std::uint32_t b, float weight) {
  TINGE_EXPECTS(a != b);
  TINGE_EXPECTS(a < n_nodes() && b < n_nodes());
  if (a > b) std::swap(a, b);
  edges_.push_back(Edge{a, b, weight});
  finalized_ = false;
}

void GeneNetwork::add_edges(std::span<const Edge> edges) {
  check_normalized(edges);
  edges_.insert(edges_.end(), edges.begin(), edges.end());
  finalized_ = false;
}

void GeneNetwork::add_edges(std::vector<Edge>&& edges) {
  if (edges_.capacity() > 0) {
    add_edges(std::span<const Edge>(edges));
    std::vector<Edge>().swap(edges);
    return;
  }
  check_normalized(edges);
  edges_ = std::move(edges);
  finalized_ = false;
}

void GeneNetwork::check_normalized(std::span<const Edge> edges) const {
  for (const Edge& e : edges) {
    TINGE_EXPECTS(e.u < e.v);
    TINGE_EXPECTS(e.v < n_nodes());
  }
}

void GeneNetwork::finalize() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  // merge duplicates keeping max weight
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (out > 0 && edges_[out - 1].u == edges_[i].u &&
        edges_[out - 1].v == edges_[i].v) {
      edges_[out - 1].weight = std::max(edges_[out - 1].weight, edges_[i].weight);
    } else {
      edges_[out++] = edges_[i];
    }
  }
  edges_.resize(out);
  finalized_ = true;
}

float GeneNetwork::edge_weight(std::uint32_t a, std::uint32_t b) const {
  TINGE_EXPECTS(finalized_);
  if (a == b) return -1.0f;
  if (a > b) std::swap(a, b);
  const Edge probe{a, b, 0.0f};
  const auto it = std::lower_bound(
      edges_.begin(), edges_.end(), probe, [](const Edge& lhs, const Edge& rhs) {
        return lhs.u != rhs.u ? lhs.u < rhs.u : lhs.v < rhs.v;
      });
  if (it != edges_.end() && it->u == a && it->v == b) return it->weight;
  return -1.0f;
}

std::vector<std::size_t> GeneNetwork::degrees() const {
  TINGE_EXPECTS(finalized_);
  std::vector<std::size_t> degree(n_nodes(), 0);
  for (const Edge& e : edges_) {
    ++degree[e.u];
    ++degree[e.v];
  }
  return degree;
}

GeneNetwork GeneNetwork::thresholded(float threshold) const {
  GeneNetwork out(node_names_);
  for (const Edge& e : edges_)
    if (e.weight >= threshold) out.edges_.push_back(e);
  out.finalize();
  return out;
}

GeneNetwork GeneNetwork::without_edges(
    std::span<const std::uint8_t> drop) const {
  TINGE_EXPECTS(finalized_);
  TINGE_EXPECTS(drop.size() == edges_.size());
  GeneNetwork out(node_names_);
  out.edges_.reserve(static_cast<std::size_t>(
      std::count(drop.begin(), drop.end(), std::uint8_t{0})));
  for (std::size_t i = 0; i < edges_.size(); ++i)
    if (drop[i] == 0) out.edges_.push_back(edges_[i]);
  out.finalized_ = true;  // a subsequence of a sorted, duplicate-free list
  return out;
}

Adjacency::Adjacency(const GeneNetwork& network) {
  TINGE_EXPECTS(network.finalized());
  const std::size_t n = network.n_nodes();
  offsets_.assign(n + 1, 0);
  for (const Edge& e : network.edges()) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  entries_.resize(offsets_.back());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : network.edges()) {
    entries_[cursor[e.u]++] = Neighbor{e.v, e.weight};
    entries_[cursor[e.v]++] = Neighbor{e.u, e.weight};
  }
  for (std::size_t node = 0; node < n; ++node) {
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[node]),
              entries_.begin() + static_cast<std::ptrdiff_t>(offsets_[node + 1]),
              [](const Neighbor& a, const Neighbor& b) { return a.node < b.node; });
  }
}

namespace {
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent_[a] = b;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};
}  // namespace

std::size_t connected_components(const GeneNetwork& network) {
  UnionFind uf(network.n_nodes());
  std::size_t components = network.n_nodes();
  for (const Edge& e : network.edges())
    if (uf.unite(e.u, e.v)) --components;
  return components;
}

}  // namespace tinge
