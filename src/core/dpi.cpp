#include "core/dpi.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/contracts.h"

namespace tinge {

namespace {

// A finalized edge list sorted by (u, v) is already the upper CSR of the
// graph: the forward neighbors N+(u) = {v > u} of node u are the contiguous
// run of edges whose first endpoint is u. Each triangle u < v < z is seen
// exactly once, from its apex u: mark N+(u), then for each edge (u, v) walk
// N+(v) and test every z against the marks. The losing edge's byte is set
// in one per-edge flag array.
class TriangleScan {
 public:
  TriangleScan(const GeneNetwork& network, double tolerance)
      : edges_(network.edges()),
        begin_(network.n_nodes() + 1, 0),
        removed_(edges_.size(), 0),
        keep_factor_(static_cast<float>(1.0 - tolerance)) {
    TINGE_EXPECTS(network.finalized());
    TINGE_EXPECTS(tolerance >= 0.0 && tolerance < 1.0);
    for (const Edge& e : edges_) ++begin_[e.u + 1];
    for (std::size_t u = 0; u + 1 < begin_.size(); ++u)
      begin_[u + 1] += begin_[u];
  }

  std::size_t n_nodes() const { return begin_.size() - 1; }

  /// Judges every triangle whose apex (smallest node) is in [first, last).
  /// `mark` holds n_nodes() zeros on entry and on return; in between,
  /// mark[z] - 1 is the offset of edge (u, z) within N+(u).
  void scan(std::size_t first, std::size_t last,
            std::vector<std::uint32_t>& mark) {
    std::size_t triangles = 0;
    for (std::size_t u = first; u < last; ++u) {
      const std::size_t lo = begin_[u], hi = begin_[u + 1];
      if (hi - lo < 2) continue;
      for (std::size_t uz = lo; uz < hi; ++uz)
        mark[edges_[uz].v] = static_cast<std::uint32_t>(uz - lo + 1);
      const std::uint32_t top = edges_[hi - 1].v;
      for (std::size_t uv = lo; uv + 1 < hi; ++uv) {
        const std::uint32_t v = edges_[uv].v;
        for (std::size_t vz = begin_[v];
             vz < begin_[v + 1] && edges_[vz].v <= top; ++vz) {
          const std::uint32_t offset = mark[edges_[vz].v];
          if (offset == 0) continue;
          ++triangles;
          judge(uv, lo + offset - 1, vz);
        }
      }
      for (std::size_t uz = lo; uz < hi; ++uz) mark[edges_[uz].v] = 0;
    }
    triangles_.fetch_add(triangles, std::memory_order_relaxed);
  }

  GeneNetwork result(const GeneNetwork& network, DpiStats* stats) const {
    GeneNetwork filtered = network.without_edges(removed_);
    if (stats != nullptr) {
      stats->triangles_examined = triangles_.load(std::memory_order_relaxed);
      stats->edges_removed = network.n_edges() - filtered.n_edges();
    }
    return filtered;
  }

 private:
  // The triangle's strictly weakest edge goes if it is dominated by the
  // other two beyond the tolerance; ties resolve to (u, v), then (u, z).
  void judge(std::size_t uv, std::size_t uz, std::size_t vz) {
    const float w_uv = edges_[uv].weight;
    const float w_uz = edges_[uz].weight;
    const float w_vz = edges_[vz].weight;
    const float weakest = std::min({w_uv, w_uz, w_vz});
    const float second = std::min(std::max(w_uv, w_uz),
                                  std::max(std::min(w_uv, w_uz), w_vz));
    if (!(weakest < second * keep_factor_)) return;
    const std::size_t loser = w_uv == weakest   ? uv
                              : w_uz == weakest ? uz
                                                : vz;
    // Several triangles (on several threads) may condemn one edge.
    std::atomic_ref<std::uint8_t>(removed_[loser])
        .store(1, std::memory_order_relaxed);
  }

  std::span<const Edge> edges_;
  std::vector<std::size_t> begin_;  // N+(u) = edges_[begin_[u], begin_[u+1])
  std::vector<std::uint8_t> removed_;
  std::atomic<std::size_t> triangles_{0};
  const float keep_factor_;
};

}  // namespace

GeneNetwork apply_dpi(const GeneNetwork& network, double tolerance,
                      DpiStats* stats) {
  TriangleScan scan(network, tolerance);
  std::vector<std::uint32_t> mark(scan.n_nodes(), 0);
  scan.scan(0, scan.n_nodes(), mark);
  return scan.result(network, stats);
}

GeneNetwork apply_dpi(const GeneNetwork& network, double tolerance,
                      DpiStats* stats, par::ThreadPool& pool, int threads) {
  TriangleScan scan(network, tolerance);
  const int contexts = threads > 0 ? std::min(threads, pool.max_threads())
                                   : pool.max_threads();
  std::vector<std::vector<std::uint32_t>> marks(
      static_cast<std::size_t>(contexts));
  // Low ids have the most forward neighbors, so apex cost falls with u:
  // apexes are claimed one at a time.
  par::parallel_for(pool, contexts, 0, scan.n_nodes(), /*grain=*/1,
                    par::Schedule::Dynamic,
                    [&](std::size_t first, std::size_t last, int tid) {
                      auto& mark = marks[static_cast<std::size_t>(tid)];
                      if (mark.empty()) mark.assign(scan.n_nodes(), 0);
                      scan.scan(first, last, mark);
                    });
  return scan.result(network, stats);
}

}  // namespace tinge
