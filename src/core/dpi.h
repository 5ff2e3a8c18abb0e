// Data Processing Inequality filtering (ARACNE; Margolin et al. 2006).
//
// If x -> z -> y is the true path, information theory bounds
// MI(x, y) <= min(MI(x, z), MI(z, y)); the direct (x, y) edge is then
// likely an indirect artifact. For every triangle in the thresholded
// network the weakest edge is removed when it is weaker than
// (1 - tolerance) * min(other two). TINGe offers this as a post-processing
// step and so do we (TingeConfig::apply_dpi).
//
// Every triangle is judged on the input weights, so the removed set is the
// union of independent verdicts: the result does not depend on the order
// the triangles are visited in, nor on how many threads visit them.
#pragma once

#include "graph/network.h"

namespace tinge {

namespace par {
class ThreadPool;
}

struct DpiStats {
  std::size_t triangles_examined = 0;
  std::size_t edges_removed = 0;
};

/// Returns the DPI-filtered network. `tolerance` in [0, 1): 0 is the strict
/// inequality, larger values keep more borderline edges.
GeneNetwork apply_dpi(const GeneNetwork& network, double tolerance,
                      DpiStats* stats = nullptr);

/// The same network, with the triangle scan run on `threads` contexts of
/// `pool` (0 = all of them). Bit-identical to the overload above.
GeneNetwork apply_dpi(const GeneNetwork& network, double tolerance,
                      DpiStats* stats, par::ThreadPool& pool, int threads);

}  // namespace tinge
