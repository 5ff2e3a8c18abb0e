// The hot pair kernel: joint entropy of two rank profiles through the
// shared weight table. Everything the paper's Xeon Phi optimization section
// is about happens here.
//
// For each of the m samples the kernel adds an order x order patch of
// weight products into the b x b joint histogram:
//
//     P[ix + a][iy + c] += wx[a] * wy[c]      a, c in [0, order)
//
// Every B-spline evaluation in the library — the panel sweep under every
// scheduler, per-pair calls, null draws, the permutation test, the cluster
// and serve paths — performs these additions in ONE canonical order, so a
// pair's bits never depend on the path, the panel width or the ISA:
//
//   1. The row gene x's samples are stably counting-sorted by first bin
//      ix (once per row gene; memoized in the scratch, see RowOrderMemo).
//   2. Group g (the samples with ix == g, in sample order) updates only
//      histogram rows g..g+order-1. Groups run in increasing g.
//   3. Every update is a fused multiply-add, rounded once:
//          P[g + a][iy + c] = fma(wx[a], wy[c], P[g + a][iy + c]).
//
// So each cell sums its contributions group by group, and in sample order
// within a group. The order is implemented twice:
//
//   Simd   — register-resident: the panel's rows g..g+order-1 stay in
//            vector registers as a sliding window per panel member; when
//            group g is done, row g is final and stored. The y operand is
//            the table's expanded weight row (WeightTable::expanded_data):
//            a 16- or 32-lane row that holds wy at columns iy..iy+order-1
//            and zeros elsewhere, so the extra lanes' FMAs are fma(w, 0,
//            acc) == acc — bitwise no-ops. Written once over NativeF32, so
//            AVX-512 and AVX2 builds accumulate the same bits. Needs fused
//            FMA in the build, bins <= kMaxVectorBins and order <= 8.
//   Scalar — the reference: the same loops in plain C++ with std::fma on
//            the order x order nonzero cells only. It reproduces Simd bit
//            for bit (the test oracle), and runs every shape Simd does not
//            (more bins than kMaxVectorBins, builds without FMA).
//
// Panel (row-reuse) formulation — joint_entropy_panel: one row gene against
// B <= kMaxPanelWidth column genes. The row gene's sorted order and weight
// broadcasts are shared across the panel; each member keeps its own window.
// Per-pair joint_entropy is the width-1 panel. Rank rows may be uint32 or
// uint16 (staged, m <= 65536): the indices select the same table rows, so
// both widths give the same bits.
#pragma once

#include <cstdint>
#include <string_view>

#include "mi/joint_histogram.h"
#include "mi/weight_table.h"

namespace tinge {

/// Kernel selection. Scalar is the reference, Simd the register-resident
/// vector kernel, Auto = Simd. Both compute the canonical order above, so
/// they return identical bits; the choice only changes speed.
///
/// Unrolled, Replicated and Gather512 are legacy aliases kept so existing
/// C++ callers still compile: Unrolled runs Scalar, the other two run
/// Simd. No string parser accepts their names (see parse_kernel).
enum class MiKernel { Scalar, Unrolled, Simd, Replicated, Gather512, Auto };

const char* kernel_name(MiKernel kernel);

/// Parses a --kernel value: "auto", "simd" or "scalar". Throws
/// std::invalid_argument naming the accepted values otherwise.
MiKernel parse_kernel(std::string_view name);

/// The accepted kernel names, "auto|simd|scalar".
const char* kernel_names();

/// Id of the canonical accumulation order, journaled in checkpoint headers
/// (CheckpointState::accumulation) so that B-spline values from another
/// order never resume into one network. 0 stands for the sample-order
/// kernels that preceded it (journal versions 1 and 2).
inline constexpr std::uint32_t kAccumulationOrder = 1;

/// Maximum panel width B accepted by joint_entropy_panel. Scratch from
/// make_kernel_scratch always carries this many histogram regions.
inline constexpr int kMaxPanelWidth = 8;

/// True when this build has fused FMA, so the vector kernel can run.
bool vector_kernel_available();

/// The kernel that actually runs for `kernel` on a table of `bins` bins:
/// Scalar or Simd. Simd falls back to Scalar (same bits) when the build
/// lacks FMA or the table has more than kMaxVectorBins bins. Every order
/// the basis allows (<= 8) runs vectorized.
MiKernel resolve_kernel(MiKernel kernel, int bins);

/// Scratch for the kernels: kMaxPanelWidth histogram regions plus the
/// row-gene order memo.
JointHistogram make_kernel_scratch(const WeightTable& table);

/// Joint entropy H(X,Y) in nats of two rank profiles of length m: the
/// width-1 panel. `scratch` must come from make_kernel_scratch for the same
/// table.
double joint_entropy(const WeightTable& table, const std::uint32_t* ranks_x,
                     const std::uint32_t* ranks_y, std::size_t m,
                     JointHistogram& scratch, MiKernel kernel);

/// Batched joint entropy of one row gene against a panel of `width` column
/// genes (1 <= width <= kMaxPanelWidth): h_out[p] = H(X, Y_p) where
/// ranks_y[p] is the p-th column gene's rank profile. For every p the
/// result is bit-identical to joint_entropy(X, Y_p), for either kernel and
/// either rank width. The uint16 overload requires m <= 65536.
void joint_entropy_panel(const WeightTable& table, const std::uint32_t* ranks_x,
                         const std::uint32_t* const* ranks_y, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out);
void joint_entropy_panel(const WeightTable& table, const std::uint16_t* ranks_x,
                         const std::uint16_t* const* ranks_y, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out);

/// Panel width the Auto policy picks for `table`: the largest
/// B <= kMaxPanelWidth whose B joint-histogram regions fit the panel cache
/// budget.
int auto_panel_width(const WeightTable& table);

}  // namespace tinge
