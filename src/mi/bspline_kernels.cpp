#include "mi/bspline_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "simd/math.h"
#include "simd/simd.h"
#include "util/contracts.h"

// The vector kernel's bits equal the scalar reference's only if its
// multiply-adds are fused; builds without FMA run the reference instead.
#if defined(__AVX512F__) || defined(__FMA__)
#define TINGE_VECTOR_KERNEL 1
#else
#define TINGE_VECTOR_KERNEL 0
#endif

namespace tinge {

namespace {

// --------------------------------------------------------------------------
// The row gene's sorted order (step 1 of the canonical order), memoized in
// the scratch: rebuilt only when a call passes a different rank row or
// table, so a tile row's panels sort their row gene once.
// --------------------------------------------------------------------------

template <typename RankT>
const RowOrderMemo& row_order(const WeightTable& table, const RankT* rx,
                              std::size_t m, JointHistogram& scratch) {
  RowOrderMemo& memo = scratch.row_order();
  const std::size_t key_bytes = m * sizeof(RankT);
  if (memo.table == table.weights_data() && memo.bins == table.bins() &&
      memo.order == table.order() && memo.key.size() == key_bytes &&
      std::memcmp(memo.key.data(), rx, key_bytes) == 0)
    return memo;

  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t groups =
      static_cast<std::size_t>(table.bins() - table.order() + 1);
  memo.table = table.weights_data();
  memo.bins = table.bins();
  memo.order = table.order();
  memo.key.resize(key_bytes);
  std::memcpy(memo.key.data(), rx, key_bytes);
  // Counting sort: begin[g + 1] counts group g, the prefix sum makes
  // begin[g] group g's start, the scatter advances it to group g + 1's
  // start, and the final shift restores the starts.
  std::vector<std::uint32_t>& begin = memo.group_begin;
  begin.assign(groups + 1, 0);
  for (std::size_t s = 0; s < m; ++s)
    ++begin[static_cast<std::size_t>(first_bin[rx[s]]) + 1];
  for (std::size_t g = 0; g < groups; ++g) begin[g + 1] += begin[g];
  memo.sample.resize(m);
  memo.rank.resize(m);
  for (std::size_t s = 0; s < m; ++s) {
    const std::uint32_t r = rx[s];
    const std::uint32_t t = begin[static_cast<std::size_t>(first_bin[r])]++;
    memo.sample[t] = static_cast<std::uint32_t>(s);
    memo.rank[t] = r;
  }
  for (std::size_t g = groups; g > 0; --g) begin[g] = begin[g - 1];
  begin[0] = 0;
  return memo;
}

// --------------------------------------------------------------------------
// The scalar reference: the canonical order with std::fma on the nonzero
// cells. Region p of `hist` (region_cells floats apart) is pair (x, y_p).
// --------------------------------------------------------------------------

template <typename RankT>
void accumulate_reference(const WeightTable& table, const RowOrderMemo& order,
                          const RankT* const* ry, std::size_t width,
                          float* hist, std::size_t hs,
                          std::size_t region_cells) {
  const float* weights = table.weights_data();
  const std::int32_t* first_bin = table.first_bin_data();
  const std::size_t ws = table.weight_stride();
  const int k = table.order();
  const std::size_t groups = order.group_begin.size() - 1;
  for (std::size_t p = 0; p < width; ++p) {
    float* region = hist + p * region_cells;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::uint32_t t = order.group_begin[g]; t < order.group_begin[g + 1];
           ++t) {
        const float* wx = weights + std::size_t{order.rank[t]} * ws;
        const std::size_t ry_s = ry[p][order.sample[t]];
        const float* wy = weights + ry_s * ws;
        float* base =
            region + g * hs + static_cast<std::size_t>(first_bin[ry_s]);
        for (int a = 0; a < k; ++a) {
          float* row = base + static_cast<std::size_t>(a) * hs;
          for (int c = 0; c < k; ++c) row[c] = std::fma(wx[a], wy[c], row[c]);
        }
      }
    }
  }
}

#if TINGE_VECTOR_KERNEL

// --------------------------------------------------------------------------
// The register-resident vector kernel. K = order, R = vectors per histogram
// row (expanded row lanes / native width), P = panel members held in
// registers at once. acc[p][a] is histogram row g + a of member p while
// group g runs; after the group, row g is final and the window slides.
// --------------------------------------------------------------------------

using V = simd::NativeF32;
constexpr int kLanes = V::width;
constexpr int kVectorRegisters = kLanes == 16 ? 32 : 16;

/// Members whose K x R windows fit the register file next to the K weight
/// broadcasts and the R y vectors.
constexpr int members_in_registers(int k, int r) {
  const int free = kVectorRegisters - k - r - 1;
  const int members = free / (k * r);
  return std::clamp(members, 1, kMaxPanelWidth);
}

template <int K, int R, int P, typename RankT>
void accumulate_window(const WeightTable& table, const RowOrderMemo& order,
                       const RankT* const* ry, float* hist, std::size_t hs,
                       std::size_t region_cells) {
  const float* expanded = table.expanded_data();
  const std::size_t es = table.expanded_stride();
  const std::size_t ws = table.weight_stride();
  const std::size_t groups = order.group_begin.size() - 1;
  const float* weights = table.weights_data();
  const std::uint32_t* sample = order.sample.data();
  const std::uint32_t* rank = order.rank.data();

  V acc[P][K][R];
  for (int p = 0; p < P; ++p)
    for (int a = 0; a < K; ++a)
      for (int v = 0; v < R; ++v) acc[p][a][v] = V::zero();

  const auto store_row = [&](int p, int a, std::size_t row) {
    float* dst = hist + static_cast<std::size_t>(p) * region_cells + row * hs;
    for (int v = 0; v < R; ++v) acc[p][a][v].store(dst + v * kLanes);
  };

  for (std::size_t g = 0; g < groups; ++g) {
    const std::uint32_t end = order.group_begin[g + 1];
    for (std::uint32_t t = order.group_begin[g]; t < end; ++t) {
      const std::size_t s = sample[t];
      const float* wx = weights + std::size_t{rank[t]} * ws;
      V wxv[K];
      for (int a = 0; a < K; ++a) wxv[a] = V::broadcast(wx[a]);
      for (int p = 0; p < P; ++p) {
        const float* y = expanded + static_cast<std::size_t>(ry[p][s]) * es;
        for (int v = 0; v < R; ++v) {
          const V yv = V::load(y + v * kLanes);
          for (int a = 0; a < K; ++a)
            acc[p][a][v] = V::fmadd(wxv[a], yv, acc[p][a][v]);
        }
      }
    }
    for (int p = 0; p < P; ++p) {
      store_row(p, 0, g);
      for (int a = 0; a + 1 < K; ++a)
        for (int v = 0; v < R; ++v) acc[p][a][v] = acc[p][a + 1][v];
      for (int v = 0; v < R; ++v) acc[p][K - 1][v] = V::zero();
    }
  }
  // Rows groups .. bins-1 never start a group; they sit in the window.
  for (int p = 0; p < P; ++p)
    for (int a = 0; a + 1 < K; ++a)
      store_row(p, a, groups + static_cast<std::size_t>(a));
}

/// Runs `count` (1..P) members through the window kernel sized for them.
template <int K, int R, typename RankT, int P = members_in_registers(K, R)>
void accumulate_members(std::size_t count, const WeightTable& table,
                        const RowOrderMemo& order, const RankT* const* ry,
                        float* hist, std::size_t hs, std::size_t region_cells) {
  if constexpr (P > 1) {
    if (count < static_cast<std::size_t>(P)) {
      accumulate_members<K, R, RankT, P - 1>(count, table, order, ry, hist, hs,
                                             region_cells);
      return;
    }
  }
  accumulate_window<K, R, P, RankT>(table, order, ry, hist, hs, region_cells);
}

template <int K, int R, typename RankT>
void accumulate_vector(const WeightTable& table, const RowOrderMemo& order,
                       const RankT* const* ry, std::size_t width, float* hist,
                       std::size_t hs, std::size_t region_cells) {
  constexpr auto kChunk = static_cast<std::size_t>(members_in_registers(K, R));
  for (std::size_t p0 = 0; p0 < width; p0 += kChunk) {
    accumulate_members<K, R, RankT>(std::min(kChunk, width - p0), table, order,
                                    ry + p0, hist + p0 * region_cells, hs,
                                    region_cells);
  }
}

template <int R, typename RankT>
void accumulate_vector_order(const WeightTable& table,
                             const RowOrderMemo& order, const RankT* const* ry,
                             std::size_t width, float* hist, std::size_t hs,
                             std::size_t region_cells) {
  switch (table.order()) {
    case 1: accumulate_vector<1, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 2: accumulate_vector<2, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 3: accumulate_vector<3, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 4: accumulate_vector<4, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 5: accumulate_vector<5, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 6: accumulate_vector<6, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 7: accumulate_vector<7, R>(table, order, ry, width, hist, hs, region_cells); break;
    case 8: accumulate_vector<8, R>(table, order, ry, width, hist, hs, region_cells); break;
    default: TINGE_ASSERT(false);  // resolve_kernel routes these to Scalar
  }
}

template <typename RankT>
void accumulate_simd(const WeightTable& table, const RowOrderMemo& order,
                     const RankT* const* ry, std::size_t width, float* hist,
                     std::size_t hs, std::size_t region_cells) {
  static_assert(16 % kLanes == 0);
  TINGE_EXPECTS(hs >= table.expanded_stride());
  if (table.expanded_stride() == 16) {
    accumulate_vector_order<16 / kLanes>(table, order, ry, width, hist, hs,
                                         region_cells);
  } else {
    accumulate_vector_order<32 / kLanes>(table, order, ry, width, hist, hs,
                                         region_cells);
  }
}

#endif  // TINGE_VECTOR_KERNEL

double entropy_from_region(const float* cells, std::size_t count, std::size_t m) {
  const double neg_sum = simd::entropy_sum(cells, count);
  return neg_sum / static_cast<double>(m) + std::log(static_cast<double>(m));
}

template <typename RankT>
void joint_entropy_panel_impl(const WeightTable& table, const RankT* rx,
                              const RankT* const* ry, std::size_t width,
                              std::size_t m, JointHistogram& scratch,
                              MiKernel kernel, double* h_out) {
  TINGE_EXPECTS(width >= 1);
  TINGE_EXPECTS(width <= static_cast<std::size_t>(kMaxPanelWidth));
  TINGE_EXPECTS(m == table.n_samples());
  TINGE_EXPECTS(scratch.bins() >= table.bins());
  TINGE_EXPECTS(scratch.replicas() >= static_cast<int>(width));
  const std::size_t hs = scratch.stride();
  float* hist = scratch.data();
  const std::size_t region_cells = static_cast<std::size_t>(table.bins()) * hs;
  const RowOrderMemo& order = row_order(table, rx, m, scratch);

  // The vector kernel stores every lane of every row of a region whose
  // stride is the table's expanded stride (always, with a scratch made for
  // this table); anything else is rewritten from zero, since the reference
  // accumulates in place.
  const bool vector = resolve_kernel(kernel, table.bins()) == MiKernel::Simd;
  if (!vector || hs != table.expanded_stride())
    std::memset(hist, 0, width * region_cells * sizeof(float));
  if (vector) {
#if TINGE_VECTOR_KERNEL
    accumulate_simd(table, order, ry, width, hist, hs, region_cells);
#endif
  } else {
    accumulate_reference(table, order, ry, width, hist, hs, region_cells);
  }

  for (std::size_t p = 0; p < width; ++p)
    h_out[p] = entropy_from_region(hist + p * region_cells, region_cells, m);
}

}  // namespace

const char* kernel_name(MiKernel kernel) {
  switch (kernel) {
    case MiKernel::Scalar: return "scalar";
    case MiKernel::Unrolled: return "unrolled";
    case MiKernel::Simd: return "simd";
    case MiKernel::Replicated: return "replicated";
    case MiKernel::Gather512: return "gather512";
    case MiKernel::Auto: return "auto";
  }
  return "?";
}

const char* kernel_names() { return "auto|simd|scalar"; }

MiKernel parse_kernel(std::string_view name) {
  for (const MiKernel kernel :
       {MiKernel::Auto, MiKernel::Simd, MiKernel::Scalar})
    if (name == kernel_name(kernel)) return kernel;
  throw std::invalid_argument("unknown kernel '" + std::string(name) +
                              "' (expected " + kernel_names() + ")");
}

bool vector_kernel_available() { return TINGE_VECTOR_KERNEL != 0; }

MiKernel resolve_kernel(MiKernel kernel, int bins) {
  if (kernel == MiKernel::Scalar || kernel == MiKernel::Unrolled)
    return MiKernel::Scalar;
  const bool vectorized = vector_kernel_available() && bins <= kMaxVectorBins;
  return vectorized ? MiKernel::Simd : MiKernel::Scalar;
}

int auto_panel_width(const WeightTable& table) {
  // The B regions the panel stores into, plus the row order memo and the
  // B+1 rank profiles streaming alongside, should stay in a conservative
  // per-core L2.
  constexpr std::size_t kPanelCacheBudget = 256 * 1024;  // bytes
  const std::size_t region_bytes = static_cast<std::size_t>(table.bins()) *
                                   JointHistogram::stride_for(table.bins()) *
                                   sizeof(float);
  const std::size_t fit =
      std::max<std::size_t>(1, kPanelCacheBudget / region_bytes);
  return static_cast<int>(
      std::min<std::size_t>(fit, static_cast<std::size_t>(kMaxPanelWidth)));
}

JointHistogram make_kernel_scratch(const WeightTable& table) {
  return JointHistogram(table.bins(), /*replicas=*/kMaxPanelWidth);
}

double joint_entropy(const WeightTable& table, const std::uint32_t* rx,
                     const std::uint32_t* ry, std::size_t m,
                     JointHistogram& scratch, MiKernel kernel) {
  double h = 0.0;
  joint_entropy_panel_impl(table, rx, &ry, 1, m, scratch, kernel, &h);
  return h;
}

void joint_entropy_panel(const WeightTable& table, const std::uint32_t* rx,
                         const std::uint32_t* const* ry, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out) {
  joint_entropy_panel_impl(table, rx, ry, width, m, scratch, kernel, h_out);
}

void joint_entropy_panel(const WeightTable& table, const std::uint16_t* rx,
                         const std::uint16_t* const* ry, std::size_t width,
                         std::size_t m, JointHistogram& scratch,
                         MiKernel kernel, double* h_out) {
  joint_entropy_panel_impl(table, rx, ry, width, m, scratch, kernel, h_out);
}

}  // namespace tinge
