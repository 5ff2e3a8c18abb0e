#include "core/pair_statistic.h"

#include <stdexcept>
#include <string>

#include "core/config.h"
#include "core/sweep.h"
#include "data/expression_matrix.h"
#include "mi/correlation.h"
#include "mi/histogram_mi.h"
#include "mi/ksg_mi.h"
#include "mi/phi_mixing.h"
#include "preprocess/rank_transform.h"
#include "util/contracts.h"
#include "util/str.h"

namespace tinge {

// --- estimator names --------------------------------------------------------

namespace {

constexpr EstimatorKind kAllEstimators[] = {
    EstimatorKind::Bspline,  EstimatorKind::Histogram, EstimatorKind::Ksg,
    EstimatorKind::Pearson,  EstimatorKind::Spearman,  EstimatorKind::Phi,
};

}  // namespace

const char* estimator_name(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::Bspline: return "bspline";
    case EstimatorKind::Histogram: return "histogram";
    case EstimatorKind::Ksg: return "ksg";
    case EstimatorKind::Pearson: return "pearson";
    case EstimatorKind::Spearman: return "spearman";
    case EstimatorKind::Phi: return "phi";
  }
  return "?";
}

EstimatorKind parse_estimator(std::string_view name) {
  for (const EstimatorKind kind : kAllEstimators)
    if (name == estimator_name(kind)) return kind;
  std::string accepted;
  for (const EstimatorKind kind : kAllEstimators) {
    if (!accepted.empty()) accepted += '|';
    accepted += estimator_name(kind);
  }
  throw std::invalid_argument(strprintf(
      "unknown estimator '%.*s' (expected %s)",
      static_cast<int>(name.size()), name.data(), accepted.c_str()));
}

// --- concept defaults -------------------------------------------------------

PairScratch::~PairScratch() = default;
PairStatistic::~PairStatistic() = default;

PanelPlan PairStatistic::plan(const TingeConfig& /*config*/) const {
  // Width-1 scalar panels: the executor's panel loop degenerates to one
  // eval_pair per pair. Only B-spline overrides with SIMD panels.
  return PanelPlan{MiKernel::Scalar, 1, name(), name()};
}

std::unique_ptr<PairScratch> PairStatistic::make_scratch() const {
  return std::make_unique<PairScratch>();
}

void PairStatistic::eval_panel(const std::uint32_t* x,
                               const std::uint32_t* const* ys,
                               std::size_t width, std::size_t i,
                               std::size_t j0, MiKernel /*kernel*/,
                               PairScratch& scratch, double* out) const {
  for (std::size_t p = 0; p < width; ++p)
    out[p] = eval_pair(x, ys[p], i, j0 + p, scratch);
}

void PairStatistic::eval_panel(const std::uint16_t* x,
                               const std::uint16_t* const* ys,
                               std::size_t width, std::size_t i,
                               std::size_t j0, MiKernel /*kernel*/,
                               PairScratch& scratch, double* out) const {
  const std::size_t m = n_samples();
  scratch.wide_x.resize(m);
  scratch.wide_y.resize(m);
  for (std::size_t s = 0; s < m; ++s) scratch.wide_x[s] = x[s];
  for (std::size_t p = 0; p < width; ++p) {
    for (std::size_t s = 0; s < m; ++s) scratch.wide_y[s] = ys[p][s];
    out[p] = eval_pair(scratch.wide_x.data(), scratch.wide_y.data(), i, j0 + p,
                       scratch);
  }
}

double PairStatistic::eval_null_pair(const std::uint32_t* x,
                                     const std::uint32_t* y,
                                     PairScratch& scratch) const {
  return eval_pair(x, y, 0, 0, scratch);
}

// --- B-spline ---------------------------------------------------------------

namespace {

struct BsplineScratch final : PairScratch {
  explicit BsplineScratch(JointHistogram h) : hist(std::move(h)) {}
  JointHistogram hist;
};

}  // namespace

PanelPlan BsplineStat::plan(const TingeConfig& config) const {
  return plan_panels(*mi_, config);
}

std::unique_ptr<PairScratch> BsplineStat::make_scratch() const {
  return std::make_unique<BsplineScratch>(mi_->make_scratch());
}

double BsplineStat::eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                              std::size_t /*i*/, std::size_t /*j*/,
                              PairScratch& scratch) const {
  const std::size_t m = mi_->n_samples();
  return mi_->mi({x, m}, {y, m}, static_cast<BsplineScratch&>(scratch).hist,
                 kernel_);
}

void BsplineStat::eval_panel(const std::uint32_t* x,
                             const std::uint32_t* const* ys, std::size_t width,
                             std::size_t /*i*/, std::size_t /*j0*/,
                             MiKernel kernel, PairScratch& scratch,
                             double* out) const {
  mi_->mi_panel(x, ys, width, static_cast<BsplineScratch&>(scratch).hist,
                kernel, out);
}

void BsplineStat::eval_panel(const std::uint16_t* x,
                             const std::uint16_t* const* ys, std::size_t width,
                             std::size_t /*i*/, std::size_t /*j0*/,
                             MiKernel kernel, PairScratch& scratch,
                             double* out) const {
  mi_->mi_panel(x, ys, width, static_cast<BsplineScratch&>(scratch).hist,
                kernel, out);
}

double BsplineStat::eval_null_pair(const std::uint32_t* x,
                                   const std::uint32_t* y,
                                   PairScratch& scratch) const {
  const std::size_t m = mi_->n_samples();
  return mi_->mi({x, m}, {y, m}, static_cast<BsplineScratch&>(scratch).hist,
                 kernel_);
}

// --- generic rank-based statistics ------------------------------------------

namespace {

/// Shared base for the non-B-spline statistics: samples-and-bins state plus
/// the uniform checkpoint signature (bins = the discretization knob, order
/// unused).
class RankStatBase : public PairStatistic {
 public:
  RankStatBase(EstimatorKind kind, std::size_t m, int bins)
      : PairStatistic(kind), m_(m), bins_(bins) {}

  std::size_t n_samples() const override { return m_; }
  std::uint32_t signature_bins() const override {
    return static_cast<std::uint32_t>(bins_);
  }

 protected:
  std::size_t m_;
  int bins_;
};

struct FloatScratch final : PairScratch {
  std::vector<float> fx, fy;
};

void ranks_to_float(const std::uint32_t* ranks, std::size_t m,
                    std::vector<float>& out) {
  out.resize(m);
  for (std::size_t s = 0; s < m; ++s) out[s] = static_cast<float>(ranks[s]);
}

class HistogramStat final : public RankStatBase {
 public:
  HistogramStat(std::size_t m, int bins)
      : RankStatBase(EstimatorKind::Histogram, m, bins) {}

  double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                   std::size_t /*i*/, std::size_t /*j*/,
                   PairScratch& /*scratch*/) const override {
    return histogram_mi_from_ranks({x, m_}, {y, m_}, bins_);
  }
};

class KsgStat final : public RankStatBase {
 public:
  static constexpr int kNeighbours = 4;

  KsgStat(std::size_t m, int bins)
      : RankStatBase(EstimatorKind::Ksg, m, bins) {}

  std::unique_ptr<PairScratch> make_scratch() const override {
    return std::make_unique<FloatScratch>();
  }
  double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                   std::size_t /*i*/, std::size_t /*j*/,
                   PairScratch& scratch) const override {
    auto& fs = static_cast<FloatScratch&>(scratch);
    ranks_to_float(x, m_, fs.fx);
    ranks_to_float(y, m_, fs.fy);
    return ksg_mi(fs.fx, fs.fy, kNeighbours);
  }
};

class SpearmanStat final : public RankStatBase {
 public:
  SpearmanStat(std::size_t m, int bins)
      : RankStatBase(EstimatorKind::Spearman, m, bins) {}

  std::unique_ptr<PairScratch> make_scratch() const override {
    return std::make_unique<FloatScratch>();
  }
  double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                   std::size_t /*i*/, std::size_t /*j*/,
                   PairScratch& scratch) const override {
    // Pearson on the stable-order ranks: equal to Spearman on tie-free
    // profiles, and consistent with the rank rows every other statistic
    // sees.
    auto& fs = static_cast<FloatScratch&>(scratch);
    ranks_to_float(x, m_, fs.fx);
    ranks_to_float(y, m_, fs.fy);
    return correlation_score(pearson_correlation(fs.fx, fs.fy));
  }
};

class PhiStat final : public RankStatBase {
 public:
  PhiStat(std::size_t m, int bins)
      : RankStatBase(EstimatorKind::Phi, m, bins) {}

  double eval_pair(const std::uint32_t* x, const std::uint32_t* y,
                   std::size_t /*i*/, std::size_t /*j*/,
                   PairScratch& /*scratch*/) const override {
    return phi_mixing_symmetric({x, m_}, {y, m_}, bins_);
  }
};

class PearsonStat final : public RankStatBase {
 public:
  PearsonStat(const ExpressionMatrix& raw, int bins)
      : RankStatBase(EstimatorKind::Pearson, raw.n_samples(), bins),
        raw_(&raw) {}

  std::unique_ptr<PairScratch> make_scratch() const override {
    return std::make_unique<FloatScratch>();
  }
  double eval_pair(const std::uint32_t* /*x*/, const std::uint32_t* /*y*/,
                   std::size_t i, std::size_t j,
                   PairScratch& /*scratch*/) const override {
    return correlation_score(pearson_correlation(raw_->row(i), raw_->row(j)));
  }
  /// The null feeds rank permutations, not gene indices: score them as
  /// profiles (|Pearson| of two random permutations == a Spearman null,
  /// the natural permutation null for a correlation network).
  double eval_null_pair(const std::uint32_t* x, const std::uint32_t* y,
                        PairScratch& scratch) const override {
    auto& fs = static_cast<FloatScratch&>(scratch);
    ranks_to_float(x, m_, fs.fx);
    ranks_to_float(y, m_, fs.fy);
    return correlation_score(pearson_correlation(fs.fx, fs.fy));
  }

 private:
  const ExpressionMatrix* raw_;
};

}  // namespace

// --- factory ----------------------------------------------------------------

std::unique_ptr<PairStatistic> make_pair_statistic(
    const TingeConfig& config, const RankedMatrix& ranked,
    const ExpressionMatrix* raw) {
  const std::size_t m = ranked.n_samples();
  switch (config.estimator) {
    case EstimatorKind::Bspline:
      return std::make_unique<BsplineStat>(
          BsplineMi(config.bins, config.spline_order, m), config.kernel);
    case EstimatorKind::Histogram:
      return std::make_unique<HistogramStat>(m, config.bins);
    case EstimatorKind::Ksg:
      return std::make_unique<KsgStat>(m, config.bins);
    case EstimatorKind::Pearson:
      TINGE_EXPECTS(raw != nullptr);
      TINGE_EXPECTS(raw->n_samples() == m);
      TINGE_EXPECTS(raw->n_genes() == ranked.n_genes());
      return std::make_unique<PearsonStat>(*raw, config.bins);
    case EstimatorKind::Spearman:
      return std::make_unique<SpearmanStat>(m, config.bins);
    case EstimatorKind::Phi:
      return std::make_unique<PhiStat>(m, config.bins);
  }
  throw ContractViolation("make_pair_statistic: unknown estimator kind");
}

}  // namespace tinge
