// Analytic performance model for the MI workload on modeled devices.
//
// Purpose (see DESIGN.md §2): reproduce the *shape* of the paper's
// Xeon-vs-Phi comparison and its thread-scaling curves without the
// discontinued hardware. The model is deliberately simple and fully stated:
//
//   work(pair)  = m * k^2 FMAs (histogram accumulation)
//               + b^2 * C_log FMA-equivalents (entropy pass; C_log is the
//                 polynomial cost of one vector log, ~12 FMA-equivalents)
//   time(n, T)  = total_flops / (efficiency * flops(device, T)) + t_serial
//
// where flops(device, T) distributes T threads over cores (compact up to
// threads_per_core) using the device's SMT throughput curve, and
// `efficiency` — the fraction of peak the kernel actually achieves — is
// *calibrated once from a measured host run* of the very same kernel, then
// carried to the modeled devices. This transfers "how efficient is this
// code" from real measurement and takes "how fast is that machine" from the
// published spec.
#pragma once

#include <cstddef>
#include <vector>

#include "device/device_spec.h"

namespace tinge {

struct MiWorkload {
  std::size_t pairs = 0;    ///< n*(n-1)/2 plus any permutation draws
  std::size_t samples = 0;  ///< m
  int order = 3;            ///< k
  int bins = 10;            ///< b

  /// FMA-equivalents per log evaluation in the entropy pass.
  static constexpr double kLogCost = 12.0;

  double flops() const {
    const double accum = static_cast<double>(pairs) *
                         static_cast<double>(samples) * order * order * 2.0;
    const double entropy = static_cast<double>(pairs) *
                           static_cast<double>(bins) * bins * kLogCost;
    return accum + entropy;
  }

  static MiWorkload all_pairs(std::size_t n_genes, std::size_t samples,
                              int order, int bins) {
    return MiWorkload{n_genes * (n_genes - 1) / 2, samples, order, bins};
  }
};

class PerfModel {
 public:
  /// `measured_gflops` is the single-thread FLOP rate the real kernel
  /// achieved on `host` (from bench_mi_kernels). Efficiency is clamped to
  /// [0.01, 1].
  PerfModel(const DeviceSpec& host, double measured_gflops);

  /// Fraction of peak the calibrated kernel achieves.
  double efficiency() const { return efficiency_; }

  /// Deliverable FLOP rate of `device` with `threads` busy threads
  /// (compact placement; threads beyond total contexts are clamped).
  double device_gflops(const DeviceSpec& device, int threads) const;

  /// Predicted seconds for `workload` on `device` with `threads` threads.
  /// `serial_seconds` models the non-parallel pipeline portion.
  double predict_seconds(const DeviceSpec& device, const MiWorkload& workload,
                         int threads, double serial_seconds = 0.0) const;

  /// Predicted strong-scaling curve: seconds for each thread count.
  std::vector<double> predict_scaling(const DeviceSpec& device,
                                      const MiWorkload& workload,
                                      const std::vector<int>& thread_counts,
                                      double serial_seconds = 0.0) const;

 private:
  double efficiency_;
};

}  // namespace tinge
