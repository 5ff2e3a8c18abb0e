#include "device/perf_model.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace tinge {

PerfModel::PerfModel(const DeviceSpec& host, double measured_gflops) {
  TINGE_EXPECTS(measured_gflops > 0.0);
  const double single_thread_peak = host.core_sp_gflops(1);
  efficiency_ = std::clamp(measured_gflops / single_thread_peak, 0.01, 1.0);
}

double PerfModel::device_gflops(const DeviceSpec& device, int threads) const {
  TINGE_EXPECTS(threads >= 1);
  threads = std::min(threads, device.total_threads());
  // Compact placement: fill cores with one thread each, then add SMT
  // siblings round-robin — matching how the paper saturates the Phi.
  const int full_rounds = threads / device.cores;       // complete SMT layers
  const int remainder = threads % device.cores;         // cores with +1 thread
  double total = 0.0;
  if (full_rounds >= 1) {
    const int deep = std::min(full_rounds + (remainder > 0 ? 1 : 0), 4);
    const int shallow = std::min(std::max(full_rounds, 1), 4);
    total += remainder * device.core_sp_gflops(deep);
    total += (device.cores - remainder) * device.core_sp_gflops(shallow);
  } else {
    total = remainder * device.core_sp_gflops(1);
  }
  return efficiency_ * total;
}

double PerfModel::predict_seconds(const DeviceSpec& device,
                                  const MiWorkload& workload, int threads,
                                  double serial_seconds) const {
  const double rate = device_gflops(device, threads) * 1e9;
  TINGE_EXPECTS(rate > 0.0);
  return workload.flops() / rate + serial_seconds;
}

std::vector<double> PerfModel::predict_scaling(
    const DeviceSpec& device, const MiWorkload& workload,
    const std::vector<int>& thread_counts, double serial_seconds) const {
  std::vector<double> seconds;
  seconds.reserve(thread_counts.size());
  for (const int threads : thread_counts)
    seconds.push_back(
        predict_seconds(device, workload, threads, serial_seconds));
  return seconds;
}

}  // namespace tinge
