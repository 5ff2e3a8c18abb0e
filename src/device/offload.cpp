#include "device/offload.h"

#include <algorithm>

#include "util/contracts.h"

namespace tinge {

OffloadPlan plan_offload(const PerfModel& model, const DeviceSpec& host,
                         int host_threads, const DeviceSpec& device,
                         const MiWorkload& workload) {
  const double host_rate = model.device_gflops(host, host_threads);
  const double device_rate =
      model.device_gflops(device, device.total_threads());
  TINGE_EXPECTS(host_rate > 0.0 && device_rate > 0.0);

  OffloadPlan plan;
  const std::vector<double> fractions =
      plan_lane_split({host_rate, device_rate});
  plan.host_fraction = fractions[0];
  plan.device_fraction = fractions[1];

  MiWorkload host_share = workload;
  host_share.pairs =
      static_cast<std::size_t>(plan.host_fraction *
                               static_cast<double>(workload.pairs));
  MiWorkload device_share = workload;
  device_share.pairs = workload.pairs - host_share.pairs;

  plan.host_seconds = model.predict_seconds(host, host_share, host_threads);
  plan.device_seconds =
      model.predict_seconds(device, device_share, device.total_threads());
  plan.combined_seconds = std::max(plan.host_seconds, plan.device_seconds);
  const double host_only =
      model.predict_seconds(host, workload, host_threads);
  plan.speedup_vs_host =
      plan.combined_seconds > 0.0 ? host_only / plan.combined_seconds : 0.0;
  return plan;
}

std::vector<double> plan_lane_split(const std::vector<double>& lane_gflops) {
  TINGE_EXPECTS(!lane_gflops.empty());
  double total = 0.0;
  for (const double rate : lane_gflops) {
    TINGE_EXPECTS(rate > 0.0);
    total += rate;
  }
  std::vector<double> fractions;
  fractions.reserve(lane_gflops.size());
  for (const double rate : lane_gflops) fractions.push_back(rate / total);
  return fractions;
}

}  // namespace tinge
