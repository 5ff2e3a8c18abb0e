// Host/coprocessor work partitioning.
//
// The paper runs the Phi in native mode, but its discussion (and the TINGe
// lineage) covers splitting the pair space between the host Xeon and the
// coprocessor. With no physical coprocessor, this module computes the
// throughput-proportional partition from the perf model and — for code-path
// exercise — executes both partitions on the local thread pool, tagging
// which tiles would have gone where. The partition math (the part that
// generalizes) is real; the co-execution is simulated and labeled as such.
#pragma once

#include <cstddef>
#include <vector>

#include "device/perf_model.h"

namespace tinge {

struct OffloadPlan {
  double host_fraction = 0.0;    ///< share of pairs kept on the host
  double device_fraction = 0.0;  ///< share sent to the coprocessor
  double host_seconds = 0.0;     ///< predicted time of the host share
  double device_seconds = 0.0;   ///< predicted time of the device share
  double combined_seconds = 0.0; ///< max of the two (they overlap)
  double speedup_vs_host = 0.0;  ///< host-only time / combined
};

/// Splits `workload` between `host` (using `host_threads`) and `device`
/// (fully subscribed) proportionally to modeled throughput, so both sides
/// finish together.
OffloadPlan plan_offload(const PerfModel& model, const DeviceSpec& host,
                         int host_threads, const DeviceSpec& device,
                         const MiWorkload& workload);

/// Throughput-proportional split of one workload across N executors:
/// fractions[i] = rate_i / sum(rates), so all of them finish together when
/// the rates hold. `lane_gflops` entries must be positive. plan_offload's
/// host/device partition is its two-executor case.
std::vector<double> plan_lane_split(const std::vector<double>& lane_gflops);

}  // namespace tinge
