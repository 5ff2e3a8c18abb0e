#include "core/config.h"

#include <cstdlib>
#include <stdexcept>

#include "util/contracts.h"
#include "util/str.h"

namespace tinge {

const char* knob_mode_name(KnobMode mode) {
  switch (mode) {
    case KnobMode::Auto: return "auto";
    case KnobMode::On: return "on";
    case KnobMode::Off: return "off";
  }
  return "?";
}

std::vector<LaneSpec> parse_lane_specs(const std::string& spec) {
  std::vector<LaneSpec> lanes;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    const std::size_t colon = entry.find(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      throw ContractViolation(strprintf(
          "--hetero=%s: expected off, auto or a comma-separated "
          "kernel:threads list (e.g. simd:6,scalar:2)",
          spec.c_str()));
    }
    LaneSpec lane;
    const std::string kernel = entry.substr(0, colon);
    try {
      lane.kernel = parse_kernel(kernel);
    } catch (const std::invalid_argument&) {
      throw ContractViolation(
          strprintf("--hetero=%s: unknown kernel '%s' (expected %s)",
                    spec.c_str(), kernel.c_str(), kernel_names()));
    }
    char* parsed_end = nullptr;
    const std::string count = entry.substr(colon + 1);
    const long threads = std::strtol(count.c_str(), &parsed_end, 10);
    if (parsed_end == nullptr || *parsed_end != '\0' || threads < 1) {
      throw ContractViolation(
          strprintf("--hetero=%s: lane '%s' needs a positive thread count",
                    spec.c_str(), entry.c_str()));
    }
    lane.threads = static_cast<int>(threads);
    lanes.push_back(lane);
  }
  return lanes;
}

void TingeConfig::validate() const {
  TINGE_EXPECTS(spline_order >= 1);
  TINGE_EXPECTS(spline_order <= BsplineBasis::kMaxOrder);
  TINGE_EXPECTS(bins >= spline_order);
  TINGE_EXPECTS(alpha > 0.0 && alpha < 1.0);
  TINGE_EXPECTS(permutations >= 10);
  TINGE_EXPECTS(tile_size >= 1);
  TINGE_EXPECTS(threads >= 0);
  TINGE_EXPECTS(team_size >= 1);
  TINGE_EXPECTS(panel_width >= 0 && panel_width <= kMaxPanelWidth);
  TINGE_EXPECTS(dpi_tolerance >= 0.0 && dpi_tolerance < 1.0);
  TINGE_EXPECTS(cluster_ranks >= 0);
  TINGE_EXPECTS(cluster_transport == "inproc" || cluster_transport == "tcp");
  TINGE_EXPECTS(cluster_balance == "static" || cluster_balance == "lease");
  TINGE_EXPECTS(consensus_min_frequency > 0.0 &&
                consensus_min_frequency <= 1.0);
  // Consensus is an ensemble over single-process engine runs; sharding one
  // resample across ranks is not supported.
  TINGE_EXPECTS(consensus_resamples == 0 || cluster_ranks == 0);

  // Scheduler precedence (see the numa field comment): team, hetero and
  // numa each replace the flat scheduler, so explicitly forcing two of
  // them together is an error, not a silent pick. numa=auto stays legal
  // everywhere — it resolves off when another scheduler is active.
  if (numa == KnobMode::On && team_size > 1) {
    throw ContractViolation(strprintf(
        "--numa=on requires the flat scheduler but --team=%d is set; "
        "teamed claiming ignores the NUMA tile plan (drop one of the two, "
        "or use --numa=auto to let teams win)",
        team_size));
  }
  if (hetero != "off") {
    if (team_size > 1) {
      throw ContractViolation(strprintf(
          "--hetero=%s requires the flat scheduler but --team=%d is set; "
          "lanes and teams cannot share the pool",
          hetero.c_str(), team_size));
    }
    if (numa == KnobMode::On) {
      throw ContractViolation(strprintf(
          "--hetero=%s cannot combine with --numa=on: both replace the "
          "flat tile queue (use --numa=auto to let lanes win)",
          hetero.c_str()));
    }
    if (cluster_ranks > 0) {
      throw ContractViolation(strprintf(
          "--hetero=%s is a single-process scheduler; it cannot combine "
          "with --cluster=%d",
          hetero.c_str(), cluster_ranks));
    }
    if (hetero != "auto") {
      const std::vector<LaneSpec> lanes = parse_lane_specs(hetero);
      if (threads <= 0) {
        throw ContractViolation(strprintf(
            "--hetero=%s: an explicit lane spec needs an explicit "
            "--threads so the lane thread counts have a total to match",
            hetero.c_str()));
      }
      int lane_threads = 0;
      for (const LaneSpec& lane : lanes) lane_threads += lane.threads;
      if (lane_threads != threads) {
        throw ContractViolation(strprintf(
            "--hetero=%s: lane thread counts sum to %d but --threads=%d",
            hetero.c_str(), lane_threads, threads));
      }
    }
  }
}

}  // namespace tinge
