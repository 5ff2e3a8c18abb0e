#include "core/config.h"

#include "util/contracts.h"

namespace tinge {

void TingeConfig::validate() const {
  TINGE_EXPECTS(spline_order >= 1);
  TINGE_EXPECTS(spline_order <= BsplineBasis::kMaxOrder);
  TINGE_EXPECTS(bins >= spline_order);
  TINGE_EXPECTS(alpha > 0.0 && alpha < 1.0);
  TINGE_EXPECTS(permutations >= 10);
  TINGE_EXPECTS(tile_size >= 1);
  TINGE_EXPECTS(threads >= 0);
  TINGE_EXPECTS(team_size >= 1);
  TINGE_EXPECTS(dpi_tolerance >= 0.0 && dpi_tolerance < 1.0);
  TINGE_EXPECTS(cluster_ranks >= 0);
  TINGE_EXPECTS(cluster_transport == "inproc" || cluster_transport == "tcp");
  TINGE_EXPECTS(consensus_min_frequency > 0.0 &&
                consensus_min_frequency <= 1.0);
  // Consensus is an ensemble over single-process engine runs; sharding one
  // resample across ranks is not supported.
  TINGE_EXPECTS(consensus_resamples == 0 || cluster_ranks == 0);
}

}  // namespace tinge
