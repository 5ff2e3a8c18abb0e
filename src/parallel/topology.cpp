#include "parallel/topology.h"

#include <fstream>
#include <thread>
#include <vector>

#include "util/contracts.h"
#include "util/str.h"

namespace tinge::par {

std::string Topology::to_string() const {
  return strprintf("%d cores x %d threads (%d contexts)", cores,
                   threads_per_core, total_threads());
}

int Topology::scatter_cpu(int logical_thread) const {
  TINGE_EXPECTS(logical_thread >= 0);
  const int t = logical_thread % total_threads();
  const int core = t % cores;
  const int sibling = t / cores;
  return sibling * cores + core;
}

int Topology::compact_cpu(int logical_thread) const {
  TINGE_EXPECTS(logical_thread >= 0);
  const int t = logical_thread % total_threads();
  const int core = t / threads_per_core;
  const int sibling = t % threads_per_core;
  return sibling * cores + core;
}

Topology detect_host_topology() {
  Topology topo;
  const int logical = static_cast<int>(std::thread::hardware_concurrency());
  topo.cores = logical > 0 ? logical : 1;
  topo.threads_per_core = 1;

  // thread_siblings_list is "0,32" or "0-1" style; count entries to get SMT.
  std::ifstream siblings("/sys/devices/system/cpu/cpu0/topology/thread_siblings_list");
  if (siblings) {
    std::string line;
    std::getline(siblings, line);
    int count = 0;
    for (const auto field : split_view(line, ',')) {
      const auto range = split_view(field, '-');
      if (range.size() == 2) {
        const auto lo = parse_int(range[0]);
        const auto hi = parse_int(range[1]);
        if (lo && hi && *hi >= *lo) count += static_cast<int>(*hi - *lo + 1);
      } else if (!trim(field).empty()) {
        ++count;
      }
    }
    if (count > 1 && topo.cores % count == 0) {
      topo.threads_per_core = count;
      topo.cores /= count;
    }
  }
  return topo;
}

}  // namespace tinge::par
