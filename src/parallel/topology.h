// Processor topology description.
//
// The Xeon Phi exposes its parallelism as cores x hardware-threads
// (61 x 4 on the 5110P); the paper's scheduler reasons in those terms
// (spread first across cores, then across a core's thread contexts).
// Topology captures that shape both for the real host and for the modeled
// devices in src/device.
#pragma once

#include <string>

namespace tinge::par {

struct Topology {
  int cores = 1;
  int threads_per_core = 1;

  int total_threads() const { return cores * threads_per_core; }

  /// "4 cores x 2 threads (8 contexts)"
  std::string to_string() const;

  /// Maps a logical thread id to the OS CPU it should be pinned to under
  /// a scatter (core-first) policy: consecutive logical ids land on
  /// different cores before doubling up on SMT siblings. Assumes the
  /// common Linux enumeration where sibling s of core c is cpu c + s*cores.
  int scatter_cpu(int logical_thread) const;

  /// Compact (core-fill) policy: fill all thread contexts of a core before
  /// moving to the next core — the Phi-native placement for bandwidth-bound
  /// kernels sharing a core's L2.
  int compact_cpu(int logical_thread) const;
};

/// Queries the machine this process runs on (Linux sysfs; falls back to
/// hardware_concurrency with 1 thread/core).
Topology detect_host_topology();

}  // namespace tinge::par
