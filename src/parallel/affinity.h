// Thread-to-CPU pinning. On the Phi, thread placement (compact vs scatter)
// is a first-order performance knob because four hardware threads share a
// core's L2; we expose the same knob. No-ops cleanly where unsupported.
#pragma once

namespace tinge::par {

enum class Placement {
  None,     ///< leave scheduling to the OS
  Scatter,  ///< one thread per core before using SMT siblings
  Compact,  ///< fill a core's SMT contexts before the next core
};

/// Pins the calling thread to `cpu`. Returns false if pinning failed or is
/// unsupported on this platform (the computation proceeds unpinned).
bool pin_current_thread(int cpu);

const char* placement_name(Placement p);

}  // namespace tinge::par
