#include "parallel/affinity.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace tinge::par {

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::None: return "none";
    case Placement::Scatter: return "scatter";
    case Placement::Compact: return "compact";
  }
  return "?";
}

}  // namespace tinge::par
