#include "cluster/faulty_transport.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/str.h"

namespace tinge::cluster {

namespace {

/// splitmix64: tiny, stateless, and plenty for jitter — the same (seed, op)
/// pair always yields the same delay.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

long long parse_count(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty())
    throw std::invalid_argument(
        strprintf("fault plan: %s wants an integer, got '%s'", key.c_str(),
                  value.c_str()));
  return parsed;
}

double parse_real(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty())
    throw std::invalid_argument(
        strprintf("fault plan: %s wants a number, got '%s'", key.c_str(),
                  value.c_str()));
  return parsed;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument(
          strprintf("fault plan: expected key=value, got '%s'", item.c_str()));
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "rank") {
      plan.rank = static_cast<int>(parse_count(key, value));
    } else if (key == "delay-ms") {
      plan.delay_ms = parse_real(key, value);
    } else if (key == "jitter-ms") {
      plan.jitter_ms = parse_real(key, value);
    } else if (key == "tile-delay-ms") {
      plan.tile_delay_ms = parse_real(key, value);
    } else if (key == "drop-after") {
      plan.drop_after = parse_count(key, value);
    } else if (key == "kill-after") {
      plan.kill_after = parse_count(key, value);
    } else if (key == "mode") {
      if (value == "throw")
        plan.kill_mode = KillMode::Throw;
      else if (value == "exit")
        plan.kill_mode = KillMode::Exit;
      else
        throw std::invalid_argument(strprintf(
            "fault plan: mode wants throw|exit, got '%s'", value.c_str()));
    } else if (key == "exit-code") {
      plan.exit_code = static_cast<int>(parse_count(key, value));
    } else if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_count(key, value));
    } else {
      throw std::invalid_argument(
          strprintf("fault plan: unknown key '%s' (expected rank, delay-ms, "
                    "jitter-ms, tile-delay-ms, drop-after, kill-after, "
                    "mode, exit-code, seed)",
                    key.c_str()));
    }
  }
  return plan;
}

FaultyTransport::FaultyTransport(Transport& inner, const FaultPlan& plan)
    : inner_(&inner),
      plan_(plan),
      armed_(plan.rank < 0 || plan.rank == inner.rank()) {}

void FaultyTransport::before_op() {
  ++ops_;
  if (!armed_) return;
  if (plan_.delay_ms > 0.0 || plan_.jitter_ms > 0.0) {
    double ms = plan_.delay_ms;
    if (plan_.jitter_ms > 0.0) {
      const std::uint64_t draw =
          mix64(plan_.seed ^ static_cast<std::uint64_t>(ops_));
      ms += plan_.jitter_ms *
            (static_cast<double>(draw >> 11) / 9007199254740992.0);
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
  if (plan_.kill_after >= 0 && ops_ >= plan_.kill_after) {
    if (plan_.kill_mode == KillMode::Exit) {
      // Simulated crash: no unwinding, no atexit, sockets closed by the
      // kernel — exactly what survivors of a real worker death observe.
      ::_exit(plan_.exit_code);
    }
    throw InjectedFault(
        strprintf("injected fault: rank %d killed at data op %lld",
                  inner_->rank(), ops_),
        inner_->rank());
  }
}

void FaultyTransport::send(int dest, const void* data, std::size_t bytes,
                           int tag) {
  before_op();
  ++sends_;
  if (armed_ && plan_.drop_after >= 0 && sends_ > plan_.drop_after) {
    ++dropped_sends_;
    return;
  }
  inner_->send(dest, data, bytes, tag);
}

std::vector<std::byte> FaultyTransport::recv(int src, int tag) {
  before_op();
  return inner_->recv(src, tag);
}

std::vector<std::byte> FaultyTransport::recv(int src, int tag,
                                             double timeout_seconds) {
  before_op();
  return inner_->recv(src, tag, timeout_seconds);
}

std::optional<std::vector<std::byte>> FaultyTransport::try_recv(int src,
                                                                int tag) {
  // Deliberately NOT a data op: the lease master polls try_recv an
  // unbounded, timing-dependent number of times, so counting polls would
  // make op-counted kill plans fire at a different pipeline point on every
  // run — the opposite of what a deterministic fault schedule is for.
  return inner_->try_recv(src, tag);
}

void FaultyTransport::barrier() {
  // Barriers are not data ops (their count varies between pipeline
  // variants), but a kill-armed plan still fires here so a faulted rank
  // cannot slip through a barrier-only phase alive.
  if (armed_ && plan_.kill_after >= 0 && ops_ >= plan_.kill_after) {
    if (plan_.kill_mode == KillMode::Exit) ::_exit(plan_.exit_code);
    throw InjectedFault(
        strprintf("injected fault: rank %d killed at barrier after data op "
                  "%lld",
                  inner_->rank(), ops_),
        inner_->rank());
  }
  inner_->barrier();
}

double straggle_delay_ms(const Transport& transport) {
  const auto* faulty = dynamic_cast<const FaultyTransport*>(&transport);
  return faulty != nullptr ? faulty->tile_delay_ms() : 0.0;
}

}  // namespace tinge::cluster
