// Fault injection for the cluster runtime: a decorator over any Transport
// backend that delays, drops, or kills according to a deterministic plan.
//
// This is the test harness for the fault-tolerance layer — recv deadlines,
// dead-peer detection, launcher failure attribution and checkpoint resume
// are all exercised by wrapping a real backend in a FaultyTransport and
// letting the injected fault play out. The plan is seeded and counted in
// data operations (send/recv calls), not wall-clock, so a given plan kills
// the same rank at the same point of the pipeline on every run.
//
// Two kill modes cover the two execution shapes:
//   * Throw — the injected fault raises InjectedFault out of the rank body;
//     right for in-process rank-thread clusters, where survivors then see
//     PeerFailureError through the done-roster.
//   * Exit — ::_exit(exit_code), no unwinding, no atexit; right for real
//     worker processes, where the kernel closes the sockets and survivors
//     see PeerFailureError through the closed connection.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cluster/transport.h"

namespace tinge::cluster {

/// The exception a KillMode::Throw fault raises out of the faulted rank.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(const std::string& what, int rank)
      : std::runtime_error(what), rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

enum class KillMode {
  Throw,  ///< raise InjectedFault from the faulted data op
  Exit,   ///< ::_exit(exit_code): simulated process crash, no unwinding
};

/// A deterministic fault schedule. Counts are in *data operations* — each
/// send() or recv() on the wrapped endpoint is one op — so the same plan
/// hits the same pipeline point every run regardless of timing.
struct FaultPlan {
  /// Rank the plan applies to; -1 applies it to every wrapped endpoint.
  int rank = -1;
  /// Fixed sleep before every data op, plus a deterministic per-op jitter
  /// drawn uniformly from [0, jitter_ms) using `seed`.
  double delay_ms = 0.0;
  double jitter_ms = 0.0;
  /// Per-tile *compute* sleep on the armed rank: the straggler fault.
  /// Delaying messages would slow the rank's traffic, not its compute, so
  /// the lease sweep queries this through straggle_delay_ms() and sleeps
  /// inside tile compute instead.
  double tile_delay_ms = 0.0;
  /// After this many sends, further sends are silently swallowed (the
  /// classic lost-message fault; peers block until their recv deadline).
  /// < 0 disables.
  long long drop_after = -1;
  /// Kill (per kill_mode) when the data-op count reaches this value.
  /// < 0 disables.
  long long kill_after = -1;
  KillMode kill_mode = KillMode::Throw;
  /// Exit status for KillMode::Exit. Distinct from the worker's real exit
  /// codes so the launcher report shows the kill was the injected one.
  int exit_code = 40;
  std::uint64_t seed = 0x7461636974;
};

/// Parses a comma-separated spec like
///   "rank=1,kill-after=4,mode=exit"
///   "rank=2,delay-ms=5,jitter-ms=3,seed=99"
///   "rank=1,tile-delay-ms=20"
/// Keys: rank, delay-ms, jitter-ms, tile-delay-ms, drop-after, kill-after,
/// mode (throw|exit), exit-code, seed. Throws std::invalid_argument on an
/// unknown key or malformed value so CLI typos fail loudly.
FaultPlan parse_fault_plan(const std::string& spec);

/// The decorator: forwards everything to `inner`, injecting the plan's
/// faults on the way. Non-owning — `inner` must outlive it. The plan is
/// inert when plan.rank names a different rank than inner.rank().
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(Transport& inner, const FaultPlan& plan);

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  TransportKind kind() const override { return inner_->kind(); }

  void send(int dest, const void* data, std::size_t bytes, int tag) override;
  std::vector<std::byte> recv(int src, int tag) override;
  std::vector<std::byte> recv(int src, int tag,
                              double timeout_seconds) override;
  std::optional<std::vector<std::byte>> try_recv(int src, int tag) override;
  void barrier() override;

  std::vector<PeerTraffic> peer_traffic() const override {
    return inner_->peer_traffic();
  }

  /// True when the plan applies to this endpoint's rank.
  bool armed() const { return armed_; }
  /// The per-tile compute sleep this endpoint should suffer (0 when the
  /// plan targets a different rank). The lease sweep dynamic_casts the
  /// transport to find this — the straggler fault lives in compute, not
  /// messaging.
  double tile_delay_ms() const { return armed_ ? plan_.tile_delay_ms : 0.0; }
  /// Data ops observed so far (sends + recvs), fault-armed or not.
  long long ops() const { return ops_; }
  /// Sends swallowed by the drop fault so far.
  long long dropped_sends() const { return dropped_sends_; }

 private:
  void before_op();

  Transport* inner_;
  FaultPlan plan_;
  bool armed_ = false;
  long long ops_ = 0;
  long long sends_ = 0;
  long long dropped_sends_ = 0;
};

/// The per-tile compute straggle the fault plan imposes on this endpoint:
/// the plan's tile_delay_ms when `transport` is a FaultyTransport armed on
/// its rank, 0 otherwise. How the lease sweep locates the straggler fault
/// without depending on the decorator being present.
double straggle_delay_ms(const Transport& transport);

}  // namespace tinge::cluster
