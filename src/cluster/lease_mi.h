// Distributed all-pairs MI — the cluster baseline the paper's single-chip
// solution replaces — as rank-0 tile leases with work stealing.
//
// TINGe-classic (Zola et al.) splits the genes into P blocks and assigns
// every block pair to one rank by a static rule (block_pair_owner below),
// circulating the blocks around a ring; the slowest rank then gates every
// sweep, and a checkpoint would bind to the world size that wrote it. The
// lease protocol distributes not gene blocks but tiles of the *global*
// single-process sweep plan (SweepPlan::triangular(0, n, tile_size) — the
// exact tile index space the engine's checkpoint journal uses):
//
//   * Every rank holds the full ranked matrix (it is loaded and ranked
//     locally anyway), so any rank can compute any tile.
//   * Rank 0 owns a LeaseLedger over the plan. Workers request a lease
//     when their local queue drains; rank 0 grants a batch from the ready
//     queue in LPT order (largest pair_count first — the hot diagonal
//     tiles go out early so no rank is left holding a big tile at the
//     end), computes tiles itself between polls, and reclaims the leases
//     of any rank that dies (PeerFailureError on its probe), re-queueing
//     them at the front of the ready queue.
//   * Completed tiles come back as (tile, busy_us, edges) messages; rank 0
//     merges, journals (config.checkpoint_path), and accounts per-rank
//     pairs and busy seconds.
//
// Because the tile index space is the single-process engine's, the journal
// is partition-independent: a checkpoint written by a 4-rank run (or by the
// p == 1 engine) seeds the ledger of a 2- or 8-rank resume, and the merged
// network is byte-identical to the single-process one in all cases
// (GeneNetwork::finalize sorts, so assignment order cannot show).
//
// The sweep is written against the rank-handle Comm facade only, so it
// runs unchanged over the in-process rank-thread backend and over real TCP
// worker processes (see transport.h / launcher.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/transport.h"
#include "core/config.h"
#include "core/pair_statistic.h"
#include "core/sweep.h"
#include "graph/network.h"
#include "preprocess/rank_transform.h"

namespace tinge::cluster {

// Lease protocol tags, above the sharded collectives (20000..20004).
constexpr int kTagLeaseRequest = 30000;  ///< worker -> 0, empty payload
constexpr int kTagLeaseGrant = 30001;    ///< 0 -> worker, u64 tile indices
constexpr int kTagTileDone = 30002;      ///< worker -> 0, packed TileDone

/// Rank 0's global tile ledger: which plan tiles are ready, leased (and to
/// whom), or done. Single-threaded — the master loop is the only caller —
/// and transport-free, so the property test can model-check it over
/// arbitrary request/grant/reclaim interleavings in isolation.
///
/// Invariants (TINGE-enforced and test-enforced):
///   * every tile is granted to at most one holder at a time;
///   * a tile leaves the ledger only through complete();
///   * leases_granted == tiles_completed + tiles_reclaimed + outstanding
///     at every point, so when the ledger is done and nothing is
///     outstanding, granted = completed + reclaimed (work conservation).
class LeaseLedger {
 public:
  /// `resumed`, when non-null, flags plan tiles already journaled by a
  /// previous attempt (one char per plan tile, as in ResumeState::done);
  /// they start Done and are never granted. Ready tiles are ordered LPT:
  /// descending pair_count, ties by ascending tile index.
  explicit LeaseLedger(const SweepPlan& plan,
                       const std::vector<char>* resumed = nullptr);

  /// Leases up to `max_tiles` ready tiles to `rank`, in ready order.
  /// Returns the granted tile indices (empty when the ready queue is dry).
  std::vector<std::uint64_t> grant(int rank, std::size_t max_tiles);

  /// Marks a leased tile complete. The tile must be leased to `rank`.
  void complete(int rank, std::uint64_t tile);

  /// Revokes every lease held by `rank` (it died or timed out): the tiles
  /// return to the *front* of the ready queue — someone idled waiting on
  /// them — in ascending index order. Returns the reclaimed indices.
  std::vector<std::uint64_t> reclaim(int rank);

  /// No ready tiles left to grant (outstanding leases may remain).
  bool drained() const { return ready_.empty(); }
  /// Every plan tile is done (completed now or resumed from the journal).
  bool done() const { return completed_ + resumed_ == slots_.size(); }
  /// Tiles currently out on lease.
  std::size_t outstanding() const { return outstanding_; }
  /// Lowest rank currently holding a lease, or -1 when none is out.
  int lowest_holder() const;

  std::size_t tiles_total() const { return slots_.size(); }
  std::size_t tiles_resumed() const { return resumed_; }
  std::size_t tiles_completed() const { return completed_; }
  std::size_t tiles_reclaimed() const { return reclaimed_; }
  /// Tile-grants issued, re-grants of reclaimed tiles included.
  std::size_t leases_granted() const { return granted_; }

 private:
  enum class State : char { Ready, Leased, Done };
  struct Slot {
    State state = State::Ready;
    int holder = -1;
  };

  std::deque<std::uint64_t> ready_;
  std::vector<Slot> slots_;
  std::size_t resumed_ = 0;
  std::size_t completed_ = 0;
  std::size_t reclaimed_ = 0;
  std::size_t granted_ = 0;
  std::size_t outstanding_ = 0;
};

/// What the lease sweep reports to the pipeline (rank 0 only; workers get
/// a default-constructed report).
struct LeaseSweepReport {
  std::vector<std::size_t> pairs_per_rank;
  /// Wall seconds each rank spent inside tile compute (straggle sleeps
  /// included — that is the point: the straggler's tiles cost more).
  std::vector<double> busy_seconds_per_rank;
  std::size_t leases_granted = 0;
  /// Tiles computed by a rank other than their block_pair_owner — the
  /// work the protocol moved off TINGe-classic's static assignment.
  std::size_t steals = 0;
  std::size_t tiles_reclaimed = 0;
  std::size_t tiles_total = 0;
  std::size_t tiles_resumed = 0;
  std::size_t pairs_resumed = 0;
  /// Ranks whose leases were reclaimed (died or timed out mid-sweep).
  std::vector<int> dead_ranks;
};

/// One rank's share of the lease-balanced distributed sweep. Collective
/// over `comm`; every rank passes the same inputs. Returns the merged,
/// finalized network on rank 0 (byte-identical to the single-process
/// engine) and an empty finalized network elsewhere.
///
/// Rank 0 honors config.checkpoint_path: it opens the journal through
/// open_sweep_journal, as the engine's checkpointed pass does, so an
/// existing matching journal seeds the ledger (resume on ANY world size);
/// completed tiles are journaled and the journal is removed on success.
/// `cancel`, when non-null, is polled between tiles on every rank; a
/// tripped flag aborts the rank with SweepAborted (see core/sweep.h).
GeneNetwork lease_sweep(Comm& comm, const PairStatistic& statistic,
                        const RankedMatrix& ranked, double threshold,
                        const TingeConfig& config,
                        LeaseSweepReport* report = nullptr,
                        const std::atomic<bool>* cancel = nullptr);

/// What a distributed sweep cost, as rank 0 saw it.
struct ClusterStats {
  int ranks = 0;
  std::string transport = "inproc";
  std::uint64_t bytes_transferred = 0;  ///< payload bytes, all ranks
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> bytes_per_rank;  ///< payload bytes sent, by rank
  std::vector<std::size_t> pairs_per_rank;
  /// Wall seconds each rank spent inside tile compute (straggle included).
  std::vector<double> busy_seconds_per_rank;
  std::size_t pairs_total = 0;
  double seconds = 0.0;
  std::size_t leases_granted = 0;
  std::size_t steals = 0;  ///< tiles computed off their block_pair_owner
  std::size_t tiles_reclaimed = 0;
  std::vector<int> dead_ranks;

  /// max/min computed pairs across ranks that computed any (1.0 = perfectly
  /// balanced; 1.0 when fewer than two ranks computed pairs).
  double imbalance() const;
  /// Predicted wall imbalance of a *static* split: max/min per-rank compute
  /// rate (pairs per busy second) across active ranks. A 5x straggler shows
  /// up here whether or not the balancer hid it.
  double imbalance_pre() const;
  /// Actual wall imbalance: max/min per-rank busy seconds across active
  /// ranks — what the stealing left.
  double imbalance_post() const;
};

/// Runs lease_sweep on `ranks` ranks over the chosen backend and returns
/// the merged thresholded network (identical, up to edge order, to
/// MiEngine::compute_network on the same inputs — test-enforced, for both
/// backends). `config` supplies the kernel choice, tile size and journal;
/// threading inside a rank is not used (one thread per rank, as in the
/// classic flat-MPI TINGe).
GeneNetwork cluster_compute_network(
    const PairStatistic& statistic, const RankedMatrix& ranked,
    double threshold, int ranks, const TingeConfig& config,
    ClusterStats* stats = nullptr,
    TransportKind kind = TransportKind::InProcess,
    const TransportOptions& options = {});

/// TINGe-classic's balanced block-pair rule, which `steals` is counted
/// against: which rank owns unordered block pair {a, b} (a <= b) among
/// `ranks` contiguous gene blocks — rank a if (a + b) is even, rank b
/// otherwise; a diagonal pair belongs to its block's rank.
int block_pair_owner(int a, int b, int ranks);

}  // namespace tinge::cluster
