#include "cluster/lease_mi.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "cluster/faulty_transport.h"
#include "util/timer.h"

namespace tinge::cluster {

namespace {

/// max/min over the values that pass `active` (1.0 when fewer than two do,
/// so a run where work landed on a single rank reads "balanced" rather
/// than dividing by an idle rank's zero).
template <typename T, typename Pred>
double active_spread(const std::vector<T>& values, Pred active) {
  double lo = 0.0;
  double hi = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!active(i)) continue;
    const double v = static_cast<double>(values[i]);
    if (count == 0 || v < lo) lo = v;
    if (count == 0 || v > hi) hi = v;
    ++count;
  }
  if (count < 2 || lo <= 0.0) return 1.0;
  return hi / lo;
}

}  // namespace

double ClusterStats::imbalance() const {
  return active_spread(pairs_per_rank,
                       [&](std::size_t i) { return pairs_per_rank[i] > 0; });
}

double ClusterStats::imbalance_pre() const {
  // Per-rank compute rate: pairs per busy second, over ranks that did both.
  std::vector<double> rate(pairs_per_rank.size(), 0.0);
  for (std::size_t i = 0;
       i < pairs_per_rank.size() && i < busy_seconds_per_rank.size(); ++i)
    if (pairs_per_rank[i] > 0 && busy_seconds_per_rank[i] > 0.0)
      rate[i] = static_cast<double>(pairs_per_rank[i]) /
                busy_seconds_per_rank[i];
  return active_spread(rate, [&](std::size_t i) { return rate[i] > 0.0; });
}

double ClusterStats::imbalance_post() const {
  return active_spread(busy_seconds_per_rank, [&](std::size_t i) {
    return i < pairs_per_rank.size() && pairs_per_rank[i] > 0 &&
           busy_seconds_per_rank[i] > 0.0;
  });
}

int block_pair_owner(int a, int b, int ranks) {
  TINGE_EXPECTS(0 <= a && a <= b && b < ranks);
  if (a == b) return a;
  return (a + b) % 2 == 0 ? a : b;
}

LeaseLedger::LeaseLedger(const SweepPlan& plan,
                         const std::vector<char>* resumed) {
  TINGE_EXPECTS(resumed == nullptr || resumed->size() == plan.count());
  slots_.resize(plan.count());
  std::vector<std::uint64_t> order;
  order.reserve(plan.count());
  for (std::size_t t = 0; t < plan.count(); ++t) {
    if (resumed != nullptr && (*resumed)[t]) {
      slots_[t].state = State::Done;
      ++resumed_;
    } else {
      order.push_back(static_cast<std::uint64_t>(t));
    }
  }
  // LPT order: biggest tiles first (descending pair_count, ties by index).
  // The full-size diagonal-band tiles go out while every rank still has
  // work, so the sweep never ends with one rank alone on a big tile.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return plan.tile(static_cast<std::size_t>(a)).pair_count() >
                            plan.tile(static_cast<std::size_t>(b)).pair_count();
                   });
  ready_.assign(order.begin(), order.end());
}

std::vector<std::uint64_t> LeaseLedger::grant(int rank,
                                              std::size_t max_tiles) {
  TINGE_EXPECTS(rank >= 0);
  std::vector<std::uint64_t> granted;
  while (granted.size() < max_tiles && !ready_.empty()) {
    const std::uint64_t t = ready_.front();
    ready_.pop_front();
    Slot& slot = slots_[static_cast<std::size_t>(t)];
    TINGE_ENSURES(slot.state == State::Ready);
    slot.state = State::Leased;
    slot.holder = rank;
    granted.push_back(t);
  }
  granted_ += granted.size();
  outstanding_ += granted.size();
  return granted;
}

void LeaseLedger::complete(int rank, std::uint64_t tile) {
  TINGE_EXPECTS(static_cast<std::size_t>(tile) < slots_.size());
  Slot& slot = slots_[static_cast<std::size_t>(tile)];
  TINGE_EXPECTS(slot.state == State::Leased && slot.holder == rank);
  slot.state = State::Done;
  slot.holder = -1;
  ++completed_;
  --outstanding_;
}

std::vector<std::uint64_t> LeaseLedger::reclaim(int rank) {
  std::vector<std::uint64_t> reclaimed;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    Slot& slot = slots_[t];
    if (slot.state == State::Leased && slot.holder == rank) {
      slot.state = State::Ready;
      slot.holder = -1;
      reclaimed.push_back(static_cast<std::uint64_t>(t));
    }
  }
  // Front of the queue, ascending index: these tiles already made someone
  // wait once, so they preempt the LPT tail.
  for (auto it = reclaimed.rbegin(); it != reclaimed.rend(); ++it)
    ready_.push_front(*it);
  reclaimed_ += reclaimed.size();
  outstanding_ -= reclaimed.size();
  return reclaimed;
}

int LeaseLedger::lowest_holder() const {
  int lowest = -1;
  for (const Slot& slot : slots_) {
    if (slot.state != State::Leased) continue;
    if (lowest < 0 || slot.holder < lowest) lowest = slot.holder;
  }
  return lowest;
}

namespace {

/// Wire format of a kTagTileDone message:
///   u64 tile_index | u64 busy_us | Edge (u32, u32, f32) x count
struct TileDoneHeader {
  std::uint64_t tile = 0;
  std::uint64_t busy_us = 0;
};
static_assert(std::is_trivially_copyable_v<TileDoneHeader>);
static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 12);

std::vector<std::byte> pack_tile_done(std::uint64_t tile,
                                      std::uint64_t busy_us,
                                      const std::vector<Edge>& edges) {
  TileDoneHeader header{tile, busy_us};
  std::vector<std::byte> wire(sizeof(header) + edges.size() * sizeof(Edge));
  std::memcpy(wire.data(), &header, sizeof(header));
  if (!edges.empty())
    std::memcpy(wire.data() + sizeof(header), edges.data(),
                edges.size() * sizeof(Edge));
  return wire;
}

struct TileDone {
  std::uint64_t tile = 0;
  double busy_seconds = 0.0;
  std::vector<Edge> edges;
};

TileDone unpack_tile_done(const std::vector<std::byte>& wire) {
  TINGE_EXPECTS(wire.size() >= sizeof(TileDoneHeader) &&
                (wire.size() - sizeof(TileDoneHeader)) % sizeof(Edge) == 0);
  TileDoneHeader header;
  std::memcpy(&header, wire.data(), sizeof(header));
  TileDone done;
  done.tile = header.tile;
  done.busy_seconds = static_cast<double>(header.busy_us) * 1e-6;
  done.edges.resize((wire.size() - sizeof(header)) / sizeof(Edge));
  if (!done.edges.empty())
    std::memcpy(done.edges.data(), wire.data() + sizeof(header),
                wire.size() - sizeof(header));
  return done;
}

void straggle(double delay_ms) {
  if (delay_ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
}

/// One tile's edges through the exact engine kernel path (bit-identical to
/// the single-process sweep, so merge order is the only variable — and
/// GeneNetwork::finalize sorts that away).
template <typename RowSource>
std::vector<Edge> compute_tile_edges(const PairStatistic& statistic,
                                     RowSource& row, const Tile& tile,
                                     const PanelPlan& panels, double threshold,
                                     PairScratch& scratch) {
  EdgeSink sink(threshold, /*contexts=*/1);
  SweepCounters counters;
  detail::sweep_tile(statistic, row, tile, panels, /*phase=*/0, /*stride=*/1,
                     scratch, counters, sink, /*tid=*/0);
  return sink.take_all();
}

/// TINGe-classic's owner for a tile of the global plan — what the steal
/// counter compares actual assignment against. Genes split into contiguous
/// ceil(n/p) blocks; a tile straddling a block boundary is read off its
/// first row and column.
int static_tile_owner(const Tile& tile, std::size_t n_genes, int ranks) {
  const std::size_t per =
      (n_genes + static_cast<std::size_t>(ranks) - 1) /
      static_cast<std::size_t>(ranks);
  const auto block_of = [&](std::size_t g) {
    return static_cast<int>(std::min(g / per,
                                     static_cast<std::size_t>(ranks - 1)));
  };
  const int a = block_of(tile.row_begin);
  const int b = block_of(tile.col_begin);
  return block_pair_owner(std::min(a, b), std::max(a, b), ranks);
}

template <typename RowSource>
GeneNetwork lease_worker(Comm& comm, const PairStatistic& statistic,
                         RowSource& row, const RankedMatrix& ranked,
                         const SweepPlan& plan, const PanelPlan& panels,
                         double threshold, double straggle_ms,
                         const std::atomic<bool>* cancel) {
  const std::unique_ptr<PairScratch> scratch = statistic.make_scratch();
  while (true) {
    comm.send(0, nullptr, 0, kTagLeaseRequest);
    const std::vector<std::uint64_t> granted =
        comm.recv_vector<std::uint64_t>(0, kTagLeaseGrant);
    if (granted.empty()) break;  // released: the ledger has nothing left
    for (const std::uint64_t t : granted) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
        throw SweepAborted();
      const Stopwatch tile_watch;
      straggle(straggle_ms);
      const std::vector<Edge> edges = compute_tile_edges(
          statistic, row, plan.tile(static_cast<std::size_t>(t)), panels,
          threshold, *scratch);
      const auto busy_us =
          static_cast<std::uint64_t>(tile_watch.seconds() * 1e6);
      const std::vector<std::byte> wire = pack_tile_done(t, busy_us, edges);
      comm.send(0, wire.data(), wire.size(), kTagTileDone);
    }
  }
  GeneNetwork network(ranked.gene_names());
  network.finalize();
  return network;
}

template <typename RowSource>
GeneNetwork lease_master(Comm& comm, const PairStatistic& statistic,
                         RowSource& row, const RankedMatrix& ranked,
                         const SweepPlan& plan, const PanelPlan& panels,
                         double threshold, const TingeConfig& config,
                         double straggle_ms, LeaseSweepReport* report,
                         const std::atomic<bool>* cancel) {
  const int p = comm.size();
  const std::size_t n = ranked.n_genes();

  // Partition-independent resume: the engine's checkpointed pass opens its
  // journal through the same open_sweep_journal, whose signature has no
  // world size, so journals from any rank count, the p == 1 engine
  // included, seed this ledger, and a journal this run writes resumes on
  // any world size.
  SweepJournal journal;
  if (!config.checkpoint_path.empty())
    journal = open_sweep_journal(config.checkpoint_path, statistic, ranked,
                                 config.tile_size, threshold, plan);
  const ResumeState& resume = journal.resume;
  LeaseLedger ledger(plan, journal.writer ? &resume.done : nullptr);

  GeneNetwork network(ranked.gene_names());
  for (const TileRecord& record : resume.records)
    network.add_edges(record.edges);

  std::vector<char> dead(static_cast<std::size_t>(p), 0);
  std::vector<char> pending(static_cast<std::size_t>(p), 0);
  std::vector<std::size_t> pairs(static_cast<std::size_t>(p), 0);
  std::vector<double> busy(static_cast<std::size_t>(p), 0.0);
  std::vector<int> dead_ranks;
  std::size_t steals = 0;
  std::size_t pairs_computed = 0;
  const std::unique_ptr<PairScratch> scratch = statistic.make_scratch();

  const auto mark_dead = [&](int src) {
    if (dead[static_cast<std::size_t>(src)]) return;
    dead[static_cast<std::size_t>(src)] = 1;
    dead_ranks.push_back(src);
    ledger.reclaim(src);
  };

  const auto account = [&](int src, std::uint64_t t, double busy_seconds,
                           const std::vector<Edge>& edges) {
    ledger.complete(src, t);
    const Tile& tile = plan.tile(static_cast<std::size_t>(t));
    pairs[static_cast<std::size_t>(src)] += tile.pair_count();
    pairs_computed += tile.pair_count();
    busy[static_cast<std::size_t>(src)] += busy_seconds;
    if (static_tile_owner(tile, n, p) != src) ++steals;
    network.add_edges(edges);
    if (journal.writer) journal.writer->append_tile(t, edges);
  };

  const auto handle_done = [&](int src, const std::vector<std::byte>& wire) {
    const TileDone done = unpack_tile_done(wire);
    account(src, done.tile, done.busy_seconds, done.edges);
  };

  // A grant send can race the peer's death (tcp write error / inproc
  // done-roster): treat any transport failure as that peer dying, but let
  // rank 0's own injected kill play out.
  const auto send_grant = [&](int dest,
                              const std::vector<std::uint64_t>& tiles) {
    try {
      comm.send_vector(dest, tiles, kTagLeaseGrant);
      return true;
    } catch (const InjectedFault&) {
      throw;
    } catch (const std::runtime_error&) {
      return false;
    }
  };

  const auto grant_batch = [&]() -> std::size_t {
    int live = 1;
    for (int s = 1; s < p; ++s)
      if (!dead[static_cast<std::size_t>(s)]) ++live;
    const std::size_t ready = ledger.tiles_total() - ledger.tiles_resumed() -
                              ledger.tiles_completed() - ledger.outstanding();
    return std::clamp<std::size_t>(
        ready / (4 * static_cast<std::size_t>(live)), 1, 8);
  };

  while (!ledger.done()) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      throw SweepAborted();
    // 1. Poll every live worker: drain completions, then note a lease
    //    request. Per-(src, tag) FIFO means every TileDone a worker sent
    //    before its request is visible before the request is.
    for (int src = 1; src < p; ++src) {
      if (dead[static_cast<std::size_t>(src)]) continue;
      try {
        while (const auto wire = comm.try_recv(src, kTagTileDone))
          handle_done(src, *wire);
        if (!pending[static_cast<std::size_t>(src)] &&
            comm.try_recv(src, kTagLeaseRequest))
          pending[static_cast<std::size_t>(src)] = 1;
      } catch (const PeerFailureError&) {
        mark_dead(src);
      }
    }
    // 2. Serve pending requests while tiles are ready. A drained-but-not-
    //    done ledger defers the request: if an outstanding holder dies,
    //    its reclaimed tiles go to whoever waited.
    for (int src = 1; src < p && !ledger.drained(); ++src) {
      if (dead[static_cast<std::size_t>(src)] ||
          !pending[static_cast<std::size_t>(src)])
        continue;
      const std::vector<std::uint64_t> batch =
          ledger.grant(src, grant_batch());
      if (send_grant(src, batch)) {
        pending[static_cast<std::size_t>(src)] = 0;
      } else {
        mark_dead(src);  // reclaim() re-queues the batch at the front
      }
    }
    // 3. Self-work: rank 0 takes one tile at a time between polls, so it
    //    contributes compute while staying responsive to requests.
    if (!ledger.drained()) {
      for (const std::uint64_t t : ledger.grant(0, 1)) {
        const Stopwatch tile_watch;
        straggle(straggle_ms);
        const std::vector<Edge> edges = compute_tile_edges(
            statistic, row, plan.tile(static_cast<std::size_t>(t)), panels,
            threshold, *scratch);
        account(0, t, tile_watch.seconds(), edges);
      }
      continue;  // re-poll promptly
    }
    // 4. Drained with leases outstanding: block on the lowest live holder
    //    instead of spinning. TimeoutError is a PeerFailureError, so a
    //    stuck straggler's leases are reclaimed and recomputed here too.
    if (!ledger.done()) {
      const int holder = ledger.lowest_holder();
      TINGE_ENSURES(holder > 0);
      try {
        handle_done(holder, comm.recv(holder, kTagTileDone));
      } catch (const PeerFailureError&) {
        mark_dead(holder);
      }
    }
  }

  // Release: answer every live worker's final request with an empty grant.
  // A rank that dies this late has nothing outstanding to reclaim.
  for (int src = 1; src < p; ++src) {
    if (dead[static_cast<std::size_t>(src)]) continue;
    try {
      if (!pending[static_cast<std::size_t>(src)])
        comm.recv(src, kTagLeaseRequest);
      if (!send_grant(src, {})) mark_dead(src);
    } catch (const InjectedFault&) {
      throw;
    } catch (const PeerFailureError&) {
      mark_dead(src);
    }
  }

  // Work conservation, the protocol's contract: every tile in the plan is
  // accounted exactly once, and every grant either completed or was
  // reclaimed — no tile lost to a dead rank, none computed twice.
  TINGE_ENSURES(ledger.done());
  TINGE_ENSURES(ledger.leases_granted() ==
                ledger.tiles_completed() + ledger.tiles_reclaimed());
  TINGE_ENSURES(pairs_computed + resume.pairs_resumed ==
                n * (n - 1) / 2);

  network.finalize();
  if (journal.writer) {
    journal.writer->close();
    journal.writer.reset();
    std::remove(config.checkpoint_path.c_str());
  }

  if (report != nullptr) {
    report->pairs_per_rank = std::move(pairs);
    report->busy_seconds_per_rank = std::move(busy);
    report->leases_granted = ledger.leases_granted();
    report->steals = steals;
    report->tiles_reclaimed = ledger.tiles_reclaimed();
    report->tiles_total = ledger.tiles_total();
    report->tiles_resumed = ledger.tiles_resumed();
    report->pairs_resumed = resume.pairs_resumed;
    report->dead_ranks = std::move(dead_ranks);
  }
  return network;
}

}  // namespace

GeneNetwork lease_sweep(Comm& comm, const PairStatistic& statistic,
                        const RankedMatrix& ranked, double threshold,
                        const TingeConfig& config, LeaseSweepReport* report,
                        const std::atomic<bool>* cancel) {
  TINGE_EXPECTS(statistic.n_samples() == ranked.n_samples());
  // The GLOBAL tile plan — identical to the single-process engine's, which
  // is what makes the checkpoint journal world-size-free.
  const SweepPlan plan =
      SweepPlan::triangular(0, ranked.n_genes(), config.tile_size);
  const PanelPlan panels = statistic.plan(config);
  const double straggle_ms = straggle_delay_ms(comm.transport());
  if (report != nullptr) *report = {};

  // One sweep context per rank and no pool: the rank stages its rows
  // itself.
  return with_rank_rows(
      ranked, config, /*pool=*/nullptr, /*threads=*/1, [&](const auto& row) {
        return comm.rank() == 0
                   ? lease_master(comm, statistic, row, ranked, plan, panels,
                                  threshold, config, straggle_ms, report,
                                  cancel)
                   : lease_worker(comm, statistic, row, ranked, plan, panels,
                                  threshold, straggle_ms, cancel);
      });
}

GeneNetwork cluster_compute_network(const PairStatistic& statistic,
                                    const RankedMatrix& ranked,
                                    double threshold, int ranks,
                                    const TingeConfig& config,
                                    ClusterStats* stats, TransportKind kind,
                                    const TransportOptions& options) {
  TINGE_EXPECTS(ranks >= 1);
  const Stopwatch watch;

  const std::unique_ptr<Cluster> cluster = make_cluster(kind, ranks, options);
  GeneNetwork network(ranked.gene_names());
  LeaseSweepReport report;
  cluster->run([&](Comm& comm) {
    LeaseSweepReport local;
    GeneNetwork merged =
        lease_sweep(comm, statistic, ranked, threshold, config, &local);
    if (comm.rank() == 0) {  // only rank 0 touches the shared result
      network = std::move(merged);
      report = std::move(local);
    }
  });

  if (stats != nullptr) {
    stats->ranks = ranks;
    stats->transport = transport_kind_name(kind);
    stats->bytes_transferred = cluster->bytes_transferred();
    stats->messages = cluster->messages_sent();
    stats->bytes_per_rank.clear();
    for (const PeerTraffic& rank : cluster->rank_traffic())
      stats->bytes_per_rank.push_back(rank.bytes_sent);
    stats->pairs_total = 0;
    for (const std::size_t count : report.pairs_per_rank)
      stats->pairs_total += count;
    stats->pairs_per_rank = std::move(report.pairs_per_rank);
    stats->busy_seconds_per_rank = std::move(report.busy_seconds_per_rank);
    stats->seconds = watch.seconds();
    stats->leases_granted = report.leases_granted;
    stats->steals = report.steals;
    stats->tiles_reclaimed = report.tiles_reclaimed;
    stats->dead_ranks = std::move(report.dead_ranks);
  }
  return network;
}

}  // namespace tinge::cluster
