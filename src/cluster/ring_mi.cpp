#include "cluster/ring_mi.h"

#include <algorithm>

#include "cluster/faulty_transport.h"
#include "cluster/lease_mi.h"
#include "core/sweep.h"
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

namespace {

constexpr int kTagRing = 1;       // + step
constexpr int kTagEdges = 10000;
constexpr int kTagPairCount = 10001;

struct Block {
  std::uint32_t id = 0;
  std::size_t first_gene = 0;
  std::size_t gene_count = 0;
  std::vector<std::uint32_t> ranks;  // gene_count x m, row-major
  /// uint16 staged copy of `ranks` (when stages_rank_rows): the sweep
  /// streams these rows instead, halving the per-pair rank traffic. Local
  /// only — the wire format stays u32.
  std::vector<std::uint16_t> ranks16;
};

void stage_block(Block& block) {
  block.ranks16.resize(block.ranks.size());
  for (std::size_t i = 0; i < block.ranks.size(); ++i)
    block.ranks16[i] = static_cast<std::uint16_t>(block.ranks[i]);
}

std::size_t block_begin(std::size_t n, int ranks, int block) {
  const std::size_t per = (n + static_cast<std::size_t>(ranks) - 1) /
                          static_cast<std::size_t>(ranks);
  return std::min(n, per * static_cast<std::size_t>(block));
}

Block load_block(const RankedMatrix& ranked, int ranks, std::uint32_t id) {
  Block block;
  block.id = id;
  block.first_gene = block_begin(ranked.n_genes(), ranks, static_cast<int>(id));
  const std::size_t end =
      block_begin(ranked.n_genes(), ranks, static_cast<int>(id) + 1);
  block.gene_count = end - block.first_gene;
  const std::size_t m = ranked.n_samples();
  block.ranks.resize(block.gene_count * m);
  for (std::size_t g = 0; g < block.gene_count; ++g) {
    const auto row = ranked.ranks(block.first_gene + g);
    std::copy(row.begin(), row.end(), block.ranks.begin() + g * m);
  }
  return block;
}

// Wire format: [id, first_gene, gene_count] as u32 then the rank data.
std::vector<std::uint32_t> pack_block(const Block& block) {
  std::vector<std::uint32_t> wire;
  wire.reserve(3 + block.ranks.size());
  wire.push_back(block.id);
  wire.push_back(static_cast<std::uint32_t>(block.first_gene));
  wire.push_back(static_cast<std::uint32_t>(block.gene_count));
  wire.insert(wire.end(), block.ranks.begin(), block.ranks.end());
  return wire;
}

Block unpack_block(const std::vector<std::uint32_t>& wire) {
  TINGE_EXPECTS(wire.size() >= 3);
  Block block;
  block.id = wire[0];
  block.first_gene = wire[1];
  block.gene_count = wire[2];
  block.ranks.assign(wire.begin() + 3, wire.end());
  TINGE_ENSURES(block.gene_count == 0 ||
                block.ranks.size() % block.gene_count == 0);
  return block;
}

}  // namespace

GeneNetwork ring_sweep(Comm& comm, const PairStatistic& statistic,
                       const RankedMatrix& ranked, double threshold,
                       const TingeConfig& config,
                       std::vector<std::size_t>* pairs_per_rank_out,
                       const std::atomic<bool>* cancel,
                       std::vector<double>* busy_seconds_out) {
  TINGE_EXPECTS(statistic.n_samples() == ranked.n_samples());
  const std::size_t m = ranked.n_samples();
  const int r = comm.rank();
  const int p = comm.size();
  // The same panel plan as the single-chip engine: panel results are
  // bit-identical to per-pair evaluation (for B-spline, to joint_entropy
  // with the matching kernel) and independent of tile/panel grouping, so
  // the sharded network is byte-identical to the single-chip one even
  // though the rank-block tiles cut the pair space differently.
  const PanelPlan panels = statistic.plan(config);

  // The engine's and the lease sweep's staging question (bit-identical —
  // the narrower indices select the same table rows), asked once here and
  // applied to each block as it arrives.
  const bool staged = stages_rank_rows(config, m);

  // "Local load" of the resident block (not communication).
  Block resident = load_block(ranked, p, static_cast<std::uint32_t>(r));
  if (staged) stage_block(resident);

  // One thread per rank, no pool (classic flat-MPI TINGe); edges accumulate
  // across all of this rank's run_sweep calls in one sink. A fault-plan
  // straggler (tile-delay-ms) sleeps inside tile compute via StraggleSink,
  // and busy-seconds accounting measures it — that is the imbalance the
  // lease balancer is benchmarked against.
  SweepOptions options;
  options.cancel = cancel;
  EdgeSink edge_sink(threshold, /*contexts=*/1);
  const double straggle_ms = straggle_delay_ms(comm.transport());
  StraggleSink<EdgeSink> sink(edge_sink, straggle_ms);
  std::size_t pairs = 0;
  double busy_seconds = 0.0;

  // Sweeps the upper-triangle/rectangle plan over the two blocks' buffers.
  // Rows are always the lower-gene-range block, so kernel arguments stay in
  // global gene order — the joint histogram is mathematically symmetric but
  // its float summation order is not.
  const auto sweep_blocks = [&](const SweepPlan& plan, const Block& lo,
                                const Block& hi) {
    const Stopwatch busy_watch;
    const auto sweep_rows = [&](const auto& rows_of) {
      const auto row = [&](std::size_t g) {
        const Block& block = g >= hi.first_gene ? hi : lo;
        return rows_of(block) + (g - block.first_gene) * m;
      };
      return run_sweep(plan, statistic, row, panels, /*pool=*/nullptr,
                       options, sink)[0]
          .pairs;
    };
    pairs += staged
                 ? sweep_rows([](const Block& b) { return b.ranks16.data(); })
                 : sweep_rows([](const Block& b) { return b.ranks.data(); });
    busy_seconds += busy_watch.seconds();
  };

  // Diagonal (within-block) pairs.
  sweep_blocks(SweepPlan::triangular(resident.first_gene,
                                     resident.first_gene + resident.gene_count,
                                     config.tile_size),
               resident, resident);

  // Ring pipeline: forward the traveling block, compute owned pairs.
  Block traveling = resident;
  for (int step = 1; step < p; ++step) {
    const int next = (r + 1) % p;
    const int prev = (r - 1 + p) % p;
    comm.send_vector(next, pack_block(traveling), kTagRing + step);
    traveling =
        unpack_block(comm.recv_vector<std::uint32_t>(prev, kTagRing + step));
    if (staged) stage_block(traveling);
    const int a = std::min(r, static_cast<int>(traveling.id));
    const int b = std::max(r, static_cast<int>(traveling.id));
    if (a != b && block_pair_owner(a, b, p) == r) {
      const Block& lo =
          resident.first_gene < traveling.first_gene ? resident : traveling;
      const Block& hi =
          resident.first_gene < traveling.first_gene ? traveling : resident;
      sweep_blocks(
          SweepPlan::rectangular(lo.first_gene, lo.first_gene + lo.gene_count,
                                 hi.first_gene, hi.first_gene + hi.gene_count,
                                 config.tile_size),
          lo, hi);
    }
  }
  std::vector<Edge> edges = edge_sink.take_all();

  // Results to rank 0; rank 0 merges in rank order (0, 1, ..., p-1) so the
  // edge list is deterministic regardless of arrival order. The count
  // message carries {pairs, busy_us} so rank 0 can report wall imbalance,
  // not just pair imbalance.
  GeneNetwork network(ranked.gene_names());
  if (r == 0) {
    std::vector<std::size_t> pairs_per_rank(static_cast<std::size_t>(p), 0);
    std::vector<double> busy_per_rank(static_cast<std::size_t>(p), 0.0);
    network.add_edges(edges);
    pairs_per_rank[0] = pairs;
    busy_per_rank[0] = busy_seconds;
    std::size_t total_pairs = pairs;
    for (int src = 1; src < p; ++src) {
      network.add_edges(comm.recv_vector<Edge>(src, kTagEdges));
      const auto count = comm.recv_vector<std::uint64_t>(src, kTagPairCount);
      pairs_per_rank[static_cast<std::size_t>(src)] =
          static_cast<std::size_t>(count.at(0));
      busy_per_rank[static_cast<std::size_t>(src)] =
          static_cast<double>(count.at(1)) * 1e-6;
      total_pairs += pairs_per_rank[static_cast<std::size_t>(src)];
    }
    network.finalize();
    TINGE_ENSURES(total_pairs ==
                  ranked.n_genes() * (ranked.n_genes() - 1) / 2);
    if (pairs_per_rank_out != nullptr)
      *pairs_per_rank_out = std::move(pairs_per_rank);
    if (busy_seconds_out != nullptr) *busy_seconds_out = std::move(busy_per_rank);
  } else {
    comm.send_vector(0, edges, kTagEdges);
    comm.send_vector(
        0,
        std::vector<std::uint64_t>{
            static_cast<std::uint64_t>(pairs),
            static_cast<std::uint64_t>(busy_seconds * 1e6)},
        kTagPairCount);
    network.finalize();
  }
  return network;
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
  std::vector<std::size_t> pairs_per_rank;
  std::vector<double> busy_per_rank;
  LeaseSweepReport lease_report;
  const bool lease = config.cluster_balance == "lease";

  cluster->run([&](Comm& comm) {
    if (lease) {
      LeaseSweepReport report;
      GeneNetwork merged =
          lease_sweep(comm, statistic, ranked, threshold, config, &report);
      if (comm.rank() == 0) {  // only rank 0 touches the shared result
        network = std::move(merged);
        pairs_per_rank = std::move(report.pairs_per_rank);
        busy_per_rank = std::move(report.busy_seconds_per_rank);
        report.pairs_per_rank.clear();
        report.busy_seconds_per_rank.clear();
        lease_report = std::move(report);
      }
      return;
    }
    std::vector<std::size_t> pairs;
    std::vector<double> busy;
    GeneNetwork merged = ring_sweep(comm, statistic, ranked, threshold, config,
                                    &pairs, /*cancel=*/nullptr, &busy);
    if (comm.rank() == 0) {
      network = std::move(merged);
      pairs_per_rank = std::move(pairs);
      busy_per_rank = std::move(busy);
    }
  });

  std::size_t total_pairs = 0;
  for (const std::size_t count : pairs_per_rank) total_pairs += count;

  if (stats != nullptr) {
    stats->ranks = ranks;
    stats->transport = transport_kind_name(kind);
    stats->balance = lease ? "lease" : "static";
    stats->bytes_transferred = cluster->bytes_transferred();
    stats->messages = cluster->messages_sent();
    stats->bytes_per_rank.clear();
    for (const PeerTraffic& rank : cluster->rank_traffic())
      stats->bytes_per_rank.push_back(rank.bytes_sent);
    stats->pairs_per_rank = pairs_per_rank;
    stats->busy_seconds_per_rank = busy_per_rank;
    stats->pairs_total = total_pairs;
    stats->seconds = watch.seconds();
    stats->leases_granted = lease_report.leases_granted;
    stats->steals = lease_report.steals;
    stats->tiles_reclaimed = lease_report.tiles_reclaimed;
    stats->dead_ranks = lease_report.dead_ranks;
  }
  return network;
}

}  // namespace tinge::cluster
