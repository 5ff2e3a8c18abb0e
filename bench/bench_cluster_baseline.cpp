// Experiment T4 [reconstructed]: the cluster baseline the paper replaces.
//
// Prior work (TINGe-classic) needed a distributed-memory cluster for
// whole-genome MI networks; the paper's contribution is doing it on one
// chip. This harness runs the distributed tile-lease sweep and reports what
// the cluster costs beyond the computation itself: bytes moved, messages,
// load balance. TINGe-classic's own ring moves every rank's gene block
// around the ring, (P-1) * n * m * 4 bytes in all; the tables print that
// closed form beside the lease's measured traffic and extrapolate it to
// the paper's full problem.
//
// Two transports (--transport=inproc|tcp|both):
//   * inproc — rank-threads with mailbox copies: measures communication
//     volume and algorithmic structure, not latency;
//   * tcp — every rank speaks real framed localhost sockets, so the
//     seconds column includes genuine kernel/network time for the same
//     byte volume.
#include "bench_common.h"
#include "cluster/faulty_transport.h"
#include "cluster/lease_mi.h"
#include "core/mi_engine.h"
#include "parallel/thread_pool.h"
#include "util/args.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes in the test matrix", "256");
  args.add("samples", "experiments per gene", "512");
  args.add("max-ranks", "largest simulated cluster size", "8");
  args.add("transport", "cluster transport to bench: inproc|tcp|both",
           "both");
  args.add("straggler-ms", "per-tile straggle injected on rank 1 in the "
           "elastic comparison", "20");
  bench::parse_args(args, argc, argv,
                    "T4: single chip vs simulated cluster transports.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));
  const int max_ranks = static_cast<int>(args.get_int("max-ranks"));
  const std::string transport_arg = args.get("transport");
  const double straggler_ms = args.get_double("straggler-ms");

  std::vector<cluster::TransportKind> kinds;
  if (transport_arg == "both") {
    kinds = {cluster::TransportKind::InProcess, cluster::TransportKind::Tcp};
  } else {
    kinds = {cluster::parse_transport_kind(transport_arg)};
  }

  bench::print_header(
      "T4: single chip vs cluster transports (TINGe-classic baseline)",
      strprintf("all-pairs MI over %zu genes x %zu samples; tile leases from "
                "rank 0, real buffer movement",
                n, m));

  const bench::RandomRanks data(n, m);
  const BsplineMi estimator(10, 3, m);
  const BsplineStat statistic(estimator);
  TingeConfig config;
  const double threshold = 0.033;  // ~1% tail of the m=512 null

  // Reference: the single-chip engine (what the paper builds). One warmup
  // pass first so the timed run is not paying page faults and ramp-up.
  const MiEngine engine(statistic, data.ranked());
  par::ThreadPool pool(1);
  TingeConfig single_config;
  single_config.threads = 1;
  EngineStats single_stats;
  engine.compute_network(threshold, single_config, pool, &single_stats);
  const GeneNetwork reference =
      engine.compute_network(threshold, single_config, pool, &single_stats);

  // TINGe-classic's ring traffic: each of the P blocks of n/P genes x m
  // u32 ranks traverses P-1 hops, (P-1) * n * m * 4 bytes in all.
  const auto ring_megabytes = [&](int ranks) {
    return static_cast<double>(ranks - 1) * static_cast<double>(n) *
           static_cast<double>(m) * 4.0 / 1e6;
  };

  Table table({"configuration", "transport", "kB moved", "ring MB (P-1)nm4",
               "messages", "imbalance", "edges", "seconds"});
  table.add_row({"single chip (paper)", "-", "0.0", "0.0", "0", "1.00",
                 std::to_string(reference.n_edges()),
                 strprintf("%.3f", single_stats.seconds)});

  for (const cluster::TransportKind kind : kinds) {
    for (int ranks = 2; ranks <= max_ranks; ranks *= 2) {
      cluster::ClusterStats stats;
      const GeneNetwork network = cluster::cluster_compute_network(
          statistic, data.ranked(), threshold, ranks, config, &stats, kind);
      table.add_row(
          {strprintf("%d-rank cluster", ranks), stats.transport,
           strprintf("%.1f",
                     static_cast<double>(stats.bytes_transferred) / 1e3),
           strprintf("%.1f", ring_megabytes(ranks)),
           std::to_string(stats.messages),
           strprintf("%.2f", stats.imbalance()),
           std::to_string(network.n_edges()),
           strprintf("%.3f", stats.seconds)});
    }
  }
  table.print();
  std::printf(
      "(kB moved is the lease sweep's measured traffic: grants and each\n"
      "tile's surviving edges, since every rank ranks the whole matrix\n"
      "itself. The ring column is the closed form of TINGe-classic's block\n"
      "ring. inproc rows measure arithmetic plus transport copies only; tcp\n"
      "rows add real localhost socket time — framing, kernel buffers,\n"
      "wakeups. The edge lists are identical by test.)\n");

  // Communication volume at the paper's scale, by the same closed form.
  std::printf("\nextrapolated ring volume at 15,575 genes x 3,137 arrays:\n");
  Table extra({"cluster size", "block data", "total ring traffic"});
  for (const int p : {16, 64, 256}) {
    const double block_bytes = 15575.0 / p * 3137.0 * 4.0;
    const double ring_bytes = block_bytes * p * (p - 1);
    extra.add_row({std::to_string(p),
                   strprintf("%.1f MB", block_bytes / 1e6),
                   strprintf("%.1f GB", ring_bytes / 1e9)});
  }
  extra.print();

  std::printf(
      "\nShape to compare: the distributed baseline produces the identical\n"
      "network (test-enforced) but pays communication — ring traffic that\n"
      "grows linearly with cluster size, hundreds of GB at the scale prior\n"
      "work used — plus scheduling imbalance. The paper's single-chip\n"
      "solution makes all of it disappear; that is its whole argument.\n");

  // F6b: tile leases with and without a straggling rank.
  //
  // A static assignment lets the slowest rank gate the sweep; the lease
  // protocol absorbs that by moving tiles off it. Each cell runs the same
  // seeded input in-process (imbalance and steals are transport-invariant),
  // with rank 1 optionally straggled by --straggler-ms per tile through the
  // fault decorator. tile=32 gives the ledger 36 tiles — enough
  // granularity that 8 ranks can steal.
  std::printf("\nelastic balancing: tile leases "
              "(straggler = %.0f ms/tile on rank 1)\n", straggler_ms);

  TingeConfig elastic_config;
  elastic_config.tile_size = 32;

  struct ElasticCell {
    double seconds = 0.0;
    double pre = 1.0;   // predicted wall imbalance of a static split
    double post = 1.0;  // realized max/min busy seconds
    std::size_t steals = 0;
    std::size_t granted = 0;
  };

  const auto elastic_pass = [&](int ranks, bool straggled) {
    cluster::FaultPlan fault;
    fault.rank = 1;
    fault.tile_delay_ms = straggled ? straggler_ms : 0.0;
    ElasticCell cell;
    cluster::ClusterStats stats;  // only for the imbalance accessors
    const Stopwatch watch;
    const auto cluster =
        cluster::make_cluster(cluster::TransportKind::InProcess, ranks);
    cluster->run([&](cluster::Comm& comm) {
      const auto rank_body = [&](cluster::Comm& endpoint) {
        cluster::LeaseSweepReport report;
        cluster::lease_sweep(endpoint, statistic, data.ranked(), threshold,
                             elastic_config, &report);
        if (comm.rank() == 0) {
          stats.pairs_per_rank = std::move(report.pairs_per_rank);
          stats.busy_seconds_per_rank =
              std::move(report.busy_seconds_per_rank);
          cell.steals = report.steals;
          cell.granted = report.leases_granted;
        }
      };
      if (fault.tile_delay_ms > 0.0 && comm.rank() == fault.rank) {
        cluster::FaultyTransport faulty(comm.transport(), fault);
        cluster::Comm endpoint(faulty);
        rank_body(endpoint);
      } else {
        rank_body(comm);
      }
    });
    cell.seconds = watch.seconds();
    cell.pre = stats.imbalance_pre();
    cell.post = stats.imbalance_post();
    return cell;
  };

  bench::BenchJson elastic_json("elastic");
  Table elastic_table({"ranks", "straggler", "imbalance pre",
                       "imbalance post", "steals", "seconds"});
  for (const int ranks : {2, 4, 8}) {
    if (ranks > max_ranks) continue;
    for (const bool straggled : {false, true}) {
      const ElasticCell cell = elastic_pass(ranks, straggled);
      elastic_table.add_row(
          {std::to_string(ranks), straggled ? "yes" : "no",
           strprintf("%.2f", cell.pre), strprintf("%.2f", cell.post),
           std::to_string(cell.steals), strprintf("%.3f", cell.seconds)});
      obs::Json row = obs::Json::object();
      row["ranks"] = obs::Json(static_cast<double>(ranks));
      row["straggler_ms"] = obs::Json(straggled ? straggler_ms : 0.0);
      row["imbalance_pre"] = obs::Json(cell.pre);
      row["imbalance_post"] = obs::Json(cell.post);
      row["steals"] = obs::Json(static_cast<double>(cell.steals));
      row["leases_granted"] = obs::Json(static_cast<double>(cell.granted));
      row["seconds"] = obs::Json(cell.seconds);
      elastic_json.add_row(std::move(row));
    }
  }
  elastic_table.print();
  const std::string elastic_path = elastic_json.write();
  std::printf(
      "(imbalance pre is the predicted wall imbalance of a static split of\n"
      "this rank mix — max/min per-rank compute rate; imbalance post is the\n"
      "realized max/min busy seconds. With a straggler, pre carries its\n"
      "full rate skew while the leases move tiles — the steals column —\n"
      "off the slow rank. Machine-readable copy: %s)\n",
      elastic_path.c_str());
  return 0;
}
