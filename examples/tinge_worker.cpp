// tinge_worker — one rank of a multi-process sharded pipeline run.
//
// Not usually invoked by hand: tinge_cli --cluster=N --transport=tcp
// spawns N copies of this binary (see cluster/launcher.h), each of which
// joins the TCP mesh through the shared rendezvous directory, runs its
// share of the pipeline (cluster/sharded_pipeline.h), and exits. Rank 0
// writes the outputs. For debugging, a mesh can be assembled manually:
//
//   mkdir /tmp/rdv
//   tinge_worker --synthetic=80 --cluster-rank=0 --cluster-size=2
//                --rendezvous=/tmp/rdv &        (one line, backgrounded)
//   tinge_worker --synthetic=80 --cluster-rank=1 --cluster-size=2
//                --rendezvous=/tmp/rdv          (one line)
#include <signal.h>

#include <atomic>
#include <cstdio>

#include "cli_common.h"
#include "cluster/faulty_transport.h"
#include "cluster/launcher.h"
#include "cluster/sharded_pipeline.h"
#include "cluster/transport.h"
#include "core/sweep.h"
#include "util/args.h"

namespace {

/// Flipped by SIGTERM (the launcher's survivor-teardown signal) and polled
/// by the sweep between tiles, so a doomed rank abandons its compute
/// instead of finishing a result nobody will merge. A second SIGTERM kills
/// outright (SA_RESETHAND) in case the rank is wedged outside the sweep.
std::atomic<bool> g_terminate{false};

void handle_sigterm(int /*signum*/) { g_terminate.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace tinge;

  ArgParser args;
  cli::add_dataset_options(args);
  args.add("out", "output edge list path (written by rank 0)", "network.tsv");
  args.add("sif", "also write a Cytoscape SIF file to this path");
  cli::add_pipeline_options(args);
  args.add("cluster-rank", "this worker's rank", "0");
  args.add("cluster-size", "total ranks in the cluster", "1");
  args.add("rendezvous", "shared rendezvous directory for the TCP mesh");
  args.add("rendezvous-nonce",
           "run nonce stamped into/required of rendezvous port files "
           "(0 = accept any; the launcher always sets one)",
           "0");
  args.add("transport", "cluster transport: tcp (inproc only for size 1)",
           "tcp");
  args.add("connect-timeout", "seconds to wait for the mesh to assemble",
           "30");
  args.add("recv-timeout",
           "seconds a recv/barrier may wait before the peer is declared "
           "dead (0 = wait forever)",
           "300");
  args.add("fault",
           "fault-injection plan, e.g. rank=1,kill-after=4,mode=exit "
           "(testing only)");
  args.add("metrics-out", "write a JSON cluster run manifest here (rank 0)");
  args.add_flag("trace", "accepted for tinge_cli compatibility (ignored)");
  args.add_flag("pvalues", "append a null-p-value column to the edge list");
  args.add_flag("quiet", "suppress progress output");
  args.add_flag("help", "show this help");

  try {
    args.parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  if (args.get_flag("help")) {
    std::fputs(args.usage("tinge_worker",
                          "One rank of a sharded TINGe pipeline run "
                          "(spawned by tinge_cli --cluster=N).")
                   .c_str(),
               stdout);
    return 0;
  }

  const int rank = static_cast<int>(args.get_int("cluster-rank"));
  const int size = static_cast<int>(args.get_int("cluster-size"));

  {
    // SIGTERM = launcher teardown after a peer failed. Request a graceful
    // sweep abort; SA_RESETHAND restores the default so a second SIGTERM
    // (or a wedged rank) still dies.
    struct sigaction action = {};
    action.sa_handler = handle_sigterm;
    action.sa_flags = SA_RESETHAND;
    ::sigaction(SIGTERM, &action, nullptr);
  }

  try {
    TingeConfig config = cli::config_from_args(args);
    config.cluster_ranks = size;
    config.cluster_transport = args.get("transport");
    config.validate();

    cluster::TransportOptions options;
    options.rank = rank;
    options.size = size;
    if (args.has("rendezvous")) options.rendezvous_dir = args.get("rendezvous");
    options.connect_timeout_seconds = args.get_double("connect-timeout");
    options.recv_timeout_seconds = args.get_double("recv-timeout");
    options.run_nonce =
        static_cast<std::uint64_t>(args.get_int("rendezvous-nonce"));

    const std::unique_ptr<cluster::Transport> transport =
        cluster::make_transport(
            cluster::parse_transport_kind(config.cluster_transport), options);

    // Fault injection (tests and the CI fault smoke): wrap the real
    // endpoint in the decorator; the plan arms only on its target rank.
    std::unique_ptr<cluster::FaultyTransport> faulty;
    cluster::Transport* endpoint = transport.get();
    if (args.has("fault")) {
      faulty = std::make_unique<cluster::FaultyTransport>(
          *transport, cluster::parse_fault_plan(args.get("fault")));
      endpoint = faulty.get();
    }
    cluster::Comm comm(*endpoint);

    // Every rank loads and preprocesses locally (deterministic, so this is
    // replication, not divergence).
    const bool quiet = args.get_flag("quiet") || rank != 0;
    const ExpressionMatrix expression = cli::load_dataset(args, quiet);

    const cluster::ShardedBuildResult result =
        cluster::sharded_build(comm, expression, config, &g_terminate);

    if (rank == 0) {
      cli::write_network_outputs(args, result.network, result.null);
      if (args.has("metrics-out"))
        cluster::write_cluster_run_manifest(result, config,
                                            args.get("metrics-out"));
      if (!quiet) {
        std::printf(
            "done (cluster %s, %d ranks): %zu genes, %zu edges, threshold "
            "%.5f nats, %.2f s total\n",
            result.cluster.transport.c_str(), size, result.genes_used,
            result.network.n_edges(), result.threshold, result.seconds);
        std::printf(
            "cluster traffic: %llu bytes in %llu messages, imbalance %.2f\n",
            static_cast<unsigned long long>(result.cluster.bytes_transferred),
            static_cast<unsigned long long>(result.cluster.messages),
            result.cluster.imbalance());
        std::printf("network written to %s\n", args.get("out").c_str());
      }
    }
    return 0;
  } catch (const SweepAborted&) {
    std::fprintf(stderr,
                 "worker rank %d: sweep aborted (termination requested)\n",
                 rank);
    return 128 + SIGTERM;  // same report a hard SIGTERM kill would produce
  } catch (const cluster::TimeoutError& error) {
    std::fprintf(stderr,
                 "error: worker rank %d: peer timeout: %s\n"
                 "       (peer alive but silent past --recv-timeout; raise "
                 "the deadline if the run is just slow)\n",
                 rank, error.what());
    return cluster::kWorkerExitPeerFailure;
  } catch (const cluster::PeerFailureError& error) {
    std::fprintf(stderr, "error: worker rank %d: peer failure: %s\n", rank,
                 error.what());
    return cluster::kWorkerExitPeerFailure;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: worker rank %d: %s\n", rank, error.what());
    return 1;
  }
}
