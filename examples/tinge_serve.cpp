// tinge_serve: the resident query daemon over one dataset.
//
// Loads (or synthesizes) an expression matrix once, runs the same pipeline
// stages as tinge_cli — impute, filter, rank, weight table, permutation
// null, thresholded MI sweep — and then, instead of writing an edge list
// and exiting, keeps everything resident and serves queries over framed
// TCP on loopback: on-demand MI(x, y) for any estimator, neighborhood /
// top-k / subgraph extraction, live metrics, and sweep-job submissions
// with streamed progress. See examples/tinge_client.cpp for the matching
// client. With --checkpoint the network build journals its tiles and the
// journal is kept, so restarting the daemon restores the network from it
// instead of recomputing.
//
//   tinge_serve --synthetic=200 --permutations=500 --port-file=/tmp/serve.port
//   tinge_client --port-file=/tmp/serve.port --query=mi --pairs=3:10,5:7

#include <cstdio>

#include "cli_common.h"
#include "cluster/serve_server.h"
#include "util/contracts.h"

using namespace tinge;

int main(int argc, char** argv) {
  ArgParser args;
  cli::add_dataset_options(args);
  cli::add_pipeline_options(args);
  args.add("port", "TCP port to listen on (0 = ephemeral)", "0");
  args.add("port-file",
           "publish the bound port here (rendezvous format: '<port> "
           "<nonce>')");
  args.add("nonce", "run nonce stamped into the port file (0 = unstamped)",
           "0");
  args.add("flush-ms",
           "pair-query batch window: queries arriving within this many "
           "milliseconds of the first coalesce into one planner sweep",
           "2");
  args.add("cache-mb", "tile-cache budget in MiB (0 disables caching)", "64");
  args.add("dataset-id", "dataset identity baked into tile-cache keys",
           "default");
  args.add_flag("help", "show this help");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  if (args.get_flag("help")) {
    std::fputs(args.usage("tinge_serve",
                          "Resident query daemon: builds one dataset's "
                          "network, then serves MI, neighborhood and "
                          "sweep queries over framed TCP on loopback.")
                   .c_str(),
               stdout);
    return 0;
  }

  try {
    ExpressionMatrix expression = cli::load_dataset(args, /*quiet=*/false);
    const TingeConfig config = cli::config_from_args(args);

    cluster::ServeOptions options;
    options.port = static_cast<int>(args.get_int("port"));
    if (args.has("port-file")) options.port_file = args.get("port-file");
    options.run_nonce = static_cast<std::uint64_t>(args.get_int("nonce"));
    options.flush_deadline_ms = args.get_double("flush-ms");
    options.cache_bytes =
        static_cast<std::size_t>(args.get_int("cache-mb")) << 20;
    options.dataset_id = args.get("dataset-id");

    std::printf("building network (%zu genes x %zu samples)...\n",
                expression.n_genes(), expression.n_samples());
    cluster::ServeState state(std::move(expression), config, options);
    if (config.consensus_resamples > 0) {
      const ConsensusStats& consensus = state.consensus_stats();
      std::printf(
          "network ready: %zu consensus edges of %zu candidates (%zu "
          "resamples x %zu estimators)\n",
          state.network().n_edges(), consensus.candidate_edges,
          consensus.resamples, consensus.estimators);
    } else {
      const EngineStats& build = state.build_stats();
      std::printf(
          "network ready: %zu edges, threshold %.5f nats, kernel=%s "
          "(%zu/%zu tiles restored from checkpoint)\n",
          state.network().n_edges(), state.threshold(), build.kernel,
          build.tiles_resumed, build.tiles);
    }
    if (config.apply_dpi)
      std::printf("dpi: %zu triangles, %zu edges removed\n",
                  state.dpi_stats().triangles_examined,
                  state.dpi_stats().edges_removed);

    cluster::ServeServer server(state, options);
    std::printf("serving on 127.0.0.1:%d (cache %zu MiB, flush %.1f ms)\n",
                server.port(), options.cache_bytes >> 20,
                options.flush_deadline_ms);
    std::fflush(stdout);
    server.wait();
    server.stop();
    std::printf("shutdown: %zu clients served\n", server.clients_served());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tinge_serve: %s\n", error.what());
    return 1;
  }
  return 0;
}
