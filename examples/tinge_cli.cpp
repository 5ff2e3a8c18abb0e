// tinge_cli — production-style command line for the full pipeline:
//
//   tinge_cli --in=expression.tsv --out=network.tsv [options]
//   tinge_cli --synthetic=500 --out=network.tsv           (demo without data)
//   tinge_cli --synthetic=500 --cluster=4 --transport=tcp (sharded run)
//
// Reads a TSV expression matrix (genes x experiments, NA for missing),
// constructs the mutual-information network with permutation-test
// thresholding, and writes a weighted edge list (and optionally SIF).
//
// With --cluster=N the pipeline runs sharded over N ranks with rank-0
// tile leases (cluster/lease_mi.h): --transport=inproc executes the ranks
// as threads in this process, --transport=tcp spawns N tinge_worker
// processes that rendezvous over localhost sockets. Both produce the
// same network as the single-process engine for the same inputs.
#include <cstdio>

#include "cli_common.h"
#include "cluster/faulty_transport.h"
#include "cluster/launcher.h"
#include "cluster/sharded_pipeline.h"
#include "core/network_builder.h"
#include "core/run_manifest.h"
#include "graph/graph_io.h"
#include "simd/feature.h"
#include "util/args.h"

namespace {

/// Sharded run over in-process rank-threads: same process, simulated
/// network, identical result. `fault` is the parsed --fault plan.
int run_cluster_inproc(const tinge::ArgParser& args,
                       const tinge::TingeConfig& config,
                       const tinge::ExpressionMatrix& expression,
                       tinge::cluster::FaultPlan fault) {
  using namespace tinge;
  cluster::TransportOptions options;
  options.recv_timeout_seconds = args.get_double("recv-timeout");
  const auto cluster = cluster::make_cluster(cluster::TransportKind::InProcess,
                                             config.cluster_ranks, options);
  // Fault injection on the in-process backend always throws (mode=exit
  // would _exit the whole process, ranks and caller alike).
  fault.kill_mode = cluster::KillMode::Throw;
  cluster::ShardedBuildResult result;
  bool have_result = false;
  try {
    cluster->run([&](cluster::Comm& comm) {
      cluster::FaultyTransport faulty(comm.transport(), fault);
      cluster::Comm endpoint =
          args.has("fault") ? cluster::Comm(faulty) : comm;
      cluster::ShardedBuildResult local =
          cluster::sharded_build(endpoint, expression, config);
      if (comm.rank() == 0) {
        result = std::move(local);
        have_result = true;
      }
    });
  } catch (const std::runtime_error&) {
    // A worker's injected death is survivable: rank 0 reclaims its leases,
    // finishes the sweep and carries the result out. Cluster::run still
    // rethrows the victim's InjectedFault (or a peer's PeerFailureError)
    // after every rank thread has joined — swallow it when rank 0
    // delivered. A dead rank 0 (no result) stays fatal.
    if (!have_result) throw;
  }

  cli::write_network_outputs(args, result.network, result.null);
  if (args.has("metrics-out"))
    cluster::write_cluster_run_manifest(result, config,
                                        args.get("metrics-out"));
  if (!args.get_flag("quiet")) {
    std::printf(
        "done (cluster inproc, %d ranks): %zu genes, %zu edges, threshold "
        "%.5f nats, %.2f s total\n",
        config.cluster_ranks, result.genes_used, result.network.n_edges(),
        result.threshold, result.seconds);
    std::printf("cluster traffic: %llu bytes in %llu messages, imbalance "
                "%.2f\n",
                static_cast<unsigned long long>(
                    result.cluster.bytes_transferred),
                static_cast<unsigned long long>(result.cluster.messages),
                result.cluster.imbalance());
    std::printf("network written to %s\n", args.get("out").c_str());
  }
  return 0;
}

/// Single-quotes a word for a copy-pasteable shell command line.
std::string shell_quote(const std::string& word) {
  if (!word.empty() &&
      word.find_first_of(" \t\n'\"\\$`&|;<>()*?[]{}~#") == std::string::npos)
    return word;
  std::string quoted = "'";
  for (const char c : word)
    if (c == '\'')
      quoted += "'\\''";
    else
      quoted += c;
  quoted += "'";
  return quoted;
}

/// The command line that reruns this invocation without the injected fault:
/// with --checkpoint its journaled tiles replay, the rest recompute, and the
/// pipeline is deterministic, so the rerun's outputs are byte-identical to
/// what the faulted run would have produced.
std::string resume_command_line(int argc, const char* const* argv) {
  std::string command = shell_quote(argv[0]);
  for (const std::string& arg :
       tinge::cli::forward_args(argc, argv, {"fault"})) {
    command += ' ';
    command += shell_quote(arg);
  }
  return command;
}

/// Sharded run over real worker processes: spawn N tinge_worker siblings,
/// hand them this invocation's options and a fresh rendezvous directory.
int run_cluster_tcp(const tinge::ArgParser& args,
                    const tinge::TingeConfig& config, int argc,
                    const char* const* argv) {
  using namespace tinge;
  const std::string worker =
      cluster::sibling_binary_path(argv[0], "tinge_worker");
  // The workers re-parse this invocation minus the dispatch options (the
  // launcher appends their per-rank identity).
  std::vector<std::string> worker_args =
      cli::forward_args(argc, argv, {"cluster", "transport"});
  worker_args.push_back("--transport=tcp");
  const std::string rendezvous = cluster::make_rendezvous_dir();
  if (!args.get_flag("quiet"))
    std::printf("cluster tcp: launching %d x %s\n", config.cluster_ranks,
                worker.c_str());
  std::vector<cluster::WorkerExit> exits;
  try {
    exits = cluster::launch_workers(worker, worker_args, config.cluster_ranks,
                                    rendezvous);
  } catch (...) {
    cluster::remove_rendezvous_dir(rendezvous);
    throw;
  }
  cluster::remove_rendezvous_dir(rendezvous);
  if (!cluster::all_workers_succeeded(exits)) {
    // Attribute the failure: the earliest-reaped bad exit that is not a
    // watcher (exit 3 = saw a peer fail; SIGTERM = launcher teardown) is
    // the root cause. Reap order alone is not enough: workers that exited
    // together are reaped in spawn order.
    for (const cluster::WorkerExit& exit : exits)
      if (exit.failed())
        std::fprintf(stderr, "error: worker rank %d %s\n", exit.rank,
                     cluster::describe_worker_exit(exit).c_str());
    const cluster::WorkerExit* first = cluster::first_failure(exits);
    const std::string resume = resume_command_line(argc, argv);
    if (first != nullptr)
      std::fprintf(stderr,
                   "error: cluster run failed: rank %d failed first (%s); "
                   "the other ranks died of peer failure or teardown\n",
                   first->rank,
                   cluster::describe_worker_exit(*first).c_str());
    std::fprintf(stderr, "to rerun (%sthe result is byte-identical):\n  %s\n",
                 config.checkpoint_path.empty()
                     ? ""
                     : "checkpointed tiles replay from the journal; ",
                 resume.c_str());
    if (args.has("metrics-out"))
      cluster::write_cluster_failure_manifest(config, exits, resume,
                                              args.get("metrics-out"));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tinge;

  ArgParser args;
  cli::add_dataset_options(args);
  args.add("out", "output edge list path", "network.tsv");
  args.add("sif", "also write a Cytoscape SIF file to this path");
  cli::add_pipeline_options(args);
  {
    const TingeConfig defaults;
    args.add("cluster",
             "run sharded over N ranks (0 = single-process engine)",
             strprintf("%d", defaults.cluster_ranks));
    args.add("transport", "cluster transport: inproc|tcp",
             defaults.cluster_transport);
  }
  args.add("recv-timeout",
           "cluster runs: seconds a recv/barrier may wait before the peer "
           "is declared dead (0 = wait forever)",
           "300");
  args.add("fault",
           "cluster runs: fault-injection plan, e.g. "
           "rank=1,kill-after=5,mode=exit (testing only)");
  args.add("metrics-out", "write a JSON run manifest (stages, metrics) here");
  args.add_flag("trace", "print the per-stage trace tree to stderr");
  args.add_flag("describe", "print a dataset summary and exit (no inference)");
  args.add_flag("pvalues", "append a null-p-value column to the edge list");
  args.add_flag("quiet", "suppress progress output");
  args.add_flag("help", "show this help");

  // A malformed --fault is a flag error too: it fails here, before any
  // data is loaded or worker spawned.
  cluster::FaultPlan fault;
  try {
    args.parse(argc, argv);
    if (args.has("fault")) fault = cluster::parse_fault_plan(args.get("fault"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  if (args.get_flag("help")) {
    std::fputs(
        args.usage("tinge_cli",
                   "Mutual-information gene network construction (TINGe "
                   "pipeline, IPDPS 2014 reproduction).")
            .c_str(),
        stdout);
    return 0;
  }

  try {
    // ---- configure (before load: flag errors should fail fast) ------------
    TingeConfig config = cli::config_from_args(args);
    config.cluster_ranks = static_cast<int>(args.get_int("cluster"));
    config.cluster_transport = args.get("transport");
    config.validate();

    // The TCP path never loads data here — the workers load it themselves
    // (--describe still runs locally; it does no inference).
    if (config.cluster_ranks > 0 && config.cluster_transport == "tcp" &&
        !args.get_flag("describe"))
      return run_cluster_tcp(args, config, argc, argv);

    // ---- load ---------------------------------------------------------------
    ExpressionMatrix expression =
        cli::load_dataset(args, args.get_flag("quiet"));

    if (args.get_flag("describe")) {
      std::printf("dataset: %zu genes x %zu samples\n", expression.n_genes(),
                  expression.n_samples());
      const std::size_t missing = expression.count_missing();
      std::printf("missing spots: %zu (%.3f%%)\n", missing,
                  expression.n_genes() * expression.n_samples() > 0
                      ? 100.0 * static_cast<double>(missing) /
                            static_cast<double>(expression.n_genes() *
                                                 expression.n_samples())
                      : 0.0);
      const FilterResult filtered =
          filter_genes(expression, TingeConfig{}.filter);
      std::printf("usable genes at default filters: %zu (%zu low-variance, "
                  "%zu too-missing)\n",
                  filtered.matrix.n_genes(), filtered.dropped_low_variance,
                  filtered.dropped_missing);
      std::printf("suggested bins for m=%zu: %d\n", expression.n_samples(),
                  suggest_bins(std::max<std::size_t>(expression.n_samples(), 2)));
      return 0;
    }

    if (config.cluster_ranks > 0)
      return run_cluster_inproc(args, config, expression, fault);

    NetworkBuilder builder(config);
    if (!args.get_flag("quiet")) {
      std::printf("simd: %s\n", simd::isa_report().c_str());
      builder.set_logger([](std::string_view message) {
        std::printf("  %.*s\n", static_cast<int>(message.size()),
                    message.data());
      });
    }

    // ---- run ---------------------------------------------------------------------
    const BuildResult result = builder.build(std::move(expression));

    // ---- write ----------------------------------------------------------------
    {
      const obs::TraceSpan output_span(*result.trace, "output");
      cli::write_network_outputs(args, result.network, result.null);
    }
    result.trace->finish();  // fold the output span into the root's total

    if (args.has("metrics-out"))
      write_run_manifest(result, config, args.get("metrics-out"));
    if (args.get_flag("trace"))
      std::fputs(obs::format_trace(result.trace->root()).c_str(), stderr);

    if (!args.get_flag("quiet")) {
      std::printf(
          "done: %zu genes, %zu edges, threshold %.5f nats, %.2f s total\n",
          result.genes_used, result.network.n_edges(), result.threshold,
          result.times.total);
      if (result.consensus.resamples > 0) {
        std::printf("consensus: %zu resamples x %zu estimators, %zu of %zu "
                    "candidate edges kept (%.2f s)\n",
                    result.consensus.resamples, result.consensus.estimators,
                    result.consensus.kept_edges,
                    result.consensus.candidate_edges,
                    result.consensus.seconds);
      } else {
        std::printf("mi kernel: %s, panel width %d (%.0f pairs/s)\n",
                    result.engine.kernel, result.engine.panel_width,
                    result.engine.seconds > 0.0
                        ? static_cast<double>(result.engine.pairs_computed) /
                              result.engine.seconds
                        : 0.0);
      }
      std::printf("network written to %s\n", args.get("out").c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
