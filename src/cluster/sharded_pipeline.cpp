#include "cluster/sharded_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "cluster/lease_mi.h"
#include "core/mi_engine.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "preprocess/filter.h"
#include "preprocess/rank_transform.h"
#include "util/str.h"
#include "util/timer.h"

namespace tinge::cluster {

namespace {

// A stage span that exists only when a local caller grafted a trace on;
// the cluster CLI path runs span-free.
class OptionalSpan {
 public:
  OptionalSpan(obs::Trace* trace, const char* name) {
    if (trace != nullptr) span_.emplace(*trace, name);
  }

 private:
  std::optional<obs::TraceSpan> span_;
};

// Collective tags, far above the ring sweep's range (ring uses 1..p and
// 10000/10001).
constexpr int kTagTableMeta = 20000;
constexpr int kTagTableWeights = 20001;
constexpr int kTagTableFirstBin = 20002;
constexpr int kTagThreshold = 20003;
constexpr int kTagTraffic = 20004;

struct TableMeta {
  std::uint64_t m = 0;
  std::int32_t bins = 0;
  std::int32_t order = 0;
  std::uint64_t weight_stride = 0;
  double marginal_entropy = 0.0;
};
static_assert(std::is_trivially_copyable_v<TableMeta>);

struct TrafficReport {
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
};
static_assert(std::is_trivially_copyable_v<TrafficReport>);

/// Rank 0 builds the weight table; everyone else receives it. Keeps every
/// rank's estimator bit-identical without re-deriving the basis per rank.
BsplineMi broadcast_estimator(Comm& comm, const RankedMatrix& ranked,
                              const TingeConfig& config) {
  const int p = comm.size();
  if (comm.rank() == 0) {
    BsplineMi estimator(config.bins, config.spline_order, ranked.n_samples());
    const WeightTable& table = estimator.table();
    TableMeta meta;
    meta.m = table.n_samples();
    meta.bins = table.bins();
    meta.order = table.order();
    meta.weight_stride = table.weight_stride();
    meta.marginal_entropy = table.marginal_entropy();
    const std::vector<float> weights(
        table.weights_data(),
        table.weights_data() + meta.m * meta.weight_stride);
    const std::vector<std::int32_t> first_bin(
        table.first_bin_data(), table.first_bin_data() + meta.m);
    for (int dest = 1; dest < p; ++dest) {
      comm.send_vector(dest, std::vector<TableMeta>{meta}, kTagTableMeta);
      comm.send_vector(dest, weights, kTagTableWeights);
      comm.send_vector(dest, first_bin, kTagTableFirstBin);
    }
    return estimator;
  }
  const TableMeta meta =
      comm.recv_vector<TableMeta>(0, kTagTableMeta).at(0);
  const std::vector<float> weights =
      comm.recv_vector<float>(0, kTagTableWeights);
  const std::vector<std::int32_t> first_bin =
      comm.recv_vector<std::int32_t>(0, kTagTableFirstBin);
  WeightTable table(static_cast<std::size_t>(meta.m), meta.bins, meta.order,
                    static_cast<std::size_t>(meta.weight_stride), weights,
                    first_bin, meta.marginal_entropy);
  return BsplineMi(std::move(table));
}

}  // namespace

ShardedBuildResult sharded_build(Comm& comm,
                                 const ExpressionMatrix& expression,
                                 const TingeConfig& config,
                                 const LocalPipelineHooks& hooks) {
  return sharded_build(comm, expression.clone(), config, hooks);
}

ShardedBuildResult sharded_build(Comm& comm, ExpressionMatrix&& expression,
                                 const TingeConfig& config,
                                 const LocalPipelineHooks& hooks) {
  config.validate();
  const Stopwatch watch;
  const int r = comm.rank();
  const int p = comm.size();

  ShardedBuildResult result;
  result.genes_in = expression.n_genes();

  // The null build and the p == 1 engine sweep share one pool: the
  // caller's when grafted, otherwise one created on first use.
  std::unique_ptr<par::ThreadPool> owned_pool;
  const auto ensure_pool = [&]() -> par::ThreadPool& {
    if (hooks.pool != nullptr) return *hooks.pool;
    if (!owned_pool) {
      const int pool_threads =
          config.threads > 0 ? config.threads
                             : par::detect_host_topology().total_threads();
      owned_pool = std::make_unique<par::ThreadPool>(pool_threads);
    }
    return *owned_pool;
  };

  // Stage 1: rank-local preprocessing (deterministic on every rank).
  ExpressionMatrix working = std::move(expression);
  RankedMatrix ranked;
  {
    const OptionalSpan span(hooks.trace, "preprocess");
    std::size_t dropped_low_variance = 0, dropped_missing = 0;
    {
      const OptionalSpan impute_span(hooks.trace, "impute");
      result.imputed_cells = impute_missing_with_median(working);
    }
    {
      const OptionalSpan filter_span(hooks.trace, "filter");
      FilterResult filtered = filter_genes(working, config.filter);
      result.genes_used = filtered.matrix.n_genes();
      dropped_low_variance = filtered.dropped_low_variance;
      dropped_missing = filtered.dropped_missing;
      TINGE_EXPECTS(filtered.matrix.n_genes() >= 2);
      working = std::move(filtered.matrix);
    }
    {
      const OptionalSpan rank_span(hooks.trace, "rank");
      // The single-process pipeline ranks on its pool; cluster ranks keep
      // one thread each, like the rest of their rank-local stages.
      ranked = p == 1 ? RankedMatrix(working, ensure_pool(), config.threads)
                      : RankedMatrix(working);
    }
    result.samples = ranked.n_samples();
    if (hooks.log)
      hooks.log(strprintf("preprocess: %zu/%zu genes kept (%zu low-variance, "
                          "%zu missing dropped), %zu cells imputed",
                          result.genes_used, result.genes_in,
                          dropped_low_variance, dropped_missing,
                          result.imputed_cells));
  }

  // Stage 2: the pair statistic. B-spline keeps the shared weight table,
  // built once on rank 0 and broadcast (bit-identical ranks without
  // re-deriving the basis); every other estimator is derived locally per
  // rank from the (deterministic) preprocessed data, so nothing crosses
  // the wire.
  const std::unique_ptr<PairStatistic> statistic = [&] {
    const OptionalSpan span(hooks.trace, "weight_table");
    if (config.estimator == EstimatorKind::Bspline)
      return std::unique_ptr<PairStatistic>(std::make_unique<BsplineStat>(
          broadcast_estimator(comm, ranked, config), config.kernel));
    return make_pair_statistic(config, ranked, &working);
  }();
  result.marginal_entropy = statistic->marginal_entropy();
  if (hooks.log) {
    if (config.estimator == EstimatorKind::Bspline)
      hooks.log(strprintf("weight table: b=%d k=%d m=%zu, H_marginal=%.4f "
                          "nats",
                          config.bins, config.spline_order,
                          ranked.n_samples(), result.marginal_entropy));
    else
      hooks.log(strprintf("estimator: %s, m=%zu", statistic->name(),
                          ranked.n_samples()));
  }

  // Stage 3: universal permutation null on rank 0, threshold broadcast.
  // build_null_distribution is deterministic for a seed regardless of
  // thread count, so one rank computing it reproduces the single-process
  // pipeline exactly.
  if (r == 0) {
    {
      const OptionalSpan span(hooks.trace, "null");
      result.null = std::make_shared<EmpiricalDistribution>(
          build_null_distribution(*statistic, config.permutations,
                                  config.seed, ensure_pool(),
                                  config.threads));
    }
    {
      const OptionalSpan span(hooks.trace, "threshold");
      result.threshold = threshold_for_alpha(*result.null, config.alpha);
      obs::MetricsRegistry::global().gauge("null.threshold")
          .set(result.threshold);
      if (hooks.log)
        hooks.log(strprintf("null: q=%zu draws, I_alpha(%.2e)=%.5f nats",
                            config.permutations, config.alpha,
                            result.threshold));
    }
    for (int dest = 1; dest < p; ++dest)
      comm.send_vector(dest, std::vector<double>{result.threshold},
                       kTagThreshold);
  } else {
    result.threshold = comm.recv_vector<double>(0, kTagThreshold).at(0);
  }

  // Stage 4: the all-pairs MI sweep. A single-rank cluster IS the
  // single-process pipeline, so it runs the tiled multithreaded engine
  // (checkpointing and teamed scheduling included); p > 1 runs the sweep
  // config.cluster_balance selects — the TINGe-classic static ring, or the
  // elastic rank-0 tile-lease protocol (lease_mi.h), one single-threaded
  // sweep per rank either way.
  const bool lease = p > 1 && config.cluster_balance == "lease";
  std::vector<std::size_t> pairs_per_rank;
  std::vector<double> busy_per_rank;
  LeaseSweepReport lease_report;
  {
    const OptionalSpan span(hooks.trace, "mi_sweep");
    if (p == 1 && config.consensus_resamples > 0) {
      // Consensus mode: B bootstrap resamples x the selected estimators,
      // every member sweep through the same engine. The stage-3 null and
      // threshold above stay reported (they are the primary estimator's
      // full-data values); the per-member thresholds live in
      // result.consensus.thresholds.
      result.network = build_consensus_network(
          working, ranked, config, ensure_pool(), hooks.log,
          &result.consensus);
      pairs_per_rank.assign(1, result.consensus.pairs_computed);
      if (hooks.log)
        hooks.log(strprintf(
            "consensus pass: %zu members, %zu candidate edges, %zu kept",
            result.consensus.resamples * result.consensus.estimators,
            result.consensus.candidate_edges, result.consensus.kept_edges));
    } else if (p == 1) {
      const MiEngine engine(*statistic, ranked);
      EngineStats local_stats;
      EngineStats* stats =
          hooks.engine != nullptr ? hooks.engine : &local_stats;
      if (config.checkpoint_path.empty()) {
        result.network = engine.compute_network(result.threshold, config,
                                                ensure_pool(), stats);
      } else {
        result.network = engine.compute_network_checkpointed(
            result.threshold, config, ensure_pool(), config.checkpoint_path,
            stats);
      }
      pairs_per_rank.assign(1, stats->pairs_computed);
      if (hooks.log)
        hooks.log(strprintf(
            "mi pass: kernel=%s panel=%d, %zu pairs, %zu significant "
            "edges (%.2f%%)",
            stats->kernel, stats->panel_width, stats->pairs_computed,
            result.network.n_edges(),
            stats->pairs_computed > 0
                ? 100.0 * static_cast<double>(result.network.n_edges()) /
                      static_cast<double>(stats->pairs_computed)
                : 0.0));
    } else if (lease) {
      result.network = lease_sweep(comm, *statistic, ranked, result.threshold,
                                   config, &lease_report, hooks.cancel);
      pairs_per_rank = lease_report.pairs_per_rank;
      busy_per_rank = lease_report.busy_seconds_per_rank;
      if (r == 0) {
        obs::MetricsRegistry::global().counter("cluster.lease.granted")
            .add(lease_report.leases_granted);
        obs::MetricsRegistry::global().counter("cluster.lease.steals")
            .add(lease_report.steals);
        obs::MetricsRegistry::global().counter("cluster.lease.reclaimed")
            .add(lease_report.tiles_reclaimed);
        if (hooks.log)
          hooks.log(strprintf(
              "lease sweep: %zu tiles (%zu resumed), %zu leases, %zu steals, "
              "%zu reclaimed, %zu dead ranks",
              lease_report.tiles_total, lease_report.tiles_resumed,
              lease_report.leases_granted, lease_report.steals,
              lease_report.tiles_reclaimed, lease_report.dead_ranks.size()));
      }
    } else {
      result.network = ring_sweep(comm, *statistic, ranked, result.threshold,
                                  config, &pairs_per_rank, hooks.cancel,
                                  &busy_per_rank);
    }
  }

  // Stage 5: DPI on the merged network (rank 0 only).
  if (r == 0 && config.apply_dpi) {
    const OptionalSpan span(hooks.trace, "dpi");
    result.network =
        apply_dpi(result.network, config.dpi_tolerance, &result.dpi_stats);
    if (hooks.log)
      hooks.log(strprintf("dpi: %zu triangles, %zu edges removed, %zu edges "
                          "remain",
                          result.dpi_stats.triangles_examined,
                          result.dpi_stats.edges_removed,
                          result.network.n_edges()));
  }

  // Traffic gather: snapshot local totals first so the gather itself is
  // not part of the reported algorithm traffic. Under lease balancing the
  // sweep may have outlived dead ranks, so rank 0 skips peers the lease
  // master declared dead and treats a gather-time PeerFailureError as one
  // more late death rather than a pipeline failure.
  TrafficReport own;
  own.bytes_sent = comm.transport().bytes_sent();
  own.messages_sent = comm.transport().messages_sent();
  result.cluster.ranks = p;
  result.cluster.transport = transport_kind_name(comm.transport().kind());
  result.cluster.balance = lease ? "lease" : "static";
  result.cluster.bytes_per_rank.assign(static_cast<std::size_t>(p), 0);
  result.cluster.bytes_per_rank[static_cast<std::size_t>(r)] = own.bytes_sent;
  if (r == 0) {
    result.cluster.bytes_transferred = own.bytes_sent;
    result.cluster.messages = own.messages_sent;
    for (int src = 1; src < p; ++src) {
      const bool known_dead =
          std::find(lease_report.dead_ranks.begin(),
                    lease_report.dead_ranks.end(),
                    src) != lease_report.dead_ranks.end();
      if (known_dead) continue;
      try {
        const TrafficReport peer =
            comm.recv_vector<TrafficReport>(src, kTagTraffic).at(0);
        result.cluster.bytes_per_rank[static_cast<std::size_t>(src)] =
            peer.bytes_sent;
        result.cluster.bytes_transferred += peer.bytes_sent;
        result.cluster.messages += peer.messages_sent;
      } catch (const PeerFailureError&) {
        if (!lease) throw;
        lease_report.dead_ranks.push_back(src);
      }
    }
    result.cluster.pairs_per_rank = pairs_per_rank;
    result.cluster.busy_seconds_per_rank = busy_per_rank;
    result.cluster.leases_granted = lease_report.leases_granted;
    result.cluster.steals = lease_report.steals;
    result.cluster.tiles_reclaimed = lease_report.tiles_reclaimed;
    result.cluster.dead_ranks = lease_report.dead_ranks;
    for (const std::size_t count : pairs_per_rank)
      result.pairs_total += count;
    result.cluster.pairs_total = result.pairs_total;
  } else {
    comm.send_vector(0, std::vector<TrafficReport>{own}, kTagTraffic);
  }

  // Everyone leaves together (a finished rank closing its endpoint early
  // would look like a failure to peers still mid-recv on TCP). At one rank
  // there is no peer to wait for, and publishing the self-loop transport's
  // cluster.* counters would dirty the delegated single-process run's
  // metrics delta. Lease mode skips the barrier: a rank that died
  // mid-sweep would deadlock the survivors inside it, and the lease
  // protocol's release handshake already sequenced everyone's exit.
  if (p > 1) {
    if (!lease) comm.barrier();
    comm.transport().publish_metrics();
  }
  result.seconds = watch.seconds();
  result.cluster.seconds = result.seconds;
  return result;
}

ClusterManifest to_cluster_manifest(const ClusterStats& stats) {
  ClusterManifest manifest;
  manifest.transport = stats.transport;
  manifest.ranks = stats.ranks;
  manifest.balance = stats.balance;
  manifest.bytes_transferred = stats.bytes_transferred;
  manifest.messages = stats.messages;
  manifest.bytes_per_rank = stats.bytes_per_rank;
  manifest.pairs_per_rank.reserve(stats.pairs_per_rank.size());
  for (const std::size_t pairs : stats.pairs_per_rank)
    manifest.pairs_per_rank.push_back(static_cast<std::uint64_t>(pairs));
  manifest.busy_seconds_per_rank = stats.busy_seconds_per_rank;
  manifest.imbalance = stats.imbalance();
  manifest.imbalance_pre = stats.imbalance_pre();
  manifest.imbalance_post = stats.imbalance_post();
  manifest.leases_granted = static_cast<std::uint64_t>(stats.leases_granted);
  manifest.steals = static_cast<std::uint64_t>(stats.steals);
  manifest.tiles_reclaimed =
      static_cast<std::uint64_t>(stats.tiles_reclaimed);
  manifest.dead_ranks = stats.dead_ranks;
  manifest.seconds = stats.seconds;
  return manifest;
}

obs::Json make_cluster_run_manifest(const ShardedBuildResult& result,
                                    const TingeConfig& config) {
  obs::Json manifest = obs::Json::object();
  manifest["schema_version"] = obs::Json(kManifestSchemaVersion);
  manifest["tool"] = obs::Json(std::string("tingex"));
  manifest["mode"] = obs::Json(std::string("cluster"));
  manifest["config"] = config_to_json(config);

  obs::Json dataset = obs::Json::object();
  dataset["genes_in"] = obs::Json(result.genes_in);
  dataset["genes_used"] = obs::Json(result.genes_used);
  dataset["samples"] = obs::Json(result.samples);
  dataset["imputed_cells"] = obs::Json(result.imputed_cells);
  manifest["dataset"] = std::move(dataset);

  obs::Json run_result = obs::Json::object();
  run_result["edges"] = obs::Json(result.network.n_edges());
  run_result["threshold"] = obs::Json(result.threshold);
  run_result["marginal_entropy"] = obs::Json(result.marginal_entropy);
  run_result["pairs_computed"] = obs::Json(result.pairs_total);
  if (result.dpi_stats.triangles_examined > 0 ||
      result.dpi_stats.edges_removed > 0) {
    run_result["dpi_triangles_examined"] =
        obs::Json(result.dpi_stats.triangles_examined);
    run_result["dpi_edges_removed"] =
        obs::Json(result.dpi_stats.edges_removed);
  }
  if (result.consensus.resamples > 0) {
    obs::Json consensus = obs::Json::object();
    consensus["resamples"] = obs::Json(result.consensus.resamples);
    consensus["estimators"] = obs::Json(result.consensus.estimators);
    consensus["candidate_edges"] =
        obs::Json(result.consensus.candidate_edges);
    consensus["kept_edges"] = obs::Json(result.consensus.kept_edges);
    obs::Json thresholds = obs::Json::array();
    for (const double t : result.consensus.thresholds)
      thresholds.push_back(obs::Json(t));
    consensus["thresholds"] = std::move(thresholds);
    run_result["consensus"] = std::move(consensus);
  }
  manifest["result"] = std::move(run_result);

  manifest["cluster"] = cluster_to_json(to_cluster_manifest(result.cluster));
  return manifest;
}

void write_cluster_run_manifest(const ShardedBuildResult& result,
                                const TingeConfig& config,
                                const std::string& path) {
  obs::write_json_file(make_cluster_run_manifest(result, config), path);
}

obs::Json make_cluster_failure_manifest(const TingeConfig& config,
                                        const std::vector<WorkerExit>& exits,
                                        const std::string& resume_command) {
  obs::Json manifest = obs::Json::object();
  manifest["schema_version"] = obs::Json(kManifestSchemaVersion);
  manifest["tool"] = obs::Json(std::string("tingex"));
  manifest["mode"] = obs::Json(std::string("cluster"));
  manifest["status"] = obs::Json(std::string("failed"));
  manifest["config"] = config_to_json(config);

  obs::Json failure = obs::Json::object();
  const WorkerExit* first = first_failure(exits);
  failure["first_failed_rank"] =
      obs::Json(first != nullptr ? first->rank : -1);
  failure["first_failed_cause"] = obs::Json(
      first != nullptr ? describe_worker_exit(*first) : std::string());
  obs::Json workers = obs::Json::array();
  for (const WorkerExit& exit : exits) {
    obs::Json worker = obs::Json::object();
    worker["rank"] = obs::Json(exit.rank);
    worker["exit_code"] = obs::Json(exit.exit_code);
    worker["reap_order"] = obs::Json(exit.reap_order);
    worker["outcome"] = obs::Json(describe_worker_exit(exit));
    workers.push_back(std::move(worker));
  }
  failure["workers"] = std::move(workers);
  if (!resume_command.empty())
    failure["resume_command"] = obs::Json(resume_command);
  manifest["failure"] = std::move(failure);
  return manifest;
}

void write_cluster_failure_manifest(const TingeConfig& config,
                                    const std::vector<WorkerExit>& exits,
                                    const std::string& resume_command,
                                    const std::string& path) {
  obs::write_json_file(make_cluster_failure_manifest(config, exits,
                                                     resume_command),
                       path);
}

}  // namespace tinge::cluster
