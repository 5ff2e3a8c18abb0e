#include "cluster/sharded_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "cluster/lease_mi.h"
#include "core/dataset_session.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace tinge::cluster {

namespace {

// Collective tags, below the lease protocol's (30000..30002).
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

/// Rank 0 sends its weight table to every other rank, which keeps every
/// rank's estimator bit-identical without re-deriving the basis per rank.
void broadcast_table(Comm& comm, const WeightTable& table) {
  TableMeta meta;
  meta.m = table.n_samples();
  meta.bins = table.bins();
  meta.order = table.order();
  meta.weight_stride = table.weight_stride();
  meta.marginal_entropy = table.marginal_entropy();
  const std::vector<float> weights(
      table.weights_data(), table.weights_data() + meta.m * meta.weight_stride);
  const std::vector<std::int32_t> first_bin(table.first_bin_data(),
                                            table.first_bin_data() + meta.m);
  for (int dest = 1; dest < comm.size(); ++dest) {
    comm.send_vector(dest, std::vector<TableMeta>{meta}, kTagTableMeta);
    comm.send_vector(dest, weights, kTagTableWeights);
    comm.send_vector(dest, first_bin, kTagTableFirstBin);
  }
}

BsplineMi receive_estimator(Comm& comm) {
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
                                 const std::atomic<bool>* cancel) {
  return sharded_build(comm, expression.clone(), config, cancel);
}

ShardedBuildResult sharded_build(Comm& comm, ExpressionMatrix&& expression,
                                 const TingeConfig& config,
                                 const std::atomic<bool>* cancel) {
  config.validate();
  const Stopwatch watch;
  const int r = comm.rank();
  const int p = comm.size();

  ShardedBuildResult result;
  result.genes_in = expression.n_genes();

  // Stages 1-3. Rank 0 runs them as a session on its pool; the other ranks
  // preprocess on one thread each (deterministic, so they rank exactly as
  // rank 0 does) and receive rank 0's weight table and threshold. Every
  // statistic but B-spline is derived locally, so nothing else crosses the
  // wire; the null is deterministic for a seed regardless of thread count,
  // so computing it once on rank 0 is both cheaper and exactly what the
  // single-process pipeline produces.
  std::optional<par::ThreadPool> pool;
  std::optional<DatasetSession> session;
  PreprocessedData local;
  std::unique_ptr<PairStatistic> received;
  const RankedMatrix* ranked = nullptr;
  const PairStatistic* statistic = nullptr;
  if (r == 0) {
    pool.emplace(pipeline_threads(config));
    session.emplace(std::move(expression), config, *pool);
    ranked = &session->ranked();
    statistic = &session->statistic();
    result.genes_used = session->genes_used();
    result.imputed_cells = session->imputed_cells();
    result.null = session->null();
    result.threshold = session->threshold();
    if (p > 1 && config.estimator == EstimatorKind::Bspline)
      broadcast_table(comm,
                      static_cast<const BsplineStat&>(*statistic)
                          .bspline()
                          .table());
    for (int dest = 1; dest < p; ++dest)
      comm.send_vector(dest, std::vector<double>{result.threshold},
                       kTagThreshold);
  } else {
    local = preprocess_expression(std::move(expression), config, nullptr);
    ranked = &local.ranked;
    received = config.estimator == EstimatorKind::Bspline
                   ? std::make_unique<BsplineStat>(receive_estimator(comm),
                                                   config.kernel)
                   : make_pair_statistic(config, local.ranked, &local.working);
    statistic = received.get();
    result.genes_used = local.genes_used;
    result.imputed_cells = local.imputed_cells;
    result.threshold = comm.recv_vector<double>(0, kTagThreshold).at(0);
  }
  result.samples = ranked->n_samples();
  result.marginal_entropy = statistic->marginal_entropy();

  // Stages 4-5. A single rank IS the single-process pipeline, so it runs
  // the session's network stage (checkpointing and teamed scheduling
  // included); p > 1 runs the rank-0 tile-lease protocol (lease_mi.h), one
  // single-threaded sweep per rank, and rank 0 applies DPI to the merged
  // network. At one rank the report carries just the session's pair count.
  LeaseSweepReport report;
  if (p == 1) {
    SessionNetwork built = session->build_network();
    result.network = std::move(built.network);
    result.dpi_stats = built.dpi;
    result.consensus = std::move(built.consensus);
    report.pairs_per_rank.assign(
        1, config.consensus_resamples > 0 ? result.consensus.pairs_computed
                                          : built.engine.pairs_computed);
  } else {
    result.network = lease_sweep(comm, *statistic, *ranked, result.threshold,
                                 config, &report, cancel);
    if (r == 0) {
      obs::MetricsRegistry::global().counter("cluster.lease.granted")
          .add(report.leases_granted);
      obs::MetricsRegistry::global().counter("cluster.lease.steals")
          .add(report.steals);
      obs::MetricsRegistry::global().counter("cluster.lease.reclaimed")
          .add(report.tiles_reclaimed);
    }
    if (r == 0 && config.apply_dpi)
      result.network = apply_dpi(result.network, config.dpi_tolerance,
                                 &result.dpi_stats, *pool, config.threads);
  }

  // Traffic gather: snapshot local totals first so the gather itself is
  // not part of the reported algorithm traffic. The sweep may have
  // outlived dead ranks, so rank 0 skips peers the lease master declared
  // dead and treats a gather-time PeerFailureError as one more late death
  // rather than a pipeline failure.
  TrafficReport own;
  own.bytes_sent = comm.transport().bytes_sent();
  own.messages_sent = comm.transport().messages_sent();
  result.cluster.ranks = p;
  result.cluster.transport = transport_kind_name(comm.transport().kind());
  result.cluster.bytes_per_rank.assign(static_cast<std::size_t>(p), 0);
  result.cluster.bytes_per_rank[static_cast<std::size_t>(r)] = own.bytes_sent;
  if (r == 0) {
    result.cluster.bytes_transferred = own.bytes_sent;
    result.cluster.messages = own.messages_sent;
    for (int src = 1; src < p; ++src) {
      const bool known_dead =
          std::find(report.dead_ranks.begin(), report.dead_ranks.end(),
                    src) != report.dead_ranks.end();
      if (known_dead) continue;
      try {
        const TrafficReport peer =
            comm.recv_vector<TrafficReport>(src, kTagTraffic).at(0);
        result.cluster.bytes_per_rank[static_cast<std::size_t>(src)] =
            peer.bytes_sent;
        result.cluster.bytes_transferred += peer.bytes_sent;
        result.cluster.messages += peer.messages_sent;
      } catch (const PeerFailureError&) {
        report.dead_ranks.push_back(src);
      }
    }
    for (const std::size_t count : report.pairs_per_rank)
      result.pairs_total += count;
    result.cluster.pairs_total = result.pairs_total;
    result.cluster.pairs_per_rank = std::move(report.pairs_per_rank);
    result.cluster.busy_seconds_per_rank =
        std::move(report.busy_seconds_per_rank);
    result.cluster.leases_granted = report.leases_granted;
    result.cluster.steals = report.steals;
    result.cluster.tiles_reclaimed = report.tiles_reclaimed;
    result.cluster.dead_ranks = std::move(report.dead_ranks);
  } else {
    comm.send_vector(0, std::vector<TrafficReport>{own}, kTagTraffic);
  }

  // No closing barrier: a rank that died mid-sweep would deadlock the
  // survivors inside it, and the lease protocol's release handshake
  // already sequenced everyone's exit. At one rank there is no traffic to
  // publish.
  if (p > 1) comm.transport().publish_metrics();
  result.seconds = watch.seconds();
  result.cluster.seconds = result.seconds;
  return result;
}

ClusterManifest to_cluster_manifest(const ClusterStats& stats) {
  ClusterManifest manifest;
  manifest.transport = stats.transport;
  manifest.ranks = stats.ranks;
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
