#include "core/run_manifest.h"

#include <cstdint>

#include "obs/manifest.h"

namespace tinge {

namespace {

obs::Json u64_array(const std::vector<std::uint64_t>& values) {
  obs::Json array = obs::Json::array();
  for (const std::uint64_t v : values) array.push_back(obs::Json(v));
  return array;
}

obs::Json f64_array(const std::vector<double>& values) {
  obs::Json array = obs::Json::array();
  for (const double v : values) array.push_back(obs::Json(v));
  return array;
}

obs::Json i32_array(const std::vector<int>& values) {
  obs::Json array = obs::Json::array();
  for (const int v : values) array.push_back(obs::Json(v));
  return array;
}

}  // namespace

obs::Json config_to_json(const TingeConfig& config) {
  obs::Json json = obs::Json::object();
  json["estimator"] = obs::Json(std::string(estimator_name(config.estimator)));
  json["consensus_resamples"] = obs::Json(config.consensus_resamples);
  json["consensus_estimators"] = obs::Json(config.consensus_estimators);
  json["consensus_min_frequency"] =
      obs::Json(config.consensus_min_frequency);
  json["bins"] = obs::Json(config.bins);
  json["spline_order"] = obs::Json(config.spline_order);
  json["alpha"] = obs::Json(config.alpha);
  json["permutations"] = obs::Json(config.permutations);
  json["tile_size"] = obs::Json(config.tile_size);
  json["threads"] = obs::Json(config.threads);
  json["team_size"] = obs::Json(config.team_size);
  json["kernel"] = obs::Json(std::string(kernel_name(config.kernel)));
  json["schedule"] = obs::Json(std::string(par::schedule_name(config.schedule)));
  json["stage_ranks"] = obs::Json(config.stage_ranks);
  json["seed"] = obs::Json(config.seed);
  json["checkpoint_path"] = obs::Json(config.checkpoint_path);
  json["apply_dpi"] = obs::Json(config.apply_dpi);
  json["dpi_tolerance"] = obs::Json(config.dpi_tolerance);
  json["cluster_ranks"] = obs::Json(config.cluster_ranks);
  json["cluster_transport"] = obs::Json(config.cluster_transport);
  return json;
}

obs::Json cluster_to_json(const ClusterManifest& cluster) {
  obs::Json json = obs::Json::object();
  json["transport"] = obs::Json(cluster.transport);
  json["ranks"] = obs::Json(cluster.ranks);
  json["bytes_transferred"] = obs::Json(cluster.bytes_transferred);
  json["messages"] = obs::Json(cluster.messages);
  json["bytes_per_rank"] = u64_array(cluster.bytes_per_rank);
  json["pairs_per_rank"] = u64_array(cluster.pairs_per_rank);
  json["busy_seconds_per_rank"] = f64_array(cluster.busy_seconds_per_rank);
  json["imbalance"] = obs::Json(cluster.imbalance);
  json["imbalance_pre"] = obs::Json(cluster.imbalance_pre);
  json["imbalance_post"] = obs::Json(cluster.imbalance_post);
  json["leases_granted"] = obs::Json(cluster.leases_granted);
  json["steals"] = obs::Json(cluster.steals);
  json["tiles_reclaimed"] = obs::Json(cluster.tiles_reclaimed);
  json["dead_ranks"] = i32_array(cluster.dead_ranks);
  json["seconds"] = obs::Json(cluster.seconds);
  return json;
}

namespace {

obs::Json engine_to_json(const EngineStats& engine) {
  obs::Json json = obs::Json::object();
  json["kernel"] = obs::Json(std::string(engine.kernel));
  json["estimator"] = obs::Json(std::string(engine.estimator));
  json["panel_width"] = obs::Json(engine.panel_width);
  json["pairs_computed"] = obs::Json(engine.pairs_computed);
  json["pairs_resumed"] = obs::Json(engine.pairs_resumed);
  json["edges_emitted"] = obs::Json(engine.edges_emitted);
  json["tiles"] = obs::Json(engine.tiles);
  json["tiles_resumed"] = obs::Json(engine.tiles_resumed);
  json["panels_swept"] = obs::Json(engine.panels_swept);
  json["panel_fill_ratio"] = obs::Json(engine.panel_fill_ratio());
  json["seconds"] = obs::Json(engine.seconds);
  json["tiles_per_thread"] = u64_array(engine.tiles_per_thread);
  json["pairs_per_thread"] = u64_array(engine.pairs_per_thread);
  if (engine.tiles_timed > 0) {
    obs::Json tile_seconds = obs::Json::object();
    tile_seconds["tiles_timed"] = obs::Json(engine.tiles_timed);
    tile_seconds["p50"] = obs::Json(engine.tile_seconds_p50);
    tile_seconds["p95"] = obs::Json(engine.tile_seconds_p95);
    tile_seconds["max"] = obs::Json(engine.tile_seconds_max);
    json["tile_seconds"] = std::move(tile_seconds);
  }
  return json;
}

obs::Json pool_to_json(const BuildResult& result) {
  obs::Json json = obs::Json::object();
  json["lifetime_seconds"] = obs::Json(result.pool_lifetime_seconds);
  obs::Json workers = obs::Json::array();
  for (std::size_t tid = 0; tid < result.pool_busy_seconds.size(); ++tid) {
    const double busy = result.pool_busy_seconds[tid];
    double idle = result.pool_lifetime_seconds - busy;
    if (idle < 0.0) idle = 0.0;  // clock-granularity slack
    obs::Json worker = obs::Json::object();
    worker["tid"] = obs::Json(tid);
    worker["busy_seconds"] = obs::Json(busy);
    worker["idle_seconds"] = obs::Json(idle);
    workers.push_back(std::move(worker));
  }
  json["workers"] = std::move(workers);
  return json;
}

}  // namespace

obs::Json make_run_manifest(const BuildResult& result,
                            const TingeConfig& config,
                            const ClusterManifest* cluster) {
  obs::Json manifest = obs::Json::object();
  manifest["schema_version"] = obs::Json(kManifestSchemaVersion);
  manifest["tool"] = obs::Json(std::string("tingex"));
  manifest["config"] = config_to_json(config);

  obs::Json resolved = obs::Json::object();
  resolved["kernel"] = obs::Json(std::string(result.engine.kernel));
  resolved["estimator"] = obs::Json(std::string(result.engine.estimator));
  resolved["panel_width"] = obs::Json(result.engine.panel_width);
  manifest["resolved"] = std::move(resolved);

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
  run_result["pairs_computed"] = obs::Json(result.engine.pairs_computed);
  if (result.dpi_stats.triangles_examined > 0 ||
      result.dpi_stats.edges_removed > 0) {
    run_result["dpi_triangles_examined"] =
        obs::Json(result.dpi_stats.triangles_examined);
    run_result["dpi_edges_removed"] = obs::Json(result.dpi_stats.edges_removed);
  }
  if (result.consensus.resamples > 0) {
    obs::Json consensus = obs::Json::object();
    consensus["resamples"] = obs::Json(result.consensus.resamples);
    consensus["estimators"] = obs::Json(result.consensus.estimators);
    consensus["candidate_edges"] = obs::Json(result.consensus.candidate_edges);
    consensus["kept_edges"] = obs::Json(result.consensus.kept_edges);
    consensus["thresholds"] = f64_array(result.consensus.thresholds);
    run_result["consensus"] = std::move(consensus);
  }
  manifest["result"] = std::move(run_result);

  if (cluster != nullptr) manifest["cluster"] = cluster_to_json(*cluster);

  if (result.trace) {
    const obs::SpanNode& root = result.trace->root();
    manifest["stages"] = obs::span_to_json(root);
    manifest["peak_stage"] = obs::Json(obs::peak_stage(root).name);
  }
  manifest["engine"] = engine_to_json(result.engine);
  manifest["pool"] = pool_to_json(result);
  manifest["metrics"] = obs::metrics_to_json(result.metrics);
  return manifest;
}

void write_run_manifest(const BuildResult& result, const TingeConfig& config,
                        const std::string& path) {
  obs::write_json_file(make_run_manifest(result, config), path);
}

}  // namespace tinge
