// The run manifest: one stable JSON document per pipeline run.
//
// Serializes everything a later reader needs to understand what the run
// did without re-running it: the configuration as requested, the kernel
// and panel width actually resolved, the per-stage tree of wall time and
// peak resident set (plus the name of the stage that set the peak), the
// tile-scheduler outcome (tiles/pairs per pool context, panel fill),
// thread-pool busy/idle accounting, and the run-scoped metrics delta
// (null draws, checkpoint journal events, cluster byte/message counts).
// The golden-run regression test pins this document's shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/network_builder.h"
#include "obs/json.h"

namespace tinge {

/// Bumped whenever a field is renamed or removed (additions are free).
inline constexpr int kManifestSchemaVersion = 3;

/// What a cluster (sharded) run records about its communication layer.
/// core cannot depend on the cluster module, so the cluster pipeline maps
/// its own stats into this struct before manifest assembly.
struct ClusterManifest {
  std::string transport;       ///< "inproc" or "tcp"
  int ranks = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> bytes_per_rank;
  std::vector<std::uint64_t> pairs_per_rank;
  std::vector<double> busy_seconds_per_rank;
  double imbalance = 1.0;  ///< max/min computed pairs across ranks
  /// Predicted static wall imbalance (max/min per-rank compute rate) and
  /// the actually observed one (max/min per-rank busy seconds).
  double imbalance_pre = 1.0;
  double imbalance_post = 1.0;
  // Tile-lease accounting.
  std::uint64_t leases_granted = 0;
  std::uint64_t steals = 0;
  std::uint64_t tiles_reclaimed = 0;
  std::vector<int> dead_ranks;
  double seconds = 0.0;
};

/// The "config" section of the manifest (exported for cluster-side
/// manifest assembly).
obs::Json config_to_json(const TingeConfig& config);

/// The "cluster" section of the manifest.
obs::Json cluster_to_json(const ClusterManifest& cluster);

/// Assembles the manifest document from a finished build. The caller may
/// have appended extra spans (e.g. the CLI's "output") and re-finished the
/// trace; whatever the tree holds at call time is serialized. When
/// `cluster` is non-null the manifest gains a "cluster" section.
obs::Json make_run_manifest(const BuildResult& result,
                            const TingeConfig& config,
                            const ClusterManifest* cluster = nullptr);

/// make_run_manifest + obs::write_json_file. Throws std::runtime_error on
/// I/O failure.
void write_run_manifest(const BuildResult& result, const TingeConfig& config,
                        const std::string& path);

}  // namespace tinge
