// Checkpoint/restart for the all-pairs MI pass.
//
// A whole-genome run is tens of minutes on one chip and hours on one core;
// losing it to a node failure at 95% is exactly the operational pain the
// paper's cluster-replacing pitch invites. The engine can therefore journal
// completed tiles to an append-only checkpoint file and resume from it:
//
//   header:  magic "TNGC" | u32 version | RunSignature | u32 accumulation
//   records: u64 tile_index | u32 edge_count | edges (u32,u32,f32)...
//
// Records are appended under a writer lock as tiles finish, so after a
// crash the file contains a prefix of whole records (a torn tail record is
// detected and discarded on load). Resume validates the signature — the
// checkpoint is only meaningful for the identical run configuration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/network.h"

namespace tinge {

/// Journal format written by CheckpointWriter. Version 3 added the
/// B-spline accumulation-order id; versions 1 and 2 still load.
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Identifies a run; a checkpoint loads only into an identical run.
struct RunSignature {
  std::uint64_t n_genes = 0;
  std::uint64_t n_samples = 0;
  std::uint64_t tile_size = 0;
  std::uint32_t bins = 0;
  std::uint32_t order = 0;
  double threshold = 0.0;
  /// EstimatorKind of the pair statistic, as uint32 (0 = bspline, the
  /// value every pre-estimator journal implicitly carried).
  std::uint32_t estimator = 0;

  friend bool operator==(const RunSignature&, const RunSignature&) = default;
};

/// Append-only journal of completed tiles. Thread-safe append.
class CheckpointWriter {
 public:
  /// Creates/truncates `path` and writes the header.
  CheckpointWriter(const std::string& path, const RunSignature& signature);
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends one completed tile (called concurrently by worker threads).
  void append_tile(std::size_t tile_index, std::span<const Edge> edges);

  /// Forces appended records to stable storage (fflush + fsync). append_tile
  /// only flushes to the kernel — cheap, but a machine crash can still lose
  /// entries — so the sweep sink calls this on its progress-throttle
  /// boundaries: everything reported as done is durable, without paying an
  /// fsync per tile.
  void sync();

  /// Flushes, fsyncs and closes. Called automatically by the destructor.
  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One whole journal record: a completed tile and its surviving edges.
struct TileRecord {
  std::uint64_t tile_index = 0;
  std::vector<Edge> edges;
};

/// Result of loading a checkpoint file.
struct CheckpointState {
  std::uint32_t version = 0;  ///< journal format version of the file
  /// kAccumulationOrder of the build that wrote the journal: the float
  /// order of its B-spline values. 0 for version 1 and 2 journals, whose
  /// B-spline values came from the sample-order kernels that preceded it.
  std::uint32_t accumulation = 0;
  RunSignature signature;
  std::vector<TileRecord> records;  ///< whole records, duplicates removed
  bool tail_truncated = false;      ///< a torn final record was discarded

  /// Sorted unique completed tile indices.
  std::vector<std::uint64_t> completed_tiles() const;
  /// All edges across records.
  std::vector<Edge> all_edges() const;
};

/// Loads all whole records of `path`. Throws IoError on a missing file,
/// bad magic, or unsupported version. A torn tail (crash mid-append) is
/// tolerated and flagged.
CheckpointState load_checkpoint(const std::string& path);

/// True if `path` exists and holds a checkpoint matching `signature`.
bool checkpoint_matches(const std::string& path, const RunSignature& signature);

}  // namespace tinge
