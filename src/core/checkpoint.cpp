#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "data/tsv_io.h"  // IoError
#include "mi/bspline_kernels.h"  // kAccumulationOrder
#include "obs/metrics.h"
#include "util/contracts.h"

namespace tinge {

namespace {
constexpr char kMagic[4] = {'T', 'N', 'G', 'C'};
// Version 2 appended the estimator field to the packed signature, version
// 3 stores the writing build's kAccumulationOrder in the slot that version
// 2 kept zero. Version 1 journals (the pinned-bytes compatibility surface)
// predate estimator selection: their 40-byte signature loads as estimator
// 0 — B-spline, the value every pre-estimator journal implicitly carried.
// Versions 1 and 2 load with accumulation 0.
constexpr std::uint32_t kVersion1 = 1;
constexpr std::uint32_t kVersion2 = 2;

struct PackedSignatureV1 {
  std::uint64_t n_genes;
  std::uint64_t n_samples;
  std::uint64_t tile_size;
  std::uint32_t bins;
  std::uint32_t order;
  double threshold;
};
static_assert(sizeof(PackedSignatureV1) == 40);

struct PackedSignature {
  std::uint64_t n_genes;
  std::uint64_t n_samples;
  std::uint64_t tile_size;
  std::uint32_t bins;
  std::uint32_t order;
  double threshold;
  std::uint32_t estimator;
  std::uint32_t accumulation;  ///< zero in version 2 journals
};
static_assert(sizeof(PackedSignature) == 48);

PackedSignature pack(const RunSignature& s) {
  return PackedSignature{s.n_genes,   s.n_samples, s.tile_size,
                         s.bins,      s.order,     s.threshold,
                         s.estimator, kAccumulationOrder};
}

RunSignature unpack(const PackedSignature& p) {
  RunSignature s;
  s.n_genes = p.n_genes;
  s.n_samples = p.n_samples;
  s.tile_size = p.tile_size;
  s.bins = p.bins;
  s.order = p.order;
  s.threshold = p.threshold;
  s.estimator = p.estimator;
  return s;
}

struct PackedEdge {
  std::uint32_t u;
  std::uint32_t v;
  float weight;
};
static_assert(sizeof(PackedEdge) == 12);
}  // namespace

struct CheckpointWriter::Impl {
  std::FILE* file = nullptr;
  std::mutex mutex;
  std::string path;
  // Journal-event tallies, published to the process-wide registry when the
  // journal closes (one registry touch per journal, none per tile).
  std::uint64_t tiles_appended = 0;
  std::uint64_t edges_appended = 0;
  std::uint64_t bytes_written = 0;
};

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const RunSignature& signature)
    : impl_(std::make_unique<Impl>()) {
  impl_->path = path;
  impl_->file = std::fopen(path.c_str(), "wb");
  if (impl_->file == nullptr)
    throw IoError("cannot create checkpoint " + path);
  const PackedSignature packed = pack(signature);
  if (std::fwrite(kMagic, 1, sizeof(kMagic), impl_->file) != sizeof(kMagic) ||
      std::fwrite(&kCheckpointVersion, sizeof(kCheckpointVersion), 1,
                  impl_->file) != 1 ||
      std::fwrite(&packed, sizeof(packed), 1, impl_->file) != 1) {
    std::fclose(impl_->file);
    impl_->file = nullptr;
    throw IoError("cannot write checkpoint header to " + path);
  }
  std::fflush(impl_->file);
}

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::append_tile(std::size_t tile_index,
                                   std::span<const Edge> edges) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  TINGE_EXPECTS(impl_->file != nullptr);
  const auto index = static_cast<std::uint64_t>(tile_index);
  const auto count = static_cast<std::uint32_t>(edges.size());
  bool ok = std::fwrite(&index, sizeof(index), 1, impl_->file) == 1 &&
            std::fwrite(&count, sizeof(count), 1, impl_->file) == 1;
  for (const Edge& e : edges) {
    if (!ok) break;
    const PackedEdge packed{e.u, e.v, e.weight};
    ok = std::fwrite(&packed, sizeof(packed), 1, impl_->file) == 1;
  }
  if (!ok) throw IoError("checkpoint append failed: " + impl_->path);
  std::fflush(impl_->file);
  ++impl_->tiles_appended;
  impl_->edges_appended += edges.size();
  impl_->bytes_written +=
      sizeof(index) + sizeof(count) + edges.size() * sizeof(PackedEdge);
}

void CheckpointWriter::sync() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->file == nullptr) return;
  if (std::fflush(impl_->file) != 0 || ::fsync(::fileno(impl_->file)) != 0)
    throw IoError("checkpoint sync failed: " + impl_->path);
}

void CheckpointWriter::close() {
  if (impl_ && impl_->file != nullptr) {
    // Best-effort final sync: close() runs from destructors (often during
    // exception unwinding), so a failed fsync must not throw here.
    std::fflush(impl_->file);
    ::fsync(::fileno(impl_->file));
    std::fclose(impl_->file);
    impl_->file = nullptr;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.counter("checkpoint.journals_written").add(1);
    registry.counter("checkpoint.tiles_appended").add(impl_->tiles_appended);
    registry.counter("checkpoint.edges_appended").add(impl_->edges_appended);
    registry.counter("checkpoint.bytes_written").add(impl_->bytes_written);
  }
}

CheckpointState load_checkpoint(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw IoError("cannot open checkpoint " + path);
  const auto fail = [&](const std::string& what) {
    std::fclose(file);
    throw IoError(what + ": " + path);
  };

  char magic[4];
  std::uint32_t version = 0;
  PackedSignature packed{};
  if (std::fread(magic, 1, sizeof(magic), file) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    fail("not a TNGC checkpoint");
  if (std::fread(&version, sizeof(version), 1, file) != 1 ||
      version < kVersion1 || version > kCheckpointVersion)
    fail("unsupported checkpoint version");
  if (version == kVersion1) {
    PackedSignatureV1 v1{};
    if (std::fread(&v1, sizeof(v1), 1, file) != 1)
      fail("truncated checkpoint header");
    packed = PackedSignature{v1.n_genes, v1.n_samples, v1.tile_size,
                             v1.bins,    v1.order,     v1.threshold,
                             0,          0};
  } else if (std::fread(&packed, sizeof(packed), 1, file) != 1) {
    fail("truncated checkpoint header");
  }
  if (version == kVersion2) packed.accumulation = 0;

  CheckpointState state;
  state.version = version;
  state.accumulation = packed.accumulation;
  state.signature = unpack(packed);
  std::vector<bool> seen_tile;
  while (true) {
    std::uint64_t tile_index = 0;
    std::uint32_t count = 0;
    if (std::fread(&tile_index, sizeof(tile_index), 1, file) != 1) break;
    if (std::fread(&count, sizeof(count), 1, file) != 1) {
      state.tail_truncated = true;
      break;
    }
    TileRecord record;
    record.tile_index = tile_index;
    // `count` is untrusted: a record torn mid-append (or mid-header) can
    // carry garbage here, and reserving ~2^32 edges up front would OOM the
    // load that was supposed to *tolerate* the torn tail. Cap the reserve;
    // a genuinely huge record still works through push_back growth.
    record.edges.reserve(std::min<std::uint32_t>(count, 1u << 20));
    bool torn = false;
    for (std::uint32_t i = 0; i < count; ++i) {
      PackedEdge e{};
      if (std::fread(&e, sizeof(e), 1, file) != 1) {
        torn = true;
        break;
      }
      record.edges.push_back(Edge{e.u, e.v, e.weight});
    }
    if (torn) {
      state.tail_truncated = true;
      break;
    }
    if (tile_index < (1u << 30)) {
      if (seen_tile.size() <= tile_index)
        seen_tile.resize(static_cast<std::size_t>(tile_index) + 1, false);
      if (seen_tile[static_cast<std::size_t>(tile_index)]) continue;
      seen_tile[static_cast<std::size_t>(tile_index)] = true;
    }
    state.records.push_back(std::move(record));
  }
  std::fclose(file);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.counter("checkpoint.loads").add(1);
  registry.counter("checkpoint.tiles_loaded").add(state.records.size());
  if (state.tail_truncated) registry.counter("checkpoint.torn_tails").add(1);
  return state;
}

std::vector<std::uint64_t> CheckpointState::completed_tiles() const {
  std::vector<std::uint64_t> tiles;
  tiles.reserve(records.size());
  for (const TileRecord& record : records) tiles.push_back(record.tile_index);
  std::sort(tiles.begin(), tiles.end());
  tiles.erase(std::unique(tiles.begin(), tiles.end()), tiles.end());
  return tiles;
}

std::vector<Edge> CheckpointState::all_edges() const {
  std::vector<Edge> edges;
  for (const TileRecord& record : records)
    edges.insert(edges.end(), record.edges.begin(), record.edges.end());
  return edges;
}

bool checkpoint_matches(const std::string& path, const RunSignature& signature) {
  try {
    return load_checkpoint(path).signature == signature;
  } catch (const IoError&) {
    return false;
  }
}

}  // namespace tinge
