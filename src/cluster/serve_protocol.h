// Wire protocol of the tinge_serve query daemon (DESIGN.md §6j).
//
// Serve traffic rides the same framed transport as the mesh
// (cluster/framing.h): every message is one frame whose kind is
// kFrameServeRequest / kFrameServeResponse / kFrameServeEvent and whose tag
// is a client-chosen request id, echoed back verbatim so a client can match
// responses (and streamed events) to the request that caused them.
//
// A request frame's payload is a ServeRequestHeader followed by
// `header.count` uint32 items whose meaning depends on the kind (see
// QueryKind). A response frame's payload is a ServeResponseHeader followed
// by `header.count` elements: doubles for MiPairs, ServeEdge records for
// the graph queries, raw UTF-8 bytes for Metrics / SweepJob summaries and
// error messages. Event frames (SweepJob progress) carry plain UTF-8 JSON.
//
// All integers are host byte order — the daemon serves loopback / one
// machine, exactly like the mesh transport it reuses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tinge::cluster {

/// What a serve request asks for. The numeric values are the wire encoding:
/// append new kinds, never renumber.
enum class QueryKind : std::uint32_t {
  Ping = 0,      ///< liveness probe; empty payload, empty response
  MiPairs,       ///< payload: 2*n interleaved gene ids (a0 b0 a1 b1 ...);
                 ///< response: n doubles, bit-identical to the batch sweep
  Neighborhood,  ///< payload: 1 gene id; k = max neighbors by weight (0=all);
                 ///< response: ServeEdge records
  TopEdges,      ///< k = edge count wanted; response: ServeEdge records
  Subgraph,      ///< payload: n gene ids; response: every network edge with
                 ///< both endpoints in the set
  SweepJob,      ///< re-run the thresholded network sweep; progress streamed
                 ///< as ServeEvent frames, final response is a JSON summary
  Metrics,       ///< response: live metrics-registry snapshot as JSON
  Shutdown,      ///< ask the daemon to exit its serve loop
};

/// Human-readable QueryKind name ("mi_pairs", ...); "?" for junk values.
const char* query_kind_name(QueryKind kind);

/// `estimator` value meaning "whatever the daemon was built with".
inline constexpr std::uint32_t kEstimatorDefault = 0xFFFFFFFFu;

/// Largest request payload the daemon reads. Serve requests are small (a
/// pair list, a gene set); a header announcing more is a confused or
/// hostile client, whose connection is closed unread.
inline constexpr std::size_t kMaxRequestBytes = std::size_t(1) << 26;

/// Fixed-size head of every request payload. `estimator` is a
/// tinge::EstimatorKind value (or kEstimatorDefault) and only matters for
/// MiPairs — the graph queries answer from the already-built network.
/// `k` is the per-kind limit (Neighborhood / TopEdges); `count` is the
/// number of uint32 payload items that follow.
struct ServeRequestHeader {
  std::uint32_t kind = 0;  ///< QueryKind
  std::uint32_t estimator = kEstimatorDefault;
  std::uint32_t k = 0;
  std::uint32_t count = 0;
};
static_assert(sizeof(ServeRequestHeader) == 16);
static_assert(std::is_trivially_copyable_v<ServeRequestHeader>);

/// Response status codes.
inline constexpr std::uint32_t kServeOk = 0;
inline constexpr std::uint32_t kServeError = 1;

/// Fixed-size head of every response payload. On kServeError the payload is
/// `count` bytes of UTF-8 error message regardless of kind.
struct ServeResponseHeader {
  std::uint32_t status = kServeOk;
  std::uint32_t kind = 0;  ///< echoes the request's QueryKind
  std::uint64_t count = 0;  ///< elements (doubles / edges / bytes) following
};
static_assert(sizeof(ServeResponseHeader) == 16);
static_assert(std::is_trivially_copyable_v<ServeResponseHeader>);

/// One network edge on the wire (graph-query responses). Weight is the MI
/// (nats) exactly as the batch pipeline stored it.
struct ServeEdge {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  float weight = 0.0f;
};
static_assert(sizeof(ServeEdge) == 12);
static_assert(std::is_trivially_copyable_v<ServeEdge>);

}  // namespace tinge::cluster
