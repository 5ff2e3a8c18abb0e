// The framed stream protocol shared by every socket endpoint in the
// system: the rank-to-rank TCP transport (tcp_transport.h) and the serve
// daemon's client connections (serve_server.h) speak the same wire format,
// so the framing — header layout, the no-delay socket option, the gathered
// frame write, the full-read loop and the SIGPIPE discipline — lives here
// exactly once.
//
// A frame is a fixed 24-byte header followed by `bytes` payload bytes:
//
//   u32 magic "TNGX" | u32 kind | i32 tag | u32 reserved | u64 bytes
//
// Every stream socket is no-delay and every frame leaves in one sendmsg():
// each frame is a complete message, so Nagle has nothing useful to
// coalesce, and a frame split over two writes would wait for the peer's
// delayed ACK (40 ms minimum on Linux) between them.
//
// Writes use MSG_NOSIGNAL so a peer that disconnected mid-conversation
// surfaces as a SocketError (errno EPIPE/ECONNRESET) instead of a SIGPIPE
// killing the whole process — the transport maps that onto its
// PeerFailureError taxonomy, the serve daemon onto a dropped client.
// ignore_sigpipe() additionally masks the signal process-wide once, as a
// belt-and-braces guard for platforms or code paths without MSG_NOSIGNAL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tinge::cluster {

inline constexpr std::uint32_t kFrameMagic = 0x544E4758;  // "TNGX"

// Frame kinds. 0..15 are reserved for the rank mesh; the serve protocol
// uses 16+ (separate connections, but disjoint numbering keeps a stray
// cross-dial diagnosable).
inline constexpr std::uint32_t kFrameData = 0;
inline constexpr std::uint32_t kFrameBarrierArrive = 1;
inline constexpr std::uint32_t kFrameBarrierRelease = 2;
inline constexpr std::uint32_t kFrameHello = 3;
inline constexpr std::uint32_t kFrameServeRequest = 16;
inline constexpr std::uint32_t kFrameServeResponse = 17;
inline constexpr std::uint32_t kFrameServeEvent = 18;

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint32_t kind = kFrameData;
  std::int32_t tag = 0;
  std::uint32_t reserved = 0;
  std::uint64_t bytes = 0;
};
static_assert(sizeof(FrameHeader) == 24);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

/// A socket write failed. Carries the errno so callers can distinguish a
/// vanished peer (peer_gone(): EPIPE, ECONNRESET — the expected way a
/// client or rank disappears) from a genuinely broken socket.
class SocketError : public std::runtime_error {
 public:
  SocketError(const std::string& what, int errno_value);

  int code() const { return errno_; }
  bool peer_gone() const;

 private:
  int errno_;
};

/// Ignores SIGPIPE process-wide, exactly once. Every socket endpoint calls
/// this at construction: MSG_NOSIGNAL already covers send(), but a signal
/// must never depend on every future call site remembering the flag.
void ignore_sigpipe();

/// Sets TCP_NODELAY on a dialed or accepted stream socket. Best effort: a
/// socket that takes no TCP options (AF_UNIX) keeps its defaults.
void set_no_delay(int fd);

/// Reads exactly `bytes`; false on EOF or error (a torn frame counts as a
/// closed connection — the peer is gone mid-message).
bool read_full(int fd, void* data, std::size_t bytes);

/// Writes one whole frame: header and optional payload gathered into one
/// sendmsg(MSG_NOSIGNAL), resumed after a short count and retried on EINTR.
/// Throws SocketError on failure (a disconnected peer is EPIPE, not a
/// process kill). The caller owns any per-connection serialization
/// (concurrent writers to one fd must hold the same lock or frames
/// interleave mid-stream).
void write_frame(int fd, std::uint32_t kind, std::int32_t tag,
                 const void* payload, std::size_t bytes);

/// Reads one whole frame into header/payload. Returns false on EOF, a torn
/// frame, a bad magic, or a payload above `max_payload_bytes` (a garbage
/// header must not allocate gigabytes) — all of which mean "stop talking
/// to this connection".
bool read_frame(int fd, FrameHeader& header, std::vector<std::byte>& payload,
                std::size_t max_payload_bytes = std::size_t(1) << 32);

}  // namespace tinge::cluster
