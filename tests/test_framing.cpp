// The frame codec every socket endpoint shares (cluster/framing.h), over a
// local stream socketpair: a frame arrives whole however the kernel splits
// it, a vanished reader is a SocketError rather than a SIGPIPE, and a
// garbage header is refused before any payload is allocated.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "cluster/framing.h"
#include "stats/rng.h"

namespace tinge {
namespace {

using cluster::FrameHeader;
using cluster::read_frame;
using cluster::read_full;
using cluster::SocketError;
using cluster::write_frame;

/// Both ends of an AF_UNIX stream socketpair, closed on scope exit.
struct SocketPair {
  int writer = -1;
  int reader = -1;

  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      writer = fds[0];
      reader = fds[1];
    }
  }
  ~SocketPair() {
    close_reader();
    if (writer >= 0) ::close(writer);
  }
  void close_reader() {
    if (reader >= 0) ::close(reader);
    reader = -1;
  }
};

std::vector<std::byte> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::byte> bytes(n);
  for (std::byte& b : bytes) b = static_cast<std::byte>(rng.below(256));
  return bytes;
}

/// Reads one frame header, then its payload in `chunk`-byte reads.
struct Drained {
  bool header_ok = false;
  FrameHeader header;
  std::vector<std::byte> payload;
};

Drained drain_in_small_reads(int fd, std::size_t chunk) {
  Drained out;
  out.header_ok = read_full(fd, &out.header, sizeof(out.header));
  if (!out.header_ok) return out;
  out.payload.resize(out.header.bytes);
  for (std::size_t at = 0; at < out.payload.size();) {
    const std::size_t want = std::min(chunk, out.payload.size() - at);
    const ssize_t got = ::recv(fd, out.payload.data() + at, want, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      out.payload.resize(at);
      return out;
    }
    at += static_cast<std::size_t>(got);
  }
  return out;
}

/// Writes one frame while a reader thread drains it in `chunk`-byte reads.
/// Afterwards neither side can wait forever on a frame that went out short
/// or long: the writer's shutdown gives a waiting reader EOF, and the
/// reader's close gives a writer with bytes left over EPIPE.
Drained write_while_draining(SocketPair& pair, std::uint32_t kind,
                             std::int32_t tag,
                             const std::vector<std::byte>& payload,
                             std::size_t chunk) {
  Drained drained;
  std::thread reader([&] {
    drained = drain_in_small_reads(pair.reader, chunk);
    pair.close_reader();
  });
  EXPECT_NO_THROW(
      write_frame(pair.writer, kind, tag, payload.data(), payload.size()));
  ::shutdown(pair.writer, SHUT_WR);
  reader.join();
  return drained;
}

int send_buffer_bytes(int fd) {
  int size = 0;
  socklen_t length = sizeof(size);
  ::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, &length);
  return size;
}

TEST(Framing, FrameLargerThanTheSendBufferArrivesWhole) {
  SocketPair pair;
  ASSERT_GE(pair.writer, 0);
  const std::size_t bytes = std::size_t(8) << 20;
  ASSERT_GT(bytes,
            4 * static_cast<std::size_t>(send_buffer_bytes(pair.writer)));
  const std::vector<std::byte> payload = seeded_bytes(bytes, 17);

  const Drained drained =
      write_while_draining(pair, cluster::kFrameData, 12345, payload, 4093);
  ASSERT_TRUE(drained.header_ok);
  EXPECT_EQ(drained.header.magic, cluster::kFrameMagic);
  EXPECT_EQ(drained.header.kind, cluster::kFrameData);
  EXPECT_EQ(drained.header.tag, 12345);
  EXPECT_EQ(drained.header.reserved, 0u);
  EXPECT_EQ(drained.header.bytes, bytes);
  ASSERT_EQ(drained.payload.size(), payload.size());
  EXPECT_TRUE(drained.payload == payload);
}

std::atomic<int> g_interruptions{0};
void count_interruption(int) { g_interruptions.fetch_add(1); }

// A signal that lands while sendmsg() waits for buffer space returns a short
// count (or EINTR when nothing went out yet); write_frame must resume at the
// first unsent byte of whichever part it was in.
TEST(Framing, SignalInterruptedWriteResumesAtTheFirstUnsentByte) {
  struct sigaction action {};
  action.sa_handler = count_interruption;  // no SA_RESTART: sendmsg returns
  sigemptyset(&action.sa_mask);
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
  g_interruptions.store(0);

  SocketPair pair;
  ASSERT_GE(pair.writer, 0);
  const std::vector<std::byte> payload = seeded_bytes(std::size_t(4) << 20, 5);
  const pthread_t writer = ::pthread_self();
  std::atomic<bool> written{false};
  std::thread pester([&] {
    const timespec pause{0, 200'000};
    while (!written.load()) {
      ::pthread_kill(writer, SIGUSR1);
      ::nanosleep(&pause, nullptr);
    }
  });
  const Drained drained = write_while_draining(
      pair, cluster::kFrameServeResponse, -7, payload, 1021);
  written.store(true);
  pester.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_GT(g_interruptions.load(), 0);
  ASSERT_TRUE(drained.header_ok);
  EXPECT_EQ(drained.header.kind, cluster::kFrameServeResponse);
  EXPECT_EQ(drained.header.tag, -7);
  EXPECT_EQ(drained.header.bytes, payload.size());
  EXPECT_TRUE(drained.payload == payload);
}

TEST(Framing, ZeroByteFrameKeepsItsKindAndTag) {
  SocketPair pair;
  ASSERT_GE(pair.writer, 0);
  write_frame(pair.writer, cluster::kFrameBarrierRelease, -2, nullptr, 0);
  write_frame(pair.writer, cluster::kFrameHello, 3, nullptr, 0);

  FrameHeader header;
  std::vector<std::byte> payload(5);
  ASSERT_TRUE(read_frame(pair.reader, header, payload));
  EXPECT_EQ(header.kind, cluster::kFrameBarrierRelease);
  EXPECT_EQ(header.tag, -2);
  EXPECT_EQ(header.bytes, 0u);
  EXPECT_TRUE(payload.empty());
  // The next frame starts right after the 24 header bytes.
  ASSERT_TRUE(read_frame(pair.reader, header, payload));
  EXPECT_EQ(header.kind, cluster::kFrameHello);
  EXPECT_EQ(header.tag, 3);
}

TEST(Framing, WriteToAClosedPeerThrowsPeerGoneWithoutSigpipe) {
  SocketPair pair;
  ASSERT_GE(pair.writer, 0);
  pair.close_reader();

  // Block SIGPIPE on this thread: Linux keeps a blocked signal pending even
  // when its disposition is "ignore", so a raised SIGPIPE shows up below.
  sigset_t pipe_only, saved;
  sigemptyset(&pipe_only);
  sigaddset(&pipe_only, SIGPIPE);
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &pipe_only, &saved), 0);

  const std::vector<std::byte> payload(64, std::byte{1});
  bool threw = false;
  try {
    write_frame(pair.writer, cluster::kFrameData, 0, payload.data(),
                payload.size());
  } catch (const SocketError& error) {
    threw = true;
    EXPECT_TRUE(error.peer_gone()) << error.what();
  }
  sigset_t pending;
  sigemptyset(&pending);
  ::sigpending(&pending);
  const bool raised = sigismember(&pending, SIGPIPE) == 1;
  if (raised) {
    const timespec now{0, 0};
    ::sigtimedwait(&pipe_only, nullptr, &now);  // consume it before unblock
  }
  ::pthread_sigmask(SIG_SETMASK, &saved, nullptr);

  EXPECT_TRUE(threw);
  EXPECT_FALSE(raised) << "write_frame raised SIGPIPE";
}

void send_raw_header(int fd, const FrameHeader& header) {
  ASSERT_EQ(::send(fd, &header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
}

TEST(Framing, ReadFrameRefusesGarbageHeadersWithoutAllocating) {
  SocketPair pair;
  ASSERT_GE(pair.writer, 0);
  FrameHeader header;
  std::vector<std::byte> payload;

  FrameHeader wrong_magic;
  wrong_magic.magic = cluster::kFrameMagic ^ 1u;  // one bit off
  wrong_magic.bytes = 16;
  send_raw_header(pair.writer, wrong_magic);
  EXPECT_FALSE(read_frame(pair.reader, header, payload));
  EXPECT_EQ(payload.capacity(), 0u);

  const std::size_t cap = 1024;
  FrameHeader oversized;
  oversized.bytes = std::uint64_t(1) << 40;  // would be a terabyte
  send_raw_header(pair.writer, oversized);
  EXPECT_FALSE(read_frame(pair.reader, header, payload, cap));
  EXPECT_EQ(payload.capacity(), 0u);

  FrameHeader one_over;
  one_over.bytes = cap + 1;
  send_raw_header(pair.writer, one_over);
  EXPECT_FALSE(read_frame(pair.reader, header, payload, cap));
  EXPECT_EQ(payload.capacity(), 0u);

  // At the cap the frame is read.
  const std::vector<std::byte> exact = seeded_bytes(cap, 3);
  write_frame(pair.writer, cluster::kFrameData, 1, exact.data(), exact.size());
  ASSERT_TRUE(read_frame(pair.reader, header, payload, cap));
  EXPECT_TRUE(payload == exact);
}

}  // namespace
}  // namespace tinge
