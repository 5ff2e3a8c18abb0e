#include "cluster/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "cluster/framing.h"
#include "cluster/launcher.h"
#include "util/str.h"
#include "util/timer.h"

namespace tinge::cluster {

namespace {

// Internal mailbox tags for control frames; the public API requires
// tag >= 0, so these can never collide with algorithm traffic.
constexpr int kTagBarrierArrive = -1;
constexpr int kTagBarrierRelease = -2;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(
      strprintf("%s: %s", what.c_str(), std::strerror(errno)));
}

std::string port_file_path(const std::string& dir, int rank) {
  return strprintf("%s/rank%d.port", dir.c_str(), rank);
}

/// Atomic publish: write-to-temp + rename, so a polling peer never reads
/// a half-written port number. write_port_file verifies the write, so a
/// full disk fails here with the real cause instead of renaming an empty
/// file into place and letting peers spin until their connect timeout.
void publish_port(const std::string& dir, int rank, int port,
                  std::uint64_t nonce) {
  const std::string path = port_file_path(dir, rank);
  const std::string tmp = path + ".tmp";
  try {
    write_port_file(tmp, port, nonce);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("tcp rendezvous: rename " + path);
}

}  // namespace

void write_port_file(const std::string& path, int port, std::uint64_t nonce) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw_errno("tcp rendezvous: open " + path);
  const bool wrote =
      std::fprintf(file, "%d %llu\n", port,
                   static_cast<unsigned long long>(nonce)) > 0 &&
      std::fflush(file) == 0;
  const int saved_errno = errno;
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    errno = wrote ? errno : saved_errno;
    throw_errno("tcp rendezvous: write " + path);
  }
}

int read_port_file(const std::string& path, std::uint64_t expected_nonce) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return -1;
  int port = -1;
  unsigned long long nonce = 0;
  const int fields = std::fscanf(file, "%d %llu", &port, &nonce);
  std::fclose(file);
  if (fields < 1) return -1;
  // A file stamped by a different run (or an unstamped pre-nonce file when
  // a nonce is required) is debris from a crashed prior mesh — its port is
  // dead or, worse, now owned by an unrelated process. Never dial it.
  if (expected_nonce != 0 &&
      (fields < 2 || nonce != static_cast<unsigned long long>(expected_nonce)))
    return -1;
  return port;
}

TcpTransport::TcpTransport(const TransportOptions& options)
    : rank_(options.rank),
      size_(options.size),
      default_recv_timeout_(options.recv_timeout_seconds),
      peers_(static_cast<std::size_t>(options.size)) {
  TINGE_EXPECTS(size_ >= 1);
  TINGE_EXPECTS(rank_ >= 0 && rank_ < size_);
  // MSG_NOSIGNAL covers send(); this covers everything else (and any
  // platform where the flag is advisory). A client that vanishes mid-write
  // must surface as an error, never as a process-killing SIGPIPE.
  ignore_sigpipe();
  for (Peer& peer : peers_) peer.send_mutex = std::make_unique<std::mutex>();
  if (size_ > 1 && options.rendezvous_dir.empty())
    throw std::invalid_argument(
        "TcpTransport: multi-rank mesh needs options.rendezvous_dir");
  if (::pipe(wake_pipe_) != 0) throw_errno("tcp transport: pipe");
  try {
    if (size_ > 1) {
      rendezvous(options);
      receiver_ = std::thread([this] { receiver_loop(); });
    }
  } catch (...) {
    close_all();
    throw;
  }
}

void TcpTransport::rendezvous(const TransportOptions& options) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options.connect_timeout_seconds));

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("tcp rendezvous: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral: no fixed ports, no collisions
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    throw_errno("tcp rendezvous: bind");
  if (::listen(listen_fd_, size_) != 0) throw_errno("tcp rendezvous: listen");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0)
    throw_errno("tcp rendezvous: getsockname");
  publish_port(options.rendezvous_dir, rank_, ntohs(addr.sin_port),
               options.run_nonce);

  // Dial every lower rank, polling for its port file and retrying refused
  // connections with exponential backoff — a worker that starts seconds
  // late (cold process spawn, slow filesystem) still joins the mesh.
  for (int peer = 0; peer < rank_; ++peer) {
    double backoff_ms = 5.0;
    int fd = -1;
    while (fd < 0) {
      const int port =
          read_port_file(port_file_path(options.rendezvous_dir, peer),
                         options.run_nonce);
      if (port > 0) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("tcp rendezvous: socket");
        sockaddr_in peer_addr{};
        peer_addr.sin_family = AF_INET;
        peer_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        peer_addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&peer_addr),
                      sizeof(peer_addr)) != 0) {
          ::close(fd);
          fd = -1;
        }
      }
      if (fd < 0) {
        if (std::chrono::steady_clock::now() > deadline)
          throw std::runtime_error(strprintf(
              "tcp rendezvous: rank %d timed out dialing rank %d", rank_,
              peer));
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2.0, 200.0);
      }
    }
    set_no_delay(fd);
    write_frame(fd, kFrameHello, rank_, nullptr, 0);
    peers_[static_cast<std::size_t>(peer)].fd = fd;
    peers_[static_cast<std::size_t>(peer)].open = true;
  }

  // Accept one connection from every higher rank; its hello frame says
  // which one. A dialed-but-unfinished connection sits in the listen
  // backlog, so dial/accept ordering across ranks cannot deadlock.
  int expected = size_ - 1 - rank_;
  while (expected > 0) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0)
      throw std::runtime_error(strprintf(
          "tcp rendezvous: rank %d timed out waiting for %d peer(s)", rank_,
          expected));
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                            remaining.count(), 1000)));
    if (ready < 0 && errno != EINTR) throw_errno("tcp rendezvous: poll");
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw_errno("tcp rendezvous: accept");
    }
    FrameHeader hello{};
    if (!read_full(fd, &hello, sizeof(hello)) ||
        hello.magic != kFrameMagic || hello.kind != kFrameHello ||
        hello.tag <= rank_ || hello.tag >= size_) {
      ::close(fd);  // stray connection; not one of our peers
      continue;
    }
    set_no_delay(fd);
    Peer& peer = peers_[static_cast<std::size_t>(hello.tag)];
    peer.fd = fd;
    peer.open = true;
    --expected;
  }
  ::close(listen_fd_);  // mesh complete; nobody else may join
  listen_fd_ = -1;
}

void TcpTransport::receiver_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fd_rank.push_back(-1);
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      for (int peer = 0; peer < size_; ++peer) {
        if (peer == rank_) continue;
        const Peer& entry = peers_[static_cast<std::size_t>(peer)];
        if (!entry.open) continue;
        fds.push_back(pollfd{entry.fd, POLLIN, 0});
        fd_rank.push_back(peer);
      }
    }
    if (fds.size() == 1) break;  // every peer hung up; nothing to drain
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) {
      char drained[16];
      [[maybe_unused]] const ssize_t n =
          ::read(wake_pipe_[0], drained, sizeof(drained));
      continue;  // shutdown request; re-check stopping_
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const int src = fd_rank[i];
      FrameHeader header{};
      Message message;
      bool ok = read_full(fds[i].fd, &header, sizeof(header)) &&
                header.magic == kFrameMagic;
      if (ok) {
        message.src = src;
        switch (header.kind) {
          case kFrameData: message.tag = header.tag; break;
          case kFrameBarrierArrive: message.tag = kTagBarrierArrive; break;
          case kFrameBarrierRelease: message.tag = kTagBarrierRelease; break;
          default: ok = false; break;
        }
      }
      if (ok && header.bytes > 0) {
        message.payload.resize(header.bytes);
        ok = read_full(fds[i].fd, message.payload.data(), header.bytes);
      }
      {
        std::lock_guard<std::mutex> lock(mailbox_mutex_);
        if (ok) {
          mailbox_.push_back(std::move(message));
        } else {
          // Peer hung up (or sent garbage): stop polling it. The fd stays
          // open until our destructor so a concurrent send() cannot race a
          // reused descriptor.
          peers_[static_cast<std::size_t>(src)].open = false;
        }
      }
      mailbox_cv_.notify_all();
    }
  }
  // recv() waiters must observe the roster change and fail instead of
  // sleeping forever once nothing can arrive anymore.
  {
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    for (int peer = 0; peer < size_; ++peer)
      if (peer != rank_) peers_[static_cast<std::size_t>(peer)].open = false;
  }
  mailbox_cv_.notify_all();
}

void TcpTransport::send_frame(int dest, std::uint32_t frame_kind, int tag,
                              const void* data, std::size_t bytes) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    const Peer& peer = peers_[static_cast<std::size_t>(dest)];
    if (!peer.open)
      throw PeerFailureError(
          strprintf("tcp transport: rank %d sending to disconnected rank %d",
                    rank_, dest),
          rank_, dest);
    fd = peer.fd;
  }
  try {
    // One frame = one critical section: header and payload must hit the
    // stream back-to-back or a concurrent sender's bytes land mid-frame.
    std::lock_guard<std::mutex> send_lock(
        *peers_[static_cast<std::size_t>(dest)].send_mutex);
    write_frame(fd, frame_kind, tag, data, bytes);
  } catch (const SocketError& error) {
    // The peer vanished mid-conversation (EPIPE/ECONNRESET under
    // MSG_NOSIGNAL — without which this would have been a process-killing
    // SIGPIPE). Retire the connection so later sends and recv waiters fail
    // fast, and surface it in the transport's own failure taxonomy.
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      peers_[static_cast<std::size_t>(dest)].open = false;
    }
    mailbox_cv_.notify_all();
    throw PeerFailureError(
        strprintf("tcp transport: rank %d send to rank %d failed (%s)",
                  rank_, dest, error.what()),
        rank_, dest);
  }
}

void TcpTransport::send(int dest, const void* data, std::size_t bytes,
                        int tag) {
  TINGE_EXPECTS(dest >= 0 && dest < size_);
  TINGE_EXPECTS(tag >= 0);
  if (dest == rank_) {
    Message message;
    message.src = rank_;
    message.tag = tag;
    message.payload.resize(bytes);
    if (bytes > 0) std::memcpy(message.payload.data(), data, bytes);
    {
      std::lock_guard<std::mutex> lock(mailbox_mutex_);
      mailbox_.push_back(std::move(message));
      Peer& self = peers_[static_cast<std::size_t>(rank_)];
      self.traffic.bytes_sent += bytes;
      ++self.traffic.messages_sent;
    }
    mailbox_cv_.notify_all();
    return;
  }
  send_frame(dest, kFrameData, tag, data, bytes);
  std::lock_guard<std::mutex> lock(mailbox_mutex_);
  Peer& peer = peers_[static_cast<std::size_t>(dest)];
  peer.traffic.bytes_sent += bytes;
  ++peer.traffic.messages_sent;
}

std::vector<std::byte> TcpTransport::recv(int src, int tag) {
  return recv(src, tag, default_recv_timeout_);
}

std::vector<std::byte> TcpTransport::recv(int src, int tag,
                                          double timeout_seconds) {
  TINGE_EXPECTS(src >= 0 && src < size_);
  TINGE_EXPECTS(tag >= 0);
  return wait_for(src, tag, /*count=*/true, timeout_seconds);
}

std::vector<std::byte> TcpTransport::wait_for(int src, int tag, bool count,
                                              double timeout_seconds) {
  const bool deadline_armed = timeout_seconds > 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(deadline_armed ? timeout_seconds
                                                       : 0.0));
  std::unique_lock<std::mutex> lock(mailbox_mutex_);
  while (true) {
    // Match by (src, tag), FIFO within a match — identical semantics to
    // the in-process mailbox, interleaved tags included.
    for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
      if (it->src == src && it->tag == tag) {
        std::vector<std::byte> payload = std::move(it->payload);
        mailbox_.erase(it);
        if (count) {
          Peer& peer = peers_[static_cast<std::size_t>(src)];
          peer.traffic.bytes_received += payload.size();
          ++peer.traffic.messages_received;
        }
        return payload;
      }
    }
    if (src == rank_)
      throw std::runtime_error(
          "tcp transport: self-recv with no matching queued self-message "
          "would deadlock");
    if (!peers_[static_cast<std::size_t>(src)].open)
      throw PeerFailureError(
          strprintf("tcp transport: rank %d's connection to rank %d closed "
                    "with no message matching tag %d",
                    rank_, src, tag),
          rank_, src);
    if (!deadline_armed) {
      mailbox_cv_.wait(lock);
    } else if (mailbox_cv_.wait_until(lock, deadline) ==
               std::cv_status::timeout) {
      throw TimeoutError(
          strprintf("tcp transport: rank %d timed out after %.1fs waiting "
                    "for tag %d from rank %d (peer alive but silent)",
                    rank_, timeout_seconds, tag, src),
          rank_, src);
    }
  }
}

std::optional<std::vector<std::byte>> TcpTransport::try_recv(int src,
                                                             int tag) {
  TINGE_EXPECTS(src >= 0 && src < size_);
  TINGE_EXPECTS(tag >= 0);
  std::lock_guard<std::mutex> lock(mailbox_mutex_);
  for (auto it = mailbox_.begin(); it != mailbox_.end(); ++it) {
    if (it->src == src && it->tag == tag) {
      std::vector<std::byte> payload = std::move(it->payload);
      mailbox_.erase(it);
      Peer& peer = peers_[static_cast<std::size_t>(src)];
      peer.traffic.bytes_received += payload.size();
      ++peer.traffic.messages_received;
      return payload;
    }
  }
  // Match first, then liveness — a closed peer's already-queued messages
  // drain normally; an empty probe on a closed connection can never
  // complete, so surface the failure now instead of on some later recv.
  if (src != rank_ && !peers_[static_cast<std::size_t>(src)].open)
    throw PeerFailureError(
        strprintf("tcp transport: rank %d's connection to rank %d closed "
                  "with no message matching tag %d",
                  rank_, src, tag),
        rank_, src);
  return std::nullopt;
}

void TcpTransport::barrier() {
  if (size_ == 1) return;
  // Flat gather-to-0 / release-from-0 over control frames. FIFO matching
  // per (src, tag) makes back-to-back barriers reusable without
  // generation counters. The default recv deadline applies to each wait,
  // so a rank that never arrives fails the barrier instead of hanging it.
  if (rank_ == 0) {
    for (int src = 1; src < size_; ++src)
      wait_for(src, kTagBarrierArrive, /*count=*/false,
               default_recv_timeout_);
    for (int dest = 1; dest < size_; ++dest)
      send_frame(dest, kFrameBarrierRelease, 0, nullptr, 0);
  } else {
    send_frame(0, kFrameBarrierArrive, 0, nullptr, 0);
    wait_for(0, kTagBarrierRelease, /*count=*/false, default_recv_timeout_);
  }
}

std::vector<PeerTraffic> TcpTransport::peer_traffic() const {
  std::lock_guard<std::mutex> lock(mailbox_mutex_);
  std::vector<PeerTraffic> traffic;
  traffic.reserve(peers_.size());
  for (const Peer& peer : peers_) traffic.push_back(peer.traffic);
  return traffic;
}

void TcpTransport::close_all() {
  for (Peer& peer : peers_) {
    if (peer.fd >= 0) {
      ::close(peer.fd);
      peer.fd = -1;
    }
    peer.open = false;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int end = 0; end < 2; ++end) {
    if (wake_pipe_[end] >= 0) {
      ::close(wake_pipe_[end]);
      wake_pipe_[end] = -1;
    }
  }
}

TcpTransport::~TcpTransport() {
  stopping_.store(true, std::memory_order_release);
  {
    // Unblock a receiver stuck mid-frame: shutdown (not close — the fd
    // must stay valid under the receiver) makes its reads return.
    std::lock_guard<std::mutex> lock(mailbox_mutex_);
    for (int peer = 0; peer < size_; ++peer) {
      if (peer == rank_) continue;
      const Peer& entry = peers_[static_cast<std::size_t>(peer)];
      if (entry.fd >= 0) ::shutdown(entry.fd, SHUT_RDWR);
    }
  }
  if (wake_pipe_[1] >= 0) {
    const char wake = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &wake, 1);
  }
  if (receiver_.joinable()) receiver_.join();
  close_all();
}

namespace {

/// N rank-threads in this process, each with a real TcpTransport endpoint.
class LoopbackTcpCluster final : public Cluster {
 public:
  LoopbackTcpCluster(int size, TransportOptions options)
      : size_(size), options_(std::move(options)) {}

  int size() const override { return size_; }
  TransportKind kind() const override { return TransportKind::Tcp; }

  void run(const std::function<void(Comm&)>& body) override {
    const bool own_dir = options_.rendezvous_dir.empty();
    const std::string dir =
        own_dir ? make_rendezvous_dir() : options_.rendezvous_dir;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(size_));
    std::mutex state_mutex;
    std::exception_ptr first_error;
    std::vector<PeerTraffic> traffic(static_cast<std::size_t>(size_));
    const Stopwatch watch;
    for (int r = 0; r < size_; ++r) {
      threads.emplace_back([&, r, dir] {
        try {
          TransportOptions options = options_;
          options.rank = r;
          options.size = size_;
          options.rendezvous_dir = dir;
          TcpTransport transport(options);
          Comm comm(transport);
          try {
            body(comm);
          } catch (...) {
            std::lock_guard<std::mutex> lock(state_mutex);
            if (!first_error) first_error = std::current_exception();
          }
          // Snapshot before the endpoint closes; destruction then unblocks
          // any peer still waiting on this rank (their recv throws).
          PeerTraffic total;
          for (const PeerTraffic& peer : transport.peer_traffic())
            total += peer;
          std::lock_guard<std::mutex> lock(state_mutex);
          traffic[static_cast<std::size_t>(r)] = total;
        } catch (...) {
          std::lock_guard<std::mutex> lock(state_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    if (own_dir) remove_rendezvous_dir(dir);

    std::uint64_t run_bytes = 0, run_messages = 0;
    for (const PeerTraffic& rank : traffic) {
      run_bytes += rank.bytes_sent;
      run_messages += rank.messages_sent;
    }
    bytes_transferred_ += run_bytes;
    messages_sent_ += run_messages;
    rank_traffic_ = std::move(traffic);
    publish_cluster_run_metrics(TransportKind::Tcp, size_, run_bytes,
                                run_messages, watch.seconds());
    if (first_error) std::rethrow_exception(first_error);
  }

  std::uint64_t bytes_transferred() const override {
    return bytes_transferred_;
  }
  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::vector<PeerTraffic> rank_traffic() const override {
    return rank_traffic_;
  }

 private:
  int size_;
  TransportOptions options_;
  std::uint64_t bytes_transferred_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::vector<PeerTraffic> rank_traffic_;
};

}  // namespace

std::unique_ptr<Cluster> make_loopback_tcp_cluster(
    int size, const TransportOptions& options) {
  TINGE_EXPECTS(size >= 1);
  return std::make_unique<LoopbackTcpCluster>(size, options);
}

}  // namespace tinge::cluster
