#include "cluster/framing.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

namespace tinge::cluster {

SocketError::SocketError(const std::string& what, int errno_value)
    : std::runtime_error(what + ": " + std::strerror(errno_value)),
      errno_(errno_value) {}

bool SocketError::peer_gone() const {
  return errno_ == EPIPE || errno_ == ECONNRESET;
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void set_no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool read_full(int fd, void* data, std::size_t bytes) {
  char* cursor = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t got = ::recv(fd, cursor, bytes, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF: peer closed, possibly mid-frame.
    cursor += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

void write_frame(int fd, std::uint32_t kind, std::int32_t tag,
                 const void* payload, std::size_t bytes) {
  FrameHeader header;
  header.kind = kind;
  header.tag = tag;
  header.bytes = bytes;
  iovec parts[2] = {{&header, sizeof(header)},
                    {const_cast<void*>(payload), bytes}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = bytes > 0 ? 2 : 1;
  while (message.msg_iovlen > 0) {
    const ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw SocketError("send failed", errno);
    }
    // A short count (a signal, a full send buffer) resumes at the first
    // unsent byte, which may lie in either part.
    auto done = static_cast<std::size_t>(sent);
    while (message.msg_iovlen > 0 && done >= message.msg_iov->iov_len) {
      done -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      message.msg_iov->iov_base =
          static_cast<char*>(message.msg_iov->iov_base) + done;
      message.msg_iov->iov_len -= done;
    }
  }
}

bool read_frame(int fd, FrameHeader& header, std::vector<std::byte>& payload,
                std::size_t max_payload_bytes) {
  if (!read_full(fd, &header, sizeof(header))) return false;
  if (header.magic != kFrameMagic) return false;
  if (header.bytes > max_payload_bytes) return false;
  payload.resize(header.bytes);
  if (header.bytes > 0 && !read_full(fd, payload.data(), payload.size())) {
    return false;
  }
  return true;
}

}  // namespace tinge::cluster
