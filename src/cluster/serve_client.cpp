#include "cluster/serve_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <utility>

#include "cluster/framing.h"
#include "cluster/tcp_transport.h"
#include "obs/json.h"
#include "util/str.h"

namespace tinge::cluster {

ServeClient::ServeClient(const std::string& host, int port) {
  ignore_sigpipe();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw std::runtime_error(strprintf("serve client: socket failed: %s",
                                       std::strerror(errno)));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error(
        strprintf("serve client: bad host address '%s'", host.c_str()));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd_);
    throw std::runtime_error(
        strprintf("serve client: connect to %s:%d failed: %s", host.c_str(),
                  port, std::strerror(saved)));
  }
  set_no_delay(fd_);
}

ServeClient ServeClient::from_port_file(const std::string& path,
                                        std::uint64_t expected_nonce) {
  const int port = read_port_file(path, expected_nonce);
  if (port <= 0)
    throw std::runtime_error(strprintf(
        "serve client: no usable port file at %s", path.c_str()));
  return ServeClient("127.0.0.1", port);
}

ServeClient::~ServeClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), next_tag_(other.next_tag_) {
  other.fd_ = -1;
}

ServeClient::Reply ServeClient::roundtrip(
    QueryKind kind, std::uint32_t estimator, std::uint32_t k,
    std::span<const std::uint32_t> items,
    const std::function<void(const std::string&)>& on_event) {
  const std::int32_t tag = next_tag_++;
  ServeRequestHeader request;
  request.kind = static_cast<std::uint32_t>(kind);
  request.estimator = estimator;
  request.k = k;
  request.count = static_cast<std::uint32_t>(items.size());
  std::vector<std::byte> frame(sizeof(request) +
                               items.size() * sizeof(std::uint32_t));
  std::memcpy(frame.data(), &request, sizeof(request));
  if (!items.empty())
    std::memcpy(frame.data() + sizeof(request), items.data(),
                items.size() * sizeof(std::uint32_t));
  write_frame(fd_, kFrameServeRequest, tag, frame.data(), frame.size());

  FrameHeader header;
  std::vector<std::byte> payload;
  for (;;) {
    if (!read_frame(fd_, header, payload))
      throw std::runtime_error(
          "serve client: connection closed while awaiting response");
    if (header.tag != tag) continue;  // stale event from a prior request
    if (header.kind == kFrameServeEvent) {
      if (on_event)
        on_event(std::string(reinterpret_cast<const char*>(payload.data()),
                             payload.size()));
      continue;
    }
    if (header.kind != kFrameServeResponse ||
        payload.size() < sizeof(ServeResponseHeader))
      throw std::runtime_error("serve client: malformed response frame");
    Reply reply;
    std::memcpy(&reply.header, payload.data(), sizeof(reply.header));
    reply.body.assign(payload.begin() + sizeof(reply.header), payload.end());
    if (reply.header.status != kServeOk)
      throw std::runtime_error(strprintf(
          "serve error: %s",
          std::string(reinterpret_cast<const char*>(reply.body.data()),
                      reply.body.size())
              .c_str()));
    return reply;
  }
}

void ServeClient::ping() { roundtrip(QueryKind::Ping, kEstimatorDefault, 0, {}); }

std::vector<double> ServeClient::mi_pairs(std::span<const GenePair> pairs) {
  return mi_pairs(pairs, static_cast<EstimatorKind>(kEstimatorDefault));
}

std::vector<double> ServeClient::mi_pairs(std::span<const GenePair> pairs,
                                          EstimatorKind estimator) {
  std::vector<std::uint32_t> items;
  items.reserve(pairs.size() * 2);
  for (const GenePair& pair : pairs) {
    items.push_back(pair.a);
    items.push_back(pair.b);
  }
  const Reply reply = roundtrip(QueryKind::MiPairs,
                                static_cast<std::uint32_t>(estimator), 0,
                                items);
  std::vector<double> values(reply.header.count);
  if (reply.body.size() < values.size() * sizeof(double))
    throw std::runtime_error("serve client: short mi_pairs response");
  std::memcpy(values.data(), reply.body.data(),
              values.size() * sizeof(double));
  return values;
}

std::vector<ServeEdge> ServeClient::edge_query(
    QueryKind kind, std::uint32_t k, std::span<const std::uint32_t> items) {
  const Reply reply = roundtrip(kind, kEstimatorDefault, k, items);
  std::vector<ServeEdge> edges(reply.header.count);
  if (reply.body.size() < edges.size() * sizeof(ServeEdge))
    throw std::runtime_error("serve client: short edge response");
  if (!edges.empty())
    std::memcpy(edges.data(), reply.body.data(),
                edges.size() * sizeof(ServeEdge));
  return edges;
}

std::vector<ServeEdge> ServeClient::neighborhood(std::uint32_t gene,
                                                 std::uint32_t k) {
  const std::uint32_t items[1] = {gene};
  return edge_query(QueryKind::Neighborhood, k, items);
}

std::vector<ServeEdge> ServeClient::top_edges(std::uint32_t k) {
  return edge_query(QueryKind::TopEdges, k, {});
}

std::vector<ServeEdge> ServeClient::subgraph(
    std::span<const std::uint32_t> genes) {
  return edge_query(QueryKind::Subgraph, 0, genes);
}

std::string ServeClient::metrics_json() {
  const Reply reply = roundtrip(QueryKind::Metrics, kEstimatorDefault, 0, {});
  return std::string(reinterpret_cast<const char*>(reply.body.data()),
                     reply.body.size());
}

SweepJobResult ServeClient::sweep_job(
    const std::function<void(const std::string&)>& on_event) {
  const Reply reply =
      roundtrip(QueryKind::SweepJob, kEstimatorDefault, 0, {}, on_event);
  const obs::Json summary = obs::Json::parse(
      std::string_view(reinterpret_cast<const char*>(reply.body.data()),
                       reply.body.size()));
  SweepJobResult result;
  result.pairs = static_cast<std::size_t>(summary.at("pairs").as_int());
  result.edges = static_cast<std::size_t>(summary.at("edges").as_int());
  result.tiles = static_cast<std::size_t>(summary.at("tiles").as_int());
  result.tiles_resumed =
      static_cast<std::size_t>(summary.at("tiles_resumed").as_int());
  result.seconds = summary.at("seconds").as_double();
  result.kernel = summary.at("kernel").as_string();
  result.estimator = summary.at("estimator").as_string();
  return result;
}

void ServeClient::shutdown_server() {
  roundtrip(QueryKind::Shutdown, kEstimatorDefault, 0, {});
}

}  // namespace tinge::cluster
