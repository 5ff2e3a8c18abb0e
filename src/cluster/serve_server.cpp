#include "cluster/serve_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <future>
#include <unordered_set>
#include <utility>

#include "cluster/framing.h"
#include "cluster/tcp_transport.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "parallel/topology.h"
#include "preprocess/filter.h"
#include "util/contracts.h"
#include "util/str.h"
#include "util/timer.h"

namespace tinge::cluster {

namespace {

/// Serve requests are small (a pair list, a gene set); anything bigger is a
/// confused or hostile client, not a query.
constexpr std::size_t kMaxRequestBytes = std::size_t(1) << 26;

void throw_socket_errno(const char* what) {
  throw std::runtime_error(strprintf("serve: %s failed: %s", what,
                                     std::strerror(errno)));
}

}  // namespace

// ---------------------------------------------------------------------------
// ServeState

ServeState::ServeState(ExpressionMatrix&& expression,
                       const TingeConfig& config, const ServeOptions& options)
    : config_(config),
      working_(std::move(expression)),
      cache_(options.cache_bytes),
      dataset_id_(options.dataset_id) {
  if (options.threads > 0) config_.threads = options.threads;
  config_.validate();

  // The build below runs the single-process pipeline stages in exactly the
  // order sharded_build's p == 1 path does — impute, filter, rank,
  // statistic, null, threshold, sweep, DPI — so everything the daemon serves
  // is bit-identical to what the batch pipeline would have written.
  impute_missing_with_median(working_);
  {
    FilterResult filtered = filter_genes(working_, config_.filter);
    TINGE_EXPECTS(filtered.matrix.n_genes() >= 2);
    working_ = std::move(filtered.matrix);
  }
  const int pool_threads = config_.threads > 0
                               ? config_.threads
                               : par::detect_host_topology().total_threads();
  pool_ = std::make_unique<par::ThreadPool>(pool_threads);
  ranked_ = RankedMatrix(working_, *pool_, config_.threads);

  EstimatorSlot primary;
  primary.statistic = make_pair_statistic(config_, ranked_, &working_);

  null_ = std::make_shared<EmpiricalDistribution>(build_null_distribution(
      *primary.statistic, config_.permutations, config_.seed, *pool_,
      config_.threads));
  threshold_ = threshold_for_alpha(*null_, config_.alpha);
  obs::MetricsRegistry::global().gauge("null.threshold").set(threshold_);

  const MiEngine engine(*primary.statistic, ranked_);
  if (config_.checkpoint_path.empty()) {
    network_ =
        engine.compute_network(threshold_, config_, *pool_, &build_stats_);
  } else {
    // keep_checkpoint: the completed journal stays behind, so the next
    // daemon start replays it (build_stats_.tiles_resumed == tiles) instead
    // of recomputing the triangle.
    network_ = engine.compute_network_checkpointed(
        threshold_, config_, *pool_, config_.checkpoint_path, &build_stats_,
        {}, /*keep_checkpoint=*/true);
  }
  if (config_.apply_dpi)
    network_ = apply_dpi(network_, config_.dpi_tolerance, &dpi_stats_,
                         *pool_, config_.threads);
  adjacency_ = std::make_unique<Adjacency>(network_);

  primary.engine = std::make_unique<MiQueryEngine>(
      *primary.statistic, ranked_, config_, pool_.get(), cache_, dataset_id_);
  estimators_.emplace(config_.estimator, std::move(primary));
}

MiQueryEngine& ServeState::query_engine(EstimatorKind estimator) {
  std::lock_guard<std::mutex> lock(estimators_mutex_);
  auto it = estimators_.find(estimator);
  if (it == estimators_.end()) {
    TingeConfig config = config_;
    config.estimator = estimator;
    EstimatorSlot slot;
    slot.statistic = make_pair_statistic(config, ranked_, &working_);
    slot.engine = std::make_unique<MiQueryEngine>(
        *slot.statistic, ranked_, config, pool_.get(), cache_, dataset_id_);
    it = estimators_.emplace(estimator, std::move(slot)).first;
  }
  return *it->second.engine;
}

EngineStats ServeState::run_sweep_job(
    const std::function<void(std::size_t, std::size_t)>& progress) {
  std::lock_guard<std::mutex> job_lock(sweep_job_mutex_);
  const PairStatistic* statistic = nullptr;
  {
    std::lock_guard<std::mutex> lock(estimators_mutex_);
    statistic = estimators_.at(config_.estimator).statistic.get();
  }
  const MiEngine engine(*statistic, ranked_);
  EngineStats stats;
  if (config_.checkpoint_path.empty()) {
    // The plain engine has no per-tile callback; report the endpoints so a
    // client still sees the job start and finish.
    if (progress) progress(0, 1);
    engine.compute_network(threshold_, config_, *pool_, &stats);
    if (progress) progress(1, 1);
  } else {
    engine.compute_network_checkpointed(threshold_, config_, *pool_,
                                        config_.checkpoint_path, &stats,
                                        progress, /*keep_checkpoint=*/true);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// PairBatcher

struct PairBatcher::Pending {
  EstimatorKind estimator;
  std::vector<GenePair> pairs;
  std::promise<std::vector<double>> promise;
};

PairBatcher::PairBatcher(ServeState& state, double flush_deadline_ms)
    : state_(state),
      flush_deadline_(std::chrono::microseconds(
          static_cast<long long>(std::max(0.0, flush_deadline_ms) * 1e3))),
      thread_([this] { worker(); }) {}

PairBatcher::~PairBatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queued_.notify_all();
  thread_.join();
}

std::vector<double> PairBatcher::query(EstimatorKind estimator,
                                       std::vector<GenePair> pairs) {
  auto pending = std::make_shared<Pending>();
  pending->estimator = estimator;
  pending->pairs = std::move(pairs);
  std::future<std::vector<double>> future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_)
      throw std::runtime_error("serve: pair batcher is shutting down");
    queue_.push_back(std::move(pending));
  }
  queued_.notify_all();
  return future.get();
}

void PairBatcher::worker() {
  for (;;) {
    std::vector<std::shared_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queued_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      // The batch window: the first queued query opens it, everything that
      // arrives before the flush deadline rides along.
      if (flush_deadline_.count() > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + flush_deadline_;
        queued_.wait_until(lock, deadline, [&] { return stop_; });
      }
      batch.assign(queue_.begin(), queue_.end());
      queue_.clear();
    }
    if (batch.empty()) continue;
    batches_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::global().counter("serve.batcher.flushes").add(1);

    // Group by estimator: one planner invocation per estimator answers the
    // whole group, so pairs from different clients share tiles and sweeps.
    std::map<EstimatorKind, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i)
      groups[batch[i]->estimator].push_back(i);
    for (const auto& [estimator, members] : groups) {
      std::vector<GenePair> pairs;
      for (const std::size_t i : members)
        pairs.insert(pairs.end(), batch[i]->pairs.begin(),
                     batch[i]->pairs.end());
      try {
        MiQueryEngine& engine = state_.query_engine(estimator);
        const std::vector<double> values = engine.pair_values(pairs);
        std::size_t cursor = 0;
        for (const std::size_t i : members) {
          const std::size_t n = batch[i]->pairs.size();
          batch[i]->promise.set_value(std::vector<double>(
              values.begin() + cursor, values.begin() + cursor + n));
          cursor += n;
        }
      } catch (...) {
        // One bad pair poisons its whole estimator group (the planner
        // validates before sweeping, so nothing was half-computed); each
        // member sees the original exception.
        for (const std::size_t i : members)
          batch[i]->promise.set_exception(std::current_exception());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ServeServer

ServeServer::ServeServer(ServeState& state, const ServeOptions& options)
    : state_(state),
      options_(options),
      batcher_(state, options.flush_deadline_ms) {
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_socket_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0) {
    ::close(listen_fd_);
    throw_socket_errno("bind");
  }
  if (::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw_socket_errno("listen");
  }
  socklen_t length = sizeof(address);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                    &length) != 0) {
    ::close(listen_fd_);
    throw_socket_errno("getsockname");
  }
  port_ = ntohs(address.sin_port);
  if (!options_.port_file.empty())
    write_port_file(options_.port_file, port_, options_.run_nonce);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ServeServer::~ServeServer() { stop(); }

void ServeServer::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [&] { return shutdown_; });
}

void ServeServer::stop() {
  if (stopping_.exchange(true)) {
    // Already stopped (or stopping on another thread): just make sure the
    // accept thread is gone before returning.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const int fd : client_fds_)
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& thread : client_threads_)
    if (thread.joinable()) thread.join();
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (int& fd : client_fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_ = true;
  }
  shutdown_cv_.notify_all();
}

void ServeServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (stop()) or irrecoverable
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    const std::uint64_t client_id = next_client_id_.fetch_add(1);
    std::lock_guard<std::mutex> lock(clients_mutex_);
    const std::size_t slot = client_fds_.size();
    client_fds_.push_back(fd);
    client_threads_.emplace_back([this, fd, client_id, slot] {
      handle_client(fd, client_id);
      // Close under the clients lock and clear the slot so stop() neither
      // double-closes nor shuts down a recycled fd number.
      std::lock_guard<std::mutex> slot_lock(clients_mutex_);
      ::close(fd);
      client_fds_[slot] = -1;
    });
  }
}

void ServeServer::handle_client(int fd, std::uint64_t client_id) {
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("serve.clients.accepted").add(1);
  std::mutex send_mutex;
  FrameHeader header;
  std::vector<std::byte> payload;
  for (;;) {
    // false = clean EOF, torn frame or garbage header — either way the
    // client is done; the daemon shrugs and keeps serving everyone else.
    if (!read_frame(fd, header, payload, kMaxRequestBytes)) break;
    if (header.kind != kFrameServeRequest ||
        payload.size() < sizeof(ServeRequestHeader)) {
      registry.counter("serve.clients.protocol_errors").add(1);
      break;
    }
    ServeRequestHeader request;
    std::memcpy(&request, payload.data(), sizeof(request));
    try {
      serve_request(fd, send_mutex, header.tag, client_id, request, payload);
    } catch (const SocketError&) {
      // Peer vanished mid-response (EPIPE/ECONNRESET thanks to
      // MSG_NOSIGNAL) — drop the client, not the daemon.
      registry.counter("serve.clients.disconnects").add(1);
      break;
    }
  }
  clients_served_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Sends one response frame: header + `count` payload elements of
/// `elem_bytes` each, under the per-client send lock.
void send_response(int fd, std::mutex& send_mutex, std::int32_t tag,
                   QueryKind kind, std::uint32_t status, const void* data,
                   std::uint64_t count, std::size_t elem_bytes) {
  ServeResponseHeader header;
  header.status = status;
  header.kind = static_cast<std::uint32_t>(kind);
  header.count = count;
  std::vector<std::byte> frame(sizeof(header) + count * elem_bytes);
  std::memcpy(frame.data(), &header, sizeof(header));
  if (count > 0)
    std::memcpy(frame.data() + sizeof(header), data, count * elem_bytes);
  std::lock_guard<std::mutex> lock(send_mutex);
  write_frame(fd, kFrameServeResponse, tag, frame.data(), frame.size());
}

void send_error(int fd, std::mutex& send_mutex, std::int32_t tag,
                QueryKind kind, const std::string& message) {
  send_response(fd, send_mutex, tag, kind, kServeError, message.data(),
                message.size(), 1);
}

/// The uint32 items following the request header.
std::vector<std::uint32_t> request_items(const ServeRequestHeader& request,
                                         const std::vector<std::byte>& payload) {
  const std::size_t bytes = std::size_t(request.count) * sizeof(std::uint32_t);
  if (payload.size() < sizeof(ServeRequestHeader) + bytes)
    throw std::runtime_error("serve: request payload shorter than its count");
  std::vector<std::uint32_t> items(request.count);
  if (request.count > 0)
    std::memcpy(items.data(), payload.data() + sizeof(ServeRequestHeader),
                bytes);
  return items;
}

/// Descending by weight, ties broken by node ids so responses are
/// deterministic.
bool edge_heavier(const ServeEdge& x, const ServeEdge& y) {
  if (x.weight != y.weight) return x.weight > y.weight;
  if (x.u != y.u) return x.u < y.u;
  return x.v < y.v;
}

}  // namespace

void ServeServer::serve_request(int fd, std::mutex& send_mutex,
                                std::int32_t tag, std::uint64_t client_id,
                                const ServeRequestHeader& request,
                                const std::vector<std::byte>& payload) {
  auto& registry = obs::MetricsRegistry::global();
  const QueryKind kind = static_cast<QueryKind>(request.kind);
  const Stopwatch watch;
  try {
    switch (kind) {
      case QueryKind::Ping: {
        send_response(fd, send_mutex, tag, kind, kServeOk, nullptr, 0, 1);
        break;
      }
      case QueryKind::MiPairs: {
        const std::vector<std::uint32_t> items =
            request_items(request, payload);
        if (items.size() % 2 != 0)
          throw std::runtime_error(
              "serve: mi_pairs payload must be interleaved (a, b) ids");
        std::vector<GenePair> pairs(items.size() / 2);
        for (std::size_t i = 0; i < pairs.size(); ++i)
          pairs[i] = GenePair{items[2 * i], items[2 * i + 1]};
        EstimatorKind estimator = state_.config().estimator;
        if (request.estimator != kEstimatorDefault) {
          if (request.estimator >
              static_cast<std::uint32_t>(EstimatorKind::Phi))
            throw std::runtime_error(
                strprintf("serve: unknown estimator id %u", request.estimator));
          estimator = static_cast<EstimatorKind>(request.estimator);
        }
        const std::vector<double> values =
            batcher_.query(estimator, std::move(pairs));
        send_response(fd, send_mutex, tag, kind, kServeOk, values.data(),
                      values.size(), sizeof(double));
        break;
      }
      case QueryKind::Neighborhood: {
        const std::vector<std::uint32_t> items =
            request_items(request, payload);
        if (items.size() != 1)
          throw std::runtime_error(
              "serve: neighborhood takes exactly one gene id");
        const std::uint32_t gene = items[0];
        if (gene >= state_.network().n_nodes())
          throw std::runtime_error(strprintf(
              "serve: gene %u out of range (network has %zu nodes)", gene,
              state_.network().n_nodes()));
        std::vector<ServeEdge> edges;
        for (const auto& neighbor : state_.adjacency().neighbors(gene))
          edges.push_back(ServeEdge{gene, neighbor.node, neighbor.weight});
        std::sort(edges.begin(), edges.end(), edge_heavier);
        if (request.k > 0 && edges.size() > request.k)
          edges.resize(request.k);
        send_response(fd, send_mutex, tag, kind, kServeOk, edges.data(),
                      edges.size(), sizeof(ServeEdge));
        break;
      }
      case QueryKind::TopEdges: {
        std::vector<ServeEdge> edges;
        edges.reserve(state_.network().n_edges());
        for (const Edge& edge : state_.network().edges())
          edges.push_back(ServeEdge{edge.u, edge.v, edge.weight});
        std::sort(edges.begin(), edges.end(), edge_heavier);
        if (request.k > 0 && edges.size() > request.k)
          edges.resize(request.k);
        send_response(fd, send_mutex, tag, kind, kServeOk, edges.data(),
                      edges.size(), sizeof(ServeEdge));
        break;
      }
      case QueryKind::Subgraph: {
        const std::vector<std::uint32_t> items =
            request_items(request, payload);
        const std::unordered_set<std::uint32_t> wanted(items.begin(),
                                                       items.end());
        std::vector<ServeEdge> edges;
        for (const Edge& edge : state_.network().edges())
          if (wanted.count(edge.u) != 0 && wanted.count(edge.v) != 0)
            edges.push_back(ServeEdge{edge.u, edge.v, edge.weight});
        send_response(fd, send_mutex, tag, kind, kServeOk, edges.data(),
                      edges.size(), sizeof(ServeEdge));
        break;
      }
      case QueryKind::SweepJob: {
        // Progress events stream the live metrics-registry view of the
        // pass: tiles done plus the engine/serve counters as they move.
        const auto progress = [&](std::size_t done, std::size_t total) {
          const obs::MetricsSnapshot snapshot = registry.snapshot();
          obs::Json event = obs::Json::object();
          event["done"] = static_cast<double>(done);
          event["total"] = static_cast<double>(total);
          event["metrics"] = obs::metrics_to_json(snapshot);
          const std::string text = event.dump();
          std::lock_guard<std::mutex> lock(send_mutex);
          write_frame(fd, kFrameServeEvent, tag, text.data(), text.size());
        };
        const EngineStats stats = state_.run_sweep_job(progress);
        obs::Json summary = obs::Json::object();
        summary["pairs"] = static_cast<double>(stats.pairs_computed);
        summary["edges"] = static_cast<double>(stats.edges_emitted);
        summary["tiles"] = static_cast<double>(stats.tiles);
        summary["tiles_resumed"] = static_cast<double>(stats.tiles_resumed);
        summary["seconds"] = stats.seconds;
        summary["kernel"] = stats.kernel;
        summary["estimator"] = stats.estimator;
        const std::string text = summary.dump();
        send_response(fd, send_mutex, tag, kind, kServeOk, text.data(),
                      text.size(), 1);
        break;
      }
      case QueryKind::Metrics: {
        const std::string text =
            obs::metrics_to_json(registry.snapshot()).dump();
        send_response(fd, send_mutex, tag, kind, kServeOk, text.data(),
                      text.size(), 1);
        break;
      }
      case QueryKind::Shutdown: {
        send_response(fd, send_mutex, tag, kind, kServeOk, nullptr, 0, 1);
        {
          std::lock_guard<std::mutex> lock(shutdown_mutex_);
          shutdown_ = true;
        }
        shutdown_cv_.notify_all();
        break;
      }
      default:
        throw std::runtime_error(
            strprintf("serve: unknown query kind %u", request.kind));
    }
  } catch (const SocketError&) {
    throw;  // handled by handle_client: the peer is gone
  } catch (const std::exception& error) {
    send_error(fd, send_mutex, tag, kind, error.what());
  }
  // Per-client accounting: who asked, what, and how long it took. The
  // histograms feed the p50/p95/p99 the bench and the load tests report.
  const double seconds = watch.seconds();
  registry.counter("serve.queries").add(1);
  registry.counter(strprintf("serve.queries.%s", query_kind_name(kind)))
      .add(1);
  registry.counter(strprintf("serve.client.%llu.queries",
                             static_cast<unsigned long long>(client_id)))
      .add(1);
  registry.histogram("serve.query.seconds").record(seconds);
  registry.histogram(strprintf("serve.client.%llu.seconds",
                               static_cast<unsigned long long>(client_id)))
      .record(seconds);
}

}  // namespace tinge::cluster
