// The tinge_serve daemon: a resident dataset answering network queries.
//
// The batch pipeline is a one-shot program — load, sweep, write edges,
// exit. tinge_serve keeps everything the sweep staged (the preprocessed
// matrix, the ranked matrix, the weight table, the thresholded network)
// resident and answers concurrent client queries over the same framed TCP
// transport the mesh uses: on-demand MI(x, y) for any estimator,
// gene-neighborhood / top-k / subgraph extraction over the built network,
// live metrics snapshots, and "sweep job" submissions whose progress is
// streamed back from the metrics registry.
//
// Query execution (DESIGN.md §6j): each connected client gets a handler
// thread, but every MI pair query funnels through one PairBatcher, which
// coalesces the pair requests that arrive within a small flush deadline
// into a single planner batch — so concurrent single-pair clients ride one
// panel sweep instead of one sweep each, exactly the row-reuse economics
// the batch engine is built on. Computed tiles land in a shared
// byte-budgeted LRU (core/mi_query.h) keyed by (dataset, estimator,
// kernel, block), so a warm pair query is a hash lookup, test-enforced via
// the serve.cache.hits counter.
//
// Startup either computes the network or restores it: when the config
// names a checkpoint path, the build runs the checkpointed engine with
// keep_checkpoint, so a daemon restart replays the completed journal
// instead of recomputing the triangle.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/serve_protocol.h"
#include "core/config.h"
#include "core/dpi.h"
#include "core/mi_engine.h"
#include "core/mi_query.h"
#include "core/null_distribution.h"
#include "core/pair_statistic.h"
#include "data/expression_matrix.h"
#include "graph/network.h"
#include "parallel/thread_pool.h"
#include "preprocess/rank_transform.h"

namespace tinge::cluster {

struct ServeOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (read it back via
  /// ServeServer::port()). The daemon binds loopback only, like the mesh.
  int port = 0;
  /// When non-empty, the chosen port is published here in the rendezvous
  /// port-file format ("<port> <nonce>\n", cluster/tcp_transport.h) so
  /// clients can rendezvous without parsing daemon output.
  std::string port_file;
  /// Nonce stamped into the port file (0 = unstamped).
  std::uint64_t run_nonce = 0;
  /// How long the pair batcher waits after the first queued pair query
  /// before flushing the batch to the planner.
  double flush_deadline_ms = 2.0;
  /// Tile-cache budget in bytes (0 disables caching).
  std::size_t cache_bytes = std::size_t(64) << 20;
  /// Sweep threads for query batches and sweep jobs (0 = config.threads,
  /// which itself falls back to all hardware threads).
  int threads = 0;
  /// Identity string baked into tile-cache keys; defaults to "default".
  std::string dataset_id = "default";
};

/// Everything the daemon keeps resident for one dataset: the preprocessed
/// expression matrix (Pearson reads raw values), the ranked matrix the
/// kernels sweep, the permutation null and its threshold, the thresholded
/// network with its adjacency index, the shared tile cache, and one lazy
/// MiQueryEngine per estimator queried so far.
class ServeState {
 public:
  /// Runs the single-process pipeline stages (impute, filter, rank,
  /// statistic, null, threshold, sweep, and DPI when config.apply_dpi)
  /// exactly as sharded_build's p == 1 path does — same stage order, same
  /// calls — so every value the daemon later serves is bit-identical to the
  /// batch pipeline for this config.
  /// When config.checkpoint_path is set the sweep runs checkpointed with
  /// keep_checkpoint, so a completed journal from a previous run (or a
  /// crashed one) restores / resumes the network instead of recomputing.
  ServeState(ExpressionMatrix&& expression, const TingeConfig& config,
             const ServeOptions& options);

  const TingeConfig& config() const { return config_; }
  const GeneNetwork& network() const { return network_; }
  const Adjacency& adjacency() const { return *adjacency_; }
  const RankedMatrix& ranked() const { return ranked_; }
  double threshold() const { return threshold_; }
  const EngineStats& build_stats() const { return build_stats_; }
  const DpiStats& dpi_stats() const { return dpi_stats_; }
  TileCache& cache() { return cache_; }
  par::ThreadPool& pool() { return *pool_; }
  std::size_t n_genes() const { return ranked_.n_genes(); }

  /// The query engine for one estimator, created (with its statistic) on
  /// first use and kept for the daemon's lifetime. Thread-safe.
  MiQueryEngine& query_engine(EstimatorKind estimator);

  /// Re-runs the thresholded network sweep (the SweepJob query), invoking
  /// `progress(done, total)` as tiles complete. Returns the stats of the
  /// pass. Serialized: concurrent jobs queue on an internal mutex.
  EngineStats run_sweep_job(
      const std::function<void(std::size_t, std::size_t)>& progress);

 private:
  TingeConfig config_;
  ExpressionMatrix working_;  // post-filter; statistics may reference it
  RankedMatrix ranked_;
  std::shared_ptr<EmpiricalDistribution> null_;
  double threshold_ = 0.0;
  std::unique_ptr<par::ThreadPool> pool_;
  GeneNetwork network_;
  std::unique_ptr<Adjacency> adjacency_;
  EngineStats build_stats_;
  DpiStats dpi_stats_;
  TileCache cache_;
  std::string dataset_id_;

  struct EstimatorSlot {
    std::unique_ptr<PairStatistic> statistic;
    std::unique_ptr<MiQueryEngine> engine;
  };
  std::mutex estimators_mutex_;
  std::map<EstimatorKind, EstimatorSlot> estimators_;
  std::mutex sweep_job_mutex_;
};

/// Coalesces concurrent MI pair queries into planner batches: the first
/// query to arrive opens a batch window of flush_deadline_ms; everything
/// queued within the window is drained together, grouped by estimator, and
/// answered through one MiQueryEngine::pair_values call per estimator — so
/// pairs landing in the same tile share one panel sweep and one cache
/// entry no matter which client asked.
class PairBatcher {
 public:
  PairBatcher(ServeState& state, double flush_deadline_ms);
  ~PairBatcher();

  /// Blocks until the batch containing this query is answered. Throws what
  /// the planner threw (e.g. ContractViolation for an invalid pair).
  std::vector<double> query(EstimatorKind estimator,
                            std::vector<GenePair> pairs);

  /// Batches flushed so far (each = one planner invocation window).
  std::uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending;
  void worker();

  ServeState& state_;
  std::chrono::microseconds flush_deadline_;
  std::mutex mutex_;
  std::condition_variable queued_;
  std::deque<std::shared_ptr<Pending>> queue_;
  bool stop_ = false;
  std::atomic<std::uint64_t> batches_{0};
  std::thread thread_;
};

/// The serve daemon's network face: accepts framed-TCP clients on loopback
/// and runs one handler thread per client until the peer disconnects or a
/// Shutdown query arrives. Abrupt disconnects (peer closes mid-frame) are
/// routine, not fatal: the handler drops that client and the daemon keeps
/// serving (framing sends use MSG_NOSIGNAL, so no SIGPIPE either).
class ServeServer {
 public:
  /// Binds and starts accepting immediately. `state` must outlive the
  /// server.
  ServeServer(ServeState& state, const ServeOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// The port actually bound (useful with options.port == 0).
  int port() const { return port_; }

  /// Blocks until a Shutdown query arrives or stop() is called.
  void wait();

  /// Stops accepting, disconnects every client and joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

  std::size_t clients_served() const {
    return clients_served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void handle_client(int fd, std::uint64_t client_id);
  void serve_request(int fd, std::mutex& send_mutex, std::int32_t tag,
                     std::uint64_t client_id, const ServeRequestHeader& header,
                     const std::vector<std::byte>& payload);

  ServeState& state_;
  ServeOptions options_;
  PairBatcher batcher_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex clients_mutex_;
  std::vector<std::thread> client_threads_;
  std::vector<int> client_fds_;
  std::atomic<std::uint64_t> clients_served_{0};
  std::atomic<std::uint64_t> next_client_id_{0};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_ = false;
  std::atomic<bool> stopping_{false};
};

}  // namespace tinge::cluster
