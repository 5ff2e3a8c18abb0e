// Serve-path correctness: every answer the query daemon hands out must be
// bit-identical to what the batch pipeline computes for the same dataset,
// estimator and seed — cold cache, warm cache, direct planner calls or the
// full framed-TCP round trip. Plus the daemon's failure discipline: a
// client vanishing mid-frame is routine, never fatal.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/framing.h"
#include "cluster/serve_client.h"
#include "cluster/serve_server.h"
#include "core/mi_engine.h"
#include "core/mi_query.h"
#include "core/network_builder.h"
#include "core/pair_statistic.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "preprocess/filter.h"
#include "preprocess/rank_transform.h"
#include "stats/rng.h"
#include "synth/expression.h"
#include "util/contracts.h"
#include "util/timer.h"

namespace tinge {
namespace {

using cluster::ServeClient;
using cluster::ServeEdge;
using cluster::ServeOptions;
using cluster::ServeServer;
using cluster::ServeState;

ExpressionMatrix test_expression(std::size_t n_genes, std::size_t n_samples) {
  GrnParams grn;
  grn.n_genes = n_genes;
  ExpressionParams arrays;
  arrays.n_samples = n_samples;
  return simulate_expression(generate_grn(grn), arrays);
}

TingeConfig test_config() {
  TingeConfig config;
  config.permutations = 100;  // the null only gates the network threshold
  config.tile_size = 16;      // several blocks even at test sizes
  config.threads = 2;
  return config;
}

/// The batch pipeline's dense MI matrix over the same preprocessing the
/// serve state runs — the bit-level reference every query must match.
struct BatchReference {
  ExpressionMatrix working;
  RankedMatrix ranked;
  std::unique_ptr<PairStatistic> statistic;
  std::vector<float> dense;

  BatchReference(ExpressionMatrix&& expression, const TingeConfig& config) {
    working = std::move(expression);
    impute_missing_with_median(working);
    FilterResult filtered = filter_genes(working, config.filter);
    working = std::move(filtered.matrix);
    ranked = RankedMatrix(working);
    statistic = make_pair_statistic(config, ranked, &working);
    par::ThreadPool pool(2);
    const MiEngine engine(*statistic, ranked);
    dense = engine.compute_dense(config, pool);
  }
};

// ---- the query planner, called directly ------------------------------------

class ServeQueryEngineTest : public ::testing::TestWithParam<EstimatorKind> {};

TEST_P(ServeQueryEngineTest, ColdAndWarmQueriesBitMatchTheBatchSweep) {
  TingeConfig config = test_config();
  config.estimator = GetParam();
  const ExpressionMatrix expression = test_expression(40, 96);
  const BatchReference reference(expression.clone(), config);
  const std::size_t n = reference.ranked.n_genes();
  ASSERT_GE(n, 2u);

  par::ThreadPool pool(2);
  TileCache cache(std::size_t(16) << 20);
  MiQueryEngine engine(*reference.statistic, reference.ranked, config, &pool,
                       cache, "test");

  std::vector<GenePair> pairs;
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; ++b)
      pairs.push_back(GenePair{a, b});

  // Cold: every tile is swept through the same executor as the batch pass.
  const std::vector<double> cold = engine.pair_values(pairs);
  ASSERT_EQ(cold.size(), pairs.size());
  const std::uint64_t tiles_cold = engine.tiles_swept();
  EXPECT_GT(tiles_cold, 1u);  // tile_size 16 over 40 genes: several blocks
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const float batch = reference.dense[pairs[i].a * n + pairs[i].b];
    const float served = static_cast<float>(cold[i]);
    ASSERT_EQ(std::memcmp(&batch, &served, sizeof(float)), 0)
        << "pair (" << pairs[i].a << ", " << pairs[i].b << ") diverged";
  }

  // Warm: the cache answers alone — same bits, zero new sweeps.
  const std::uint64_t hits_before = cache.hits();
  const std::vector<double> warm = engine.pair_values(pairs);
  EXPECT_EQ(engine.tiles_swept(), tiles_cold)
      << "a warm pair query re-ran its panel sweep";
  EXPECT_GT(cache.hits(), hits_before);
  EXPECT_EQ(cold, warm);
}

INSTANTIATE_TEST_SUITE_P(Estimators, ServeQueryEngineTest,
                         ::testing::Values(EstimatorKind::Bspline,
                                           EstimatorKind::Pearson),
                         [](const auto& param_info) {
                           return std::string(
                               estimator_name(param_info.param));
                         });

TEST(ServeQueryEngine, DisabledCacheStillAnswersIdentically) {
  const TingeConfig config = test_config();
  const ExpressionMatrix expression = test_expression(24, 64);
  const BatchReference reference(expression.clone(), config);
  const std::size_t n = reference.ranked.n_genes();

  TileCache cold_cache(0);  // disabled: every query re-sweeps
  MiQueryEngine engine(*reference.statistic, reference.ranked, config,
                       nullptr, cold_cache, "test");
  const std::vector<GenePair> pairs{{0, 1}, {2, 3}, {0, static_cast<std::uint32_t>(n - 1)}};
  const std::vector<double> first = engine.pair_values(pairs);
  const std::uint64_t swept = engine.tiles_swept();
  const std::vector<double> second = engine.pair_values(pairs);
  EXPECT_EQ(first, second);
  EXPECT_GT(engine.tiles_swept(), swept);  // nothing was retained
  EXPECT_EQ(cold_cache.entries(), 0u);
}

TEST(ServeQueryEngine, RejectsDegenerateAndOutOfRangePairs) {
  const TingeConfig config = test_config();
  const ExpressionMatrix expression = test_expression(24, 64);
  const BatchReference reference(expression.clone(), config);
  TileCache cache(1 << 20);
  MiQueryEngine engine(*reference.statistic, reference.ranked, config,
                       nullptr, cache, "test");
  EXPECT_THROW(engine.pair_values(std::vector<GenePair>{{3, 3}}),
               ContractViolation);
  EXPECT_THROW(engine.pair_values(std::vector<GenePair>{{0, 100000}}),
               ContractViolation);
}

TEST(ServeTileCache, EvictsLeastRecentlyUsedWithinBudget) {
  Tile tile;
  tile.row_begin = 0;
  tile.row_end = 8;
  tile.col_begin = 0;
  tile.col_end = 8;
  const auto values = std::make_shared<TileValues>(tile);
  const std::size_t unit = values->bytes();

  TileCache cache(2 * unit + unit / 2);  // room for two entries
  const auto key = [](std::size_t block) {
    return TileCacheKey{"d", EstimatorKind::Bspline, "k", block, block};
  };
  cache.put(key(0), values);
  cache.put(key(1), std::make_shared<TileValues>(tile));
  EXPECT_EQ(cache.entries(), 2u);
  ASSERT_NE(cache.get(key(0)), nullptr);  // touch 0: 1 becomes the LRU
  cache.put(key(2), std::make_shared<TileValues>(tile));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.get(key(0)), nullptr);
  EXPECT_EQ(cache.get(key(1)), nullptr);  // the evicted one
  EXPECT_NE(cache.get(key(2)), nullptr);

  // An entry evicted while a request still holds the shared_ptr stays
  // valid for that request.
  EXPECT_EQ(values->tile().row_end, 8u);
}

// ---- the resident state ----------------------------------------------------

TEST(ServeState, CheckpointJournalRestoresTheNetworkOnRestart) {
  const std::string path =
      ::testing::TempDir() + "serve_restore_test.ckpt";
  std::remove(path.c_str());
  TingeConfig config = test_config();
  config.checkpoint_path = path;
  const ExpressionMatrix expression = test_expression(40, 96);
  const ServeOptions options;

  const ServeState first(expression.clone(), config, options);
  EXPECT_EQ(first.build_stats().tiles_resumed, 0u);
  ASSERT_GT(first.build_stats().tiles, 0u);

  // Second daemon start, same dataset and config: the kept journal must
  // restore every tile instead of recomputing.
  const ServeState second(expression.clone(), config, options);
  EXPECT_EQ(second.build_stats().tiles_resumed,
            second.build_stats().tiles);
  ASSERT_EQ(second.network().n_edges(), first.network().n_edges());
  const auto first_edges = first.network().edges();
  const auto second_edges = second.network().edges();
  for (std::size_t i = 0; i < first_edges.size(); ++i) {
    EXPECT_EQ(first_edges[i].u, second_edges[i].u);
    EXPECT_EQ(first_edges[i].v, second_edges[i].v);
    EXPECT_EQ(first_edges[i].weight, second_edges[i].weight);
  }
  std::remove(path.c_str());
}

TEST(ServeState, DpiNetworkMatchesTheBatchPipeline) {
  TingeConfig config = test_config();
  config.apply_dpi = true;
  const ExpressionMatrix expression = test_expression(80, 96);
  const ServeState state(expression.clone(), config, ServeOptions{});
  const BuildResult built = NetworkBuilder(config).build(expression);
  ASSERT_GT(built.dpi_stats.edges_removed, 0u);  // DPI has work to do here
  EXPECT_EQ(state.dpi_stats().triangles_examined,
            built.dpi_stats.triangles_examined);
  EXPECT_EQ(state.dpi_stats().edges_removed, built.dpi_stats.edges_removed);
  ASSERT_EQ(state.network().n_edges(), built.network.n_edges());
  const auto served = state.network().edges();
  const auto batch = built.network.edges();
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].u, batch[i].u);
    EXPECT_EQ(served[i].v, batch[i].v);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(served[i].weight),
              std::bit_cast<std::uint32_t>(batch[i].weight));
  }
  // The adjacency the graph queries read is the pruned network's.
  std::size_t adjacency_entries = 0;
  for (std::uint32_t g = 0; g < state.n_genes(); ++g)
    adjacency_entries += state.adjacency().neighbors(g).size();
  EXPECT_EQ(adjacency_entries, 2 * served.size());
}

TEST(ServeState, ConsensusNetworkMatchesTheBatchPipeline) {
  TingeConfig config = test_config();
  config.consensus_resamples = 3;
  config.apply_dpi = true;
  const ExpressionMatrix expression = test_expression(80, 96);
  const ServeState state(expression.clone(), config, ServeOptions{});
  const BuildResult built = NetworkBuilder(config).build(expression);
  ASSERT_GT(built.consensus.kept_edges, 0u);
  EXPECT_EQ(state.consensus_stats().candidate_edges,
            built.consensus.candidate_edges);
  EXPECT_EQ(state.consensus_stats().kept_edges, built.consensus.kept_edges);
  EXPECT_EQ(state.dpi_stats().edges_removed, built.dpi_stats.edges_removed);
  ASSERT_EQ(state.network().n_edges(), built.network.n_edges());
  const auto served = state.network().edges();
  const auto batch = built.network.edges();
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].u, batch[i].u);
    EXPECT_EQ(served[i].v, batch[i].v);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(served[i].weight),
              std::bit_cast<std::uint32_t>(batch[i].weight));
  }
}

// ---- the daemon over real sockets ------------------------------------------

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = test_config();
    expression_ = test_expression(40, 96);
    options_.flush_deadline_ms = 1.0;
    state_ = std::make_unique<ServeState>(expression_.clone(), config_,
                                          options_);
    server_ = std::make_unique<ServeServer>(*state_, options_);
  }

  TingeConfig config_;
  ExpressionMatrix expression_;
  ServeOptions options_;
  std::unique_ptr<ServeState> state_;
  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServeDaemonTest, PairQueriesOverTcpBitMatchTheBatchPipeline) {
  const BatchReference reference(expression_.clone(), config_);
  const std::size_t n = reference.ranked.n_genes();
  ServeClient client("127.0.0.1", server_->port());

  std::vector<GenePair> pairs;
  for (std::uint32_t a = 0; a < n; a += 3)
    for (std::uint32_t b = a + 1; b < n; b += 5)
      pairs.push_back(GenePair{a, b});
  const std::vector<double> values = client.mi_pairs(pairs);
  ASSERT_EQ(values.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const float batch = reference.dense[pairs[i].a * n + pairs[i].b];
    const float served = static_cast<float>(values[i]);
    ASSERT_EQ(std::memcmp(&batch, &served, sizeof(float)), 0);
  }

  // Second round trip: answered from the warm tile cache, same bits.
  const std::uint64_t hits = state_->cache().hits();
  EXPECT_EQ(client.mi_pairs(pairs), values);
  EXPECT_GT(state_->cache().hits(), hits);
}

TEST_F(ServeDaemonTest, SecondaryEstimatorIsServedOnDemand) {
  TingeConfig pearson = config_;
  pearson.estimator = EstimatorKind::Pearson;
  const BatchReference reference(expression_.clone(), pearson);
  const std::size_t n = reference.ranked.n_genes();
  ServeClient client("127.0.0.1", server_->port());
  const std::vector<GenePair> pairs{{0, 1}, {5, 9}, {2, static_cast<std::uint32_t>(n - 1)}};
  const std::vector<double> values =
      client.mi_pairs(pairs, EstimatorKind::Pearson);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const float batch = reference.dense[pairs[i].a * n + pairs[i].b];
    const float served = static_cast<float>(values[i]);
    ASSERT_EQ(std::memcmp(&batch, &served, sizeof(float)), 0);
  }
}

TEST_F(ServeDaemonTest, GraphQueriesMatchTheBuiltNetwork) {
  ServeClient client("127.0.0.1", server_->port());
  const GeneNetwork& network = state_->network();

  // Subgraph over every node = the whole edge set in network order.
  std::vector<std::uint32_t> all_nodes(network.n_nodes());
  for (std::uint32_t g = 0; g < all_nodes.size(); ++g) all_nodes[g] = g;
  const std::vector<ServeEdge> everything = client.subgraph(all_nodes);
  ASSERT_EQ(everything.size(), network.n_edges());
  const auto edges = network.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(everything[i].u, edges[i].u);
    EXPECT_EQ(everything[i].v, edges[i].v);
    EXPECT_EQ(everything[i].weight, edges[i].weight);
  }

  // Top-k: the k heaviest, descending.
  const std::vector<ServeEdge> top = client.top_edges(5);
  ASSERT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i)
    EXPECT_GE(top[i - 1].weight, top[i].weight);
  if (!top.empty()) {
    float heaviest = 0.0f;
    for (const Edge& edge : edges) heaviest = std::max(heaviest, edge.weight);
    EXPECT_EQ(top[0].weight, heaviest);
  }

  // Neighborhood: every returned edge must exist with that exact weight.
  const std::vector<ServeEdge> hood = client.neighborhood(0, 0);
  EXPECT_EQ(hood.size(), state_->adjacency().neighbors(0).size());
  for (const ServeEdge& edge : hood) {
    EXPECT_EQ(edge.u, 0u);
    EXPECT_EQ(network.edge_weight(edge.u, edge.v), edge.weight);
  }
}

TEST_F(ServeDaemonTest, MetricsQueryReturnsTheLiveRegistrySnapshot) {
  ServeClient client("127.0.0.1", server_->port());
  client.mi_pairs(std::vector<GenePair>{{0, 1}});
  const obs::Json metrics = obs::Json::parse(client.metrics_json());
  ASSERT_NE(metrics.find("counters"), nullptr);
  EXPECT_GE(metrics.at("counters").at("serve.queries").as_int(), 1);
}

TEST_F(ServeDaemonTest, ClientVanishingMidFrameLeavesTheDaemonServing) {
  // A client that dies mid-frame: open a raw socket, send half a frame
  // header, and slam the connection shut.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::uint32_t half_header[2] = {cluster::kFrameMagic,
                                        cluster::kFrameServeRequest};
  ASSERT_EQ(::send(fd, half_header, sizeof(half_header), 0),
            static_cast<ssize_t>(sizeof(half_header)));
  ::close(fd);

  // And one that talks garbage (wrong magic) — dropped, not fatal.
  const int junk = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(junk, 0);
  ASSERT_EQ(::connect(junk, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const char noise[24] = "this is not a frame....";
  ASSERT_EQ(::send(junk, noise, sizeof(noise), 0),
            static_cast<ssize_t>(sizeof(noise)));
  ::close(junk);

  // The daemon must still answer a well-behaved client.
  ServeClient client("127.0.0.1", server_->port());
  client.ping();
  const std::vector<double> values =
      client.mi_pairs(std::vector<GenePair>{{1, 2}});
  EXPECT_EQ(values.size(), 1u);
}

// Nagle holds a small frame until the peer acknowledges the previous one,
// and Linux delays that ACK by 40 ms at least, so a round trip that paid it
// once would take tens of milliseconds. The medians must stay under a
// quarter of that timer.
TEST_F(ServeDaemonTest, SmallFrameRoundTripsStayBelowTheDelayedAckTimer) {
  ServeClient client("127.0.0.1", server_->port());
  constexpr int kRounds = 100;
  const auto median_ms = [](std::vector<double> samples) {
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
  };
  std::vector<double> ping_ms, neighborhood_ms;
  for (int i = 0; i < kRounds; ++i) {
    const Stopwatch watch;
    client.ping();
    ping_ms.push_back(watch.milliseconds());
  }
  for (int i = 0; i < kRounds; ++i) {
    const auto gene = static_cast<std::uint32_t>(i % state_->n_genes());
    const Stopwatch watch;
    client.neighborhood(gene, 10);
    neighborhood_ms.push_back(watch.milliseconds());
  }
  EXPECT_LT(median_ms(ping_ms), 10.0);
  EXPECT_LT(median_ms(neighborhood_ms), 10.0);
}

TEST_F(ServeDaemonTest, SweepJobStreamsProgressAndSummarizes) {
  ServeClient client("127.0.0.1", server_->port());
  std::vector<std::string> events;
  const cluster::SweepJobResult result = client.sweep_job(
      [&events](const std::string& event) { events.push_back(event); });
  EXPECT_GT(result.pairs, 0u);
  EXPECT_GT(result.tiles, 0u);
  ASSERT_GE(events.size(), 1u);
  const obs::Json event = obs::Json::parse(events.back());
  ASSERT_NE(event.find("done"), nullptr);
  ASSERT_NE(event.find("metrics"), nullptr);
}

// A sweep job re-runs the network stage the daemon served, so the job's
// edge count is the served network's: the consensus vote and DPI included,
// not the plain thresholded sweep underneath them.
cluster::SweepJobResult run_sweep_job(ServeState& state) {
  ServeServer server(state, ServeOptions{});
  ServeClient client("127.0.0.1", server.port());
  return client.sweep_job();
}

TEST(ServeSweepJob, ReportsTheServedConsensusNetwork) {
  TingeConfig config = test_config();
  config.consensus_resamples = 3;
  config.consensus_estimators = "spearman,bspline";
  config.apply_dpi = true;
  ServeState state(test_expression(80, 96), config, ServeOptions{});
  ASSERT_GT(state.consensus_stats().kept_edges, 0u);
  const cluster::SweepJobResult job = run_sweep_job(state);
  EXPECT_EQ(job.edges, state.network().n_edges());
  // The members' sweeps and voters, not the default EngineStats of a vote.
  EXPECT_GT(job.tiles, 0u);
  EXPECT_NE(job.kernel, "?");
  EXPECT_EQ(job.estimator, "spearman,bspline");
}

TEST(ServeSweepJob, ReportsTheServedDpiNetwork) {
  TingeConfig config = test_config();
  config.apply_dpi = true;
  ServeState state(test_expression(80, 96), config, ServeOptions{});
  ASSERT_GT(state.dpi_stats().edges_removed, 0u);  // DPI has work to do
  EXPECT_EQ(run_sweep_job(state).edges, state.network().n_edges());
}

// An invalid pair is its own request's error. It must not reach the
// batcher, whose window (held open 300 ms here) it would share with another
// client's valid pairs and fail them too.
TEST(ServeBatcher, InvalidPairFailsOnlyItsOwnRequest) {
  const TingeConfig config = test_config();
  ExpressionMatrix expression = test_expression(40, 96);
  const BatchReference reference(expression.clone(), config);
  const auto n = static_cast<std::uint32_t>(reference.ranked.n_genes());
  ServeOptions options;
  options.flush_deadline_ms = 300.0;
  ServeState state(std::move(expression), config, options);
  ServeServer server(state, options);

  const std::vector<GenePair> valid{{0, 1}, {3, n - 1}};
  for (const GenePair invalid : {GenePair{2, n + 5}, GenePair{5, 5}}) {
    SCOPED_TRACE(testing::Message() << "invalid pair (" << invalid.a << ", "
                                    << invalid.b << ")");
    ServeClient good("127.0.0.1", server.port());
    ServeClient bad("127.0.0.1", server.port());
    std::vector<double> values;
    std::string good_error;
    std::thread asker([&] {
      try {
        values = good.mi_pairs(valid);
      } catch (const std::exception& error) {
        good_error = error.what();
      }
    });
    try {
      bad.mi_pairs(std::vector<GenePair>{invalid});
      ADD_FAILURE() << "an invalid pair must get an error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("not a valid gene pair"),
                std::string::npos)
          << error.what();
    }
    asker.join();
    ASSERT_EQ(good_error, "");
    ASSERT_EQ(values.size(), valid.size());
    for (std::size_t i = 0; i < valid.size(); ++i) {
      const float batch = reference.dense[valid[i].a * n + valid[i].b];
      const float served = static_cast<float>(values[i]);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(served),
                std::bit_cast<std::uint32_t>(batch));
    }
  }
}

/// The process's virtual size (VmSize in /proc/self/status), in KiB.
long vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return -1;
}

// Every handler thread holds an 8 MiB stack mapping until it is joined. A
// daemon answering one-shot clients must join each departed client's
// thread, not keep them all until stop(): 200 of them kept would add
// ~1.6 GB of VmSize.
TEST_F(ServeDaemonTest, OneShotClientsDoNotAccumulateHandlerThreads) {
  // Warm-up. Handlers of back-to-back clients overlap briefly, and a third
  // overlapping one would map a new malloc arena (64 MiB of address space)
  // and a new stack. Eight clients at once leave arenas and cached stacks
  // for later handlers to reuse, so the window below measures only what
  // departed handlers keep.
  {
    std::vector<ServeClient> clients;
    for (int i = 0; i < 8; ++i)
      clients.emplace_back("127.0.0.1", server_->port());
    for (ServeClient& client : clients) client.ping();
  }
  ServeClient("127.0.0.1", server_->port()).ping();
  const long before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i)
    ServeClient("127.0.0.1", server_->port()).ping();
  const long grown_kib = vm_size_kib() - before;
  EXPECT_LT(grown_kib, 64 * 1024) << "VmSize grew by " << grown_kib << " KiB";
}

TEST_F(ServeDaemonTest, ShutdownQueryReleasesWait) {
  std::thread waiter([this] { server_->wait(); });
  ServeClient client("127.0.0.1", server_->port());
  client.shutdown_server();
  waiter.join();  // deadlocks here = the query did not release wait()
  server_->stop();
  EXPECT_GE(server_->clients_served(), 1u);
}

// ---- the request decoder under malformed clients ---------------------------
//
// Seeded mutations of valid request frames, in the manner of
// test_parser_robustness.cpp. Each malformed client must get an error
// response or a closed connection, and a well-behaved client on its own
// connection must keep getting batch-identical MI answers after every one.
// (A stalled half-frame would hold its handler forever: the daemon has no
// read timeout, so that mutation is not exercised here.)

/// What a raw client saw after sending its bytes and closing its write side.
enum class Outcome { Closed, Error, Answered, Silent };

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::Closed: return "closed";
    case Outcome::Error: return "error response";
    case Outcome::Answered: return "answered";
    case Outcome::Silent: return "silent";
  }
  return "?";
}

/// One request frame, encoded the way ServeClient encodes it unless a
/// mutation edits a field first.
struct RawRequest {
  std::uint32_t frame_kind = cluster::kFrameServeRequest;
  cluster::ServeRequestHeader request;
  std::vector<std::uint32_t> items;

  std::vector<std::byte> encode() const {
    cluster::FrameHeader header;
    header.kind = frame_kind;
    header.tag = 1;
    const std::size_t item_bytes = items.size() * sizeof(std::uint32_t);
    header.bytes = sizeof(request) + item_bytes;
    std::vector<std::byte> wire(sizeof(header) + header.bytes);
    std::memcpy(wire.data(), &header, sizeof(header));
    std::memcpy(wire.data() + sizeof(header), &request, sizeof(request));
    if (item_bytes > 0)
      std::memcpy(wire.data() + sizeof(header) + sizeof(request),
                  items.data(), item_bytes);
    return wire;
  }
};

class ServeDecoderTest : public ServeDaemonTest,
                         public ::testing::WithParamInterface<std::uint64_t> {
 protected:
  void SetUp() override {
    ServeDaemonTest::SetUp();
    reference_ = std::make_unique<BatchReference>(expression_.clone(), config_);
    n_genes_ = static_cast<std::uint32_t>(reference_->ranked.n_genes());
    good_client_ = std::make_unique<ServeClient>("127.0.0.1", server_->port());
    rng_ = Xoshiro256(GetParam());
  }

  std::vector<std::uint32_t> random_pair_items(std::size_t pairs) {
    std::vector<std::uint32_t> items;
    for (std::size_t i = 0; i < pairs; ++i) {
      const auto a = static_cast<std::uint32_t>(rng_.below(n_genes_));
      auto b = static_cast<std::uint32_t>(rng_.below(n_genes_ - 1));
      if (b >= a) ++b;
      items.push_back(a);
      items.push_back(b);
    }
    return items;
  }

  RawRequest mi_pairs_request() {
    RawRequest raw;
    raw.request.kind = static_cast<std::uint32_t>(cluster::QueryKind::MiPairs);
    raw.items = random_pair_items(1 + rng_.below(4));
    raw.request.count = static_cast<std::uint32_t>(raw.items.size());
    return raw;
  }

  /// A gene id the daemon does not have.
  std::uint32_t out_of_range_gene() {
    const std::uint64_t span =
        std::numeric_limits<std::uint32_t>::max() - n_genes_;
    return n_genes_ + static_cast<std::uint32_t>(rng_.below(span));
  }

  /// Sends `wire` on a fresh connection, closes the write side and reports
  /// how the daemon reacted.
  Outcome send_raw(std::span<const std::byte> wire) const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    if (fd < 0) return Outcome::Silent;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<std::uint16_t>(server_->port()));
    Outcome outcome = Outcome::Silent;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) == 0 &&
        (wire.empty() || ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) ==
                             static_cast<ssize_t>(wire.size()))) {
      ::shutdown(fd, SHUT_WR);
      pollfd ready{fd, POLLIN, 0};
      if (::poll(&ready, 1, 10'000) == 1) {
        cluster::FrameHeader header;
        std::vector<std::byte> payload;
        outcome = Outcome::Closed;
        if (cluster::read_frame(fd, header, payload)) {
          cluster::ServeResponseHeader response;
          if (header.kind == cluster::kFrameServeResponse &&
              payload.size() >= sizeof(response))
            std::memcpy(&response, payload.data(), sizeof(response));
          outcome = response.status == cluster::kServeError
                        ? Outcome::Error
                        : Outcome::Answered;
        }
      }
    }
    ::close(fd);
    return outcome;
  }

  void expect_outcome(std::span<const std::byte> wire, Outcome expected) {
    const Outcome got = send_raw(wire);
    EXPECT_EQ(got, expected) << "got " << outcome_name(got) << ", want "
                             << outcome_name(expected);
    expect_good_client_bit_matches();
  }

  /// The well-behaved client's MI answers still bit-match the batch sweep.
  void expect_good_client_bit_matches() {
    const std::vector<std::uint32_t> items = random_pair_items(3);
    std::vector<GenePair> pairs;
    for (std::size_t i = 0; i < items.size(); i += 2)
      pairs.push_back(GenePair{items[i], items[i + 1]});
    const std::vector<double> values = good_client_->mi_pairs(pairs);
    ASSERT_EQ(values.size(), pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const float batch = reference_->dense[pairs[i].a * n_genes_ + pairs[i].b];
      const float served = static_cast<float>(values[i]);
      ASSERT_EQ(std::bit_cast<std::uint32_t>(batch),
                std::bit_cast<std::uint32_t>(served))
          << "pair (" << pairs[i].a << ", " << pairs[i].b << ")";
    }
  }

  std::unique_ptr<BatchReference> reference_;
  std::uint32_t n_genes_ = 0;
  std::unique_ptr<ServeClient> good_client_;
  Xoshiro256 rng_{1};
};

TEST_P(ServeDecoderTest, RequestTruncatedAtEveryByteClosesTheConnection) {
  const RawRequest raw = mi_pairs_request();
  const std::vector<std::byte> wire = raw.encode();
  // The untruncated request is answered: the harness itself is sound.
  ASSERT_EQ(send_raw(wire), Outcome::Answered);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    SCOPED_TRACE(cut);
    expect_outcome(std::span(wire).first(cut), Outcome::Closed);
  }
}

TEST_P(ServeDecoderTest, LengthAboveTheRequestCapClosesTheConnection) {
  const std::uint64_t largest =
      std::numeric_limits<std::uint64_t>::max() - cluster::kMaxRequestBytes;
  for (const std::uint64_t over :
       {std::uint64_t(1), 1 + rng_.below(std::uint64_t(1) << 40), largest}) {
    cluster::FrameHeader header;
    header.kind = cluster::kFrameServeRequest;
    header.bytes = cluster::kMaxRequestBytes + over;
    SCOPED_TRACE(header.bytes);
    expect_outcome(std::as_bytes(std::span(&header, 1)), Outcome::Closed);
  }
}

TEST_P(ServeDecoderTest, WrongFrameKindClosesTheConnection) {
  std::vector<std::uint32_t> kinds = {
      cluster::kFrameData, cluster::kFrameHello, cluster::kFrameServeResponse,
      cluster::kFrameServeEvent};
  for (int i = 0; i < 4; ++i) {
    const auto kind = static_cast<std::uint32_t>(rng_.below(1ull << 32));
    if (kind != cluster::kFrameServeRequest) kinds.push_back(kind);
  }
  for (const std::uint32_t kind : kinds) {
    SCOPED_TRACE(kind);
    RawRequest raw = mi_pairs_request();
    raw.frame_kind = kind;
    expect_outcome(raw.encode(), Outcome::Closed);
  }
}

TEST_P(ServeDecoderTest, UnknownQueryKindGetsAnError) {
  const auto first_unknown =
      static_cast<std::uint32_t>(cluster::QueryKind::Shutdown) + 1;
  for (const std::uint32_t kind :
       {first_unknown,
        first_unknown + static_cast<std::uint32_t>(rng_.below(
                            std::numeric_limits<std::uint32_t>::max() -
                            first_unknown))}) {
    SCOPED_TRACE(kind);
    RawRequest raw = mi_pairs_request();
    raw.request.kind = kind;
    expect_outcome(raw.encode(), Outcome::Error);
  }
}

TEST_P(ServeDecoderTest, CountBeyondThePayloadGetsAnError) {
  for (const cluster::QueryKind kind :
       {cluster::QueryKind::MiPairs, cluster::QueryKind::Neighborhood,
        cluster::QueryKind::Subgraph}) {
    SCOPED_TRACE(cluster::query_kind_name(kind));
    RawRequest raw = mi_pairs_request();
    raw.request.kind = static_cast<std::uint32_t>(kind);
    raw.request.count += 1 + static_cast<std::uint32_t>(rng_.below(
                                 std::numeric_limits<std::uint32_t>::max() -
                                 raw.request.count));
    expect_outcome(raw.encode(), Outcome::Error);
  }
}

TEST_P(ServeDecoderTest, OddItemCountGetsAnError) {
  RawRequest raw = mi_pairs_request();
  raw.items.push_back(static_cast<std::uint32_t>(rng_.below(n_genes_)));
  raw.request.count = static_cast<std::uint32_t>(raw.items.size());
  expect_outcome(raw.encode(), Outcome::Error);
}

TEST_P(ServeDecoderTest, OutOfRangeGeneIdsGetAnError) {
  RawRequest pairs = mi_pairs_request();
  pairs.items[rng_.below(pairs.items.size())] = out_of_range_gene();
  expect_outcome(pairs.encode(), Outcome::Error);

  RawRequest neighborhood;
  neighborhood.request.kind =
      static_cast<std::uint32_t>(cluster::QueryKind::Neighborhood);
  neighborhood.items = {out_of_range_gene()};
  neighborhood.request.count = 1;
  expect_outcome(neighborhood.encode(), Outcome::Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeDecoderTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tinge
