// Serve-path correctness: every answer the query daemon hands out must be
// bit-identical to what the batch pipeline computes for the same dataset,
// estimator and seed — cold cache, warm cache, direct planner calls or the
// full framed-TCP round trip. Plus the daemon's failure discipline: a
// client vanishing mid-frame is routine, never fatal.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
#include "synth/expression.h"
#include "util/contracts.h"

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
std::size_t sweep_job_edges(ServeState& state) {
  ServeServer server(state, ServeOptions{});
  ServeClient client("127.0.0.1", server.port());
  return client.sweep_job().edges;
}

TEST(ServeSweepJob, ReportsTheServedConsensusNetwork) {
  TingeConfig config = test_config();
  config.consensus_resamples = 3;
  config.apply_dpi = true;
  ServeState state(test_expression(80, 96), config, ServeOptions{});
  ASSERT_GT(state.consensus_stats().kept_edges, 0u);
  EXPECT_EQ(sweep_job_edges(state), state.network().n_edges());
}

TEST(ServeSweepJob, ReportsTheServedDpiNetwork) {
  TingeConfig config = test_config();
  config.apply_dpi = true;
  ServeState state(test_expression(80, 96), config, ServeOptions{});
  ASSERT_GT(state.dpi_stats().edges_removed, 0u);  // DPI has work to do
  EXPECT_EQ(sweep_job_edges(state), state.network().n_edges());
}

TEST_F(ServeDaemonTest, ShutdownQueryReleasesWait) {
  std::thread waiter([this] { server_->wait(); });
  ServeClient client("127.0.0.1", server_->port());
  client.shutdown_server();
  waiter.join();  // deadlocks here = the query did not release wait()
  server_->stop();
  EXPECT_GE(server_->clients_served(), 1u);
}

}  // namespace
}  // namespace tinge
