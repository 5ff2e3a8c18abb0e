// Cluster baseline: the message-passing substrate and the distributed
// tile-lease all-pairs MI driver, validated against the single-chip engine.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <utility>

#include "cluster/inproc_transport.h"
#include "cluster/lease_mi.h"
#include "cluster/sharded_pipeline.h"
#include "core/mi_engine.h"
#include "core/network_builder.h"
#include "stats/rng.h"
#include "synth/expression.h"

namespace tinge::cluster {
namespace {

// ---- transport -----------------------------------------------------------------

TEST(Comm, PointToPointRoundtrip) {
  InProcessCluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> payload{1, 2, 3};
      comm.send_vector(1, payload, 7);
      const auto reply = comm.recv_vector<int>(1, 8);
      EXPECT_EQ(reply, (std::vector<int>{4, 5}));
    } else {
      const auto received = comm.recv_vector<int>(0, 7);
      EXPECT_EQ(received, (std::vector<int>{1, 2, 3}));
      comm.send_vector(0, std::vector<int>{4, 5}, 8);
    }
  });
  EXPECT_EQ(cluster.messages_sent(), 2u);
  EXPECT_EQ(cluster.bytes_transferred(), 3 * sizeof(int) + 2 * sizeof(int));
}

TEST(Comm, TagAndSourceMatching) {
  // Messages delivered out of interest order must still match correctly.
  InProcessCluster cluster(3);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const auto from2 = comm.recv_vector<int>(2, 5);   // sent "late"
      const auto from1 = comm.recv_vector<int>(1, 5);
      EXPECT_EQ(from1.at(0), 111);
      EXPECT_EQ(from2.at(0), 222);
      const auto tagged = comm.recv_vector<int>(1, 9);
      EXPECT_EQ(tagged.at(0), 999);
    } else if (comm.rank() == 1) {
      comm.send_vector(0, std::vector<int>{999}, 9);  // different tag first
      comm.send_vector(0, std::vector<int>{111}, 5);
    } else {
      comm.send_vector(0, std::vector<int>{222}, 5);
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  InProcessCluster cluster(4);
  std::atomic<int> counter{0};
  std::atomic<bool> torn{false};
  cluster.run([&](Comm& comm) {
    for (int phase = 0; phase < 10; ++phase) {
      ++counter;
      comm.barrier();
      if (counter.load() < 4 * (phase + 1)) torn = true;
      comm.barrier();
    }
  });
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(counter.load(), 40);
}

TEST(Comm, EmptyMessages) {
  InProcessCluster cluster(2);
  cluster.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, nullptr, 0, 1);
    } else {
      EXPECT_TRUE(comm.recv(0, 1).empty());
    }
  });
}

TEST(Comm, ExceptionInOneRankPropagates) {
  InProcessCluster cluster(2);
  EXPECT_THROW(cluster.run([](Comm& comm) {
                 if (comm.rank() == 1) throw std::runtime_error("rank boom");
               }),
               std::runtime_error);
}

TEST(Comm, SingleRankClusterWorks) {
  InProcessCluster cluster(1);
  int visits = 0;
  cluster.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    ++visits;
  });
  EXPECT_EQ(visits, 1);
}

// ---- ownership rule ---------------------------------------------------------------

TEST(BlockPairOwner, EveryPairOwnedExactlyOnceAndBalanced) {
  for (const int p : {2, 3, 4, 5, 8, 9}) {
    std::vector<int> owned(static_cast<std::size_t>(p), 0);
    for (int a = 0; a < p; ++a) {
      for (int b = a; b < p; ++b) {
        const int owner = block_pair_owner(a, b, p);
        EXPECT_TRUE(owner == a || owner == b);
        ++owned[static_cast<std::size_t>(owner)];
      }
    }
    const int total = std::accumulate(owned.begin(), owned.end(), 0);
    EXPECT_EQ(total, p * (p + 1) / 2);
    const auto [lo, hi] = std::minmax_element(owned.begin(), owned.end());
    EXPECT_LE(*hi - *lo, 1) << "p=" << p;  // classic rule balances to +-1
  }
}

// ---- distributed driver -------------------------------------------------------------

class ClusterMiFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 64;

  ClusterMiFixture() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(99);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g < 8 ? driver + 0.5 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
    config_.tile_size = 8;  // 10 tiles to lease (at 64 it would be one)
  }

  GeneNetwork single_chip(double threshold) const {
    const MiEngine engine(statistic_, ranked_);
    par::ThreadPool pool(1);
    TingeConfig config;
    config.threads = 1;
    return engine.compute_network(threshold, config, pool);
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
  TingeConfig config_;
};

TEST_F(ClusterMiFixture, MatchesSingleChipEngineForEveryRankCount) {
  const double threshold = 0.2;
  const GeneNetwork expected = single_chip(threshold);
  ASSERT_GT(expected.n_edges(), 0u);
  for (const int ranks : {1, 2, 3, 4, 7}) {
    ClusterStats stats;
    const GeneNetwork distributed = cluster_compute_network(
        statistic_, ranked_, threshold, ranks, config_, &stats);
    ASSERT_EQ(distributed.n_edges(), expected.n_edges()) << ranks << " ranks";
    for (std::size_t i = 0; i < expected.n_edges(); ++i) {
      EXPECT_EQ(distributed.edges()[i].u, expected.edges()[i].u);
      EXPECT_EQ(distributed.edges()[i].v, expected.edges()[i].v);
      EXPECT_EQ(distributed.edges()[i].weight, expected.edges()[i].weight);
    }
    EXPECT_EQ(stats.pairs_total, kGenes * (kGenes - 1) / 2);
    EXPECT_EQ(stats.ranks, ranks);
  }
}

TEST_F(ClusterMiFixture, SingleRankMovesNoBlockData) {
  ClusterStats stats;
  cluster_compute_network(statistic_, ranked_, 0.2, 1, config_, &stats);
  EXPECT_EQ(stats.bytes_transferred, 0u);  // no workers, results stay on rank 0
}

TEST_F(ClusterMiFixture, TrafficIsLeasesAndEdgesNeverRankRows) {
  // Every rank ranks the whole matrix itself, so the wire carries only the
  // protocol: per worker tile an 8-byte grant entry, a 16-byte done header
  // and 12 bytes per surviving edge, plus each worker's closing request
  // and empty release grant. TINGe-classic's ring moved every gene block
  // around the ring instead — (P-1) * n * m * 4 bytes, 7,680 at two ranks.
  const double threshold = 0.2;
  const std::size_t edges = single_chip(threshold).n_edges();
  const std::size_t tiles =
      SweepPlan::triangular(0, kGenes, config_.tile_size).count();
  for (const int ranks : {2, 4}) {
    ClusterStats stats;
    cluster_compute_network(statistic_, ranked_, threshold, ranks, config_,
                            &stats);
    EXPECT_GE(stats.messages, 2u * static_cast<std::size_t>(ranks - 1));
    EXPECT_LE(stats.bytes_transferred, (8 + 16) * tiles + 12 * edges)
        << ranks << " ranks";
  }
}

TEST_F(ClusterMiFixture, MoreRanksThanGenesStillCorrect) {
  ExpressionMatrix tiny(3, 64);
  Xoshiro256 rng(5);
  for (std::size_t g = 0; g < 3; ++g)
    for (std::size_t s = 0; s < 64; ++s)
      tiny.at(g, s) = static_cast<float>(rng.normal());
  const RankedMatrix ranked(tiny);
  ClusterStats stats;
  const GeneNetwork network = cluster_compute_network(
      statistic_, ranked, -1.0, 6, config_, &stats);
  EXPECT_EQ(network.n_edges(), 3u);  // all pairs kept at threshold < 0
  EXPECT_EQ(stats.pairs_total, 3u);
}

TEST_F(ClusterMiFixture, TcpTransportMatchesSingleChipEngine) {
  const double threshold = 0.2;
  const GeneNetwork expected = single_chip(threshold);
  ASSERT_GT(expected.n_edges(), 0u);
  for (const int ranks : {2, 4}) {
    ClusterStats stats;
    const GeneNetwork distributed =
        cluster_compute_network(statistic_, ranked_, threshold, ranks, config_,
                                &stats, TransportKind::Tcp);
    ASSERT_EQ(distributed.n_edges(), expected.n_edges()) << ranks << " ranks";
    for (std::size_t i = 0; i < expected.n_edges(); ++i) {
      EXPECT_EQ(distributed.edges()[i].u, expected.edges()[i].u);
      EXPECT_EQ(distributed.edges()[i].v, expected.edges()[i].v);
      EXPECT_EQ(distributed.edges()[i].weight, expected.edges()[i].weight);
    }
    EXPECT_EQ(stats.transport, "tcp");
    // Rank 0 may sweep all ten tiles before a worker's first request lands
    // (payload bytes 0), but every worker's closing request and empty
    // release grant cross the sockets.
    EXPECT_GE(stats.messages, 2u * static_cast<std::size_t>(ranks - 1));
    ASSERT_EQ(stats.bytes_per_rank.size(), static_cast<std::size_t>(ranks));
  }
}

// ---- sharded full pipeline ---------------------------------------------------

TEST(ShardedPipeline, MatchesSingleProcessBuilderOnBothTransports) {
  GrnParams grn;
  grn.n_genes = 40;
  ExpressionParams arrays;
  arrays.n_samples = 64;
  const ExpressionMatrix expression =
      simulate_expression(generate_grn(grn), arrays);

  TingeConfig config;
  config.permutations = 200;
  config.alpha = 0.01;
  config.threads = 1;
  NetworkBuilder builder(config);
  const BuildResult expected = builder.build(expression);
  ASSERT_GT(expected.network.n_edges(), 0u);

  // One rank runs the single-process session; three shard the sweep.
  const std::pair<TransportKind, int> runs[] = {
      {TransportKind::InProcess, 1},
      {TransportKind::InProcess, 3},
      {TransportKind::Tcp, 3}};
  for (const auto& [kind, ranks] : runs) {
    const auto cluster = make_cluster(kind, ranks);
    ShardedBuildResult result;
    cluster->run([&](Comm& comm) {
      ShardedBuildResult local = sharded_build(comm, expression, config);
      if (comm.rank() == 0) result = std::move(local);
    });
    EXPECT_EQ(result.threshold, expected.threshold);
    EXPECT_EQ(result.marginal_entropy, expected.marginal_entropy);
    EXPECT_EQ(result.genes_used, expected.genes_used);
    ASSERT_EQ(result.network.n_edges(), expected.network.n_edges())
        << transport_kind_name(kind) << ", " << ranks << " ranks";
    for (std::size_t i = 0; i < expected.network.n_edges(); ++i) {
      EXPECT_EQ(result.network.edges()[i].u, expected.network.edges()[i].u);
      EXPECT_EQ(result.network.edges()[i].v, expected.network.edges()[i].v);
      EXPECT_EQ(result.network.edges()[i].weight,
                expected.network.edges()[i].weight);
    }
    EXPECT_EQ(result.cluster.ranks, ranks);
    EXPECT_EQ(result.cluster.transport, transport_kind_name(kind));
    ASSERT_EQ(result.cluster.bytes_per_rank.size(),
              static_cast<std::size_t>(ranks));
    if (ranks > 1) {
      EXPECT_GT(result.cluster.bytes_transferred, 0u);
    }
    EXPECT_EQ(result.pairs_total,
              expected.genes_used * (expected.genes_used - 1) / 2);

    // The manifest section carries the traffic accounting.
    const obs::Json manifest = make_cluster_run_manifest(result, config);
    const std::string document = manifest.dump();
    EXPECT_NE(document.find("\"cluster\""), std::string::npos);
    EXPECT_NE(document.find("\"bytes_per_rank\""), std::string::npos);
    EXPECT_NE(document.find("\"imbalance\""), std::string::npos);
  }
}

TEST(ShardedPipeline, FailureManifestAttributesTheFirstFailedRank) {
  TingeConfig config;
  config.cluster_ranks = 3;
  config.cluster_transport = "tcp";
  std::vector<WorkerExit> exits(3);
  exits[0] = {/*rank=*/0, /*exit_code=*/143, /*reap_order=*/2};
  exits[1] = {/*rank=*/1, /*exit_code=*/40, /*reap_order=*/0};
  exits[2] = {/*rank=*/2, /*exit_code=*/kWorkerExitPeerFailure,
              /*reap_order=*/1};
  const obs::Json manifest = make_cluster_failure_manifest(
      config, exits, "tinge_cli --synthetic=60 --cluster=3");
  const std::string document = manifest.dump();
  EXPECT_NE(document.find("\"status\": \"failed\""), std::string::npos)
      << document;
  EXPECT_NE(document.find("\"first_failed_rank\": 1"), std::string::npos)
      << document;
  EXPECT_NE(document.find("exited with code 40"), std::string::npos);
  EXPECT_NE(document.find("peer failure"), std::string::npos);
  EXPECT_NE(document.find("\"resume_command\""), std::string::npos);

  // No resume command -> the key is omitted, not emitted empty.
  const obs::Json bare = make_cluster_failure_manifest(config, exits, "");
  EXPECT_EQ(bare.dump().find("resume_command"), std::string::npos);
}

}  // namespace
}  // namespace tinge::cluster
