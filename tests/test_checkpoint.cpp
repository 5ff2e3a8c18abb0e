// Checkpoint/restart: journal format roundtrips, torn-tail tolerance,
// signature validation, and failure-injected resume of the MI engine.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "core/pair_statistic.h"
#include "data/tsv_io.h"
#include "stats/rng.h"

namespace tinge {
namespace {

class CheckpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

RunSignature test_signature() {
  return RunSignature{100, 64, 16, 10, 3, 0.25};
}

TEST_F(CheckpointFixture, RoundtripRecords) {
  const RunSignature signature = test_signature();
  {
    CheckpointWriter writer(path("a.ckpt"), signature);
    const Edge edges1[] = {{0, 1, 0.5f}, {2, 9, 0.75f}};
    writer.append_tile(4, edges1);
    writer.append_tile(7, {});  // a tile can have zero surviving edges
    const Edge edges3[] = {{5, 6, 1.25f}};
    writer.append_tile(2, edges3);
  }
  const CheckpointState state = load_checkpoint(path("a.ckpt"));
  EXPECT_EQ(state.signature, signature);
  EXPECT_FALSE(state.tail_truncated);
  EXPECT_EQ(state.completed_tiles(),
            (std::vector<std::uint64_t>{2, 4, 7}));
  const auto edges = state.all_edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1, 0.5f}));
  EXPECT_EQ(edges[2], (Edge{5, 6, 1.25f}));
}

TEST_F(CheckpointFixture, TornTailIsDiscarded) {
  const RunSignature signature = test_signature();
  {
    CheckpointWriter writer(path("t.ckpt"), signature);
    const Edge edges[] = {{0, 1, 0.5f}};
    writer.append_tile(1, edges);
    writer.append_tile(2, edges);
  }
  // Chop bytes off the final record.
  const auto full = std::filesystem::file_size(path("t.ckpt"));
  std::filesystem::resize_file(path("t.ckpt"), full - 5);
  const CheckpointState state = load_checkpoint(path("t.ckpt"));
  EXPECT_TRUE(state.tail_truncated);
  EXPECT_EQ(state.completed_tiles(), (std::vector<std::uint64_t>{1}));
}

TEST_F(CheckpointFixture, DuplicateTilesKeepFirstRecord) {
  const RunSignature signature = test_signature();
  {
    CheckpointWriter writer(path("d.ckpt"), signature);
    const Edge first[] = {{0, 1, 0.5f}};
    const Edge second[] = {{0, 2, 0.9f}};
    writer.append_tile(3, first);
    writer.append_tile(3, second);  // replay after resume writes again
  }
  const CheckpointState state = load_checkpoint(path("d.ckpt"));
  EXPECT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.all_edges()[0].v, 1u);
}

TEST_F(CheckpointFixture, TornTailWithGarbageCountDoesNotOverReserve) {
  // A crash can tear the trailing record mid-write, leaving a bogus edge
  // count (e.g. 0xFFFFFFFF) with no payload behind it. The loader must
  // treat it as a torn tail — and must not trust the count enough to
  // pre-allocate gigabytes before discovering the truncation.
  const RunSignature signature = test_signature();
  {
    CheckpointWriter writer(path("g.ckpt"), signature);
    const Edge edges[] = {{0, 1, 0.5f}};
    writer.append_tile(1, edges);
  }
  {
    std::ofstream out(path("g.ckpt"),
                      std::ios::binary | std::ios::app);
    const std::uint64_t tile = 9;
    const std::uint32_t absurd_count = 0xFFFFFFFFu;
    out.write(reinterpret_cast<const char*>(&tile), sizeof(tile));
    out.write(reinterpret_cast<const char*>(&absurd_count),
              sizeof(absurd_count));
    out.write("torn", 4);  // a fraction of the first promised edge
  }
  const CheckpointState state = load_checkpoint(path("g.ckpt"));
  EXPECT_TRUE(state.tail_truncated);
  EXPECT_EQ(state.completed_tiles(), (std::vector<std::uint64_t>{1}));
}

TEST_F(CheckpointFixture, SyncFlushesRecordsToDisk) {
  // sync() (the sweep sink calls it on progress-throttle boundaries) must
  // make everything appended so far durable + loadable while the writer is
  // still open — that is the whole crash-consistency contract.
  const RunSignature signature = test_signature();
  CheckpointWriter writer(path("y.ckpt"), signature);
  const Edge edges[] = {{3, 4, 0.6f}};
  writer.append_tile(11, edges);
  writer.sync();
  const CheckpointState state = load_checkpoint(path("y.ckpt"));
  EXPECT_EQ(state.completed_tiles(), (std::vector<std::uint64_t>{11}));
  EXPECT_FALSE(state.tail_truncated);
  writer.close();
}

TEST_F(CheckpointFixture, RejectsGarbageAndMissingFiles) {
  EXPECT_THROW(load_checkpoint(path("absent.ckpt")), IoError);
  {
    std::ofstream out(path("junk.ckpt"), std::ios::binary);
    out << "this is not a checkpoint at all, not even close";
  }
  EXPECT_THROW(load_checkpoint(path("junk.ckpt")), IoError);
}

TEST_F(CheckpointFixture, SignatureMatching) {
  const RunSignature signature = test_signature();
  { CheckpointWriter writer(path("s.ckpt"), signature); }
  EXPECT_TRUE(checkpoint_matches(path("s.ckpt"), signature));
  RunSignature other = signature;
  other.threshold = 0.5;
  EXPECT_FALSE(checkpoint_matches(path("s.ckpt"), other));
  other = signature;
  other.n_genes = 101;
  EXPECT_FALSE(checkpoint_matches(path("s.ckpt"), other));
  EXPECT_FALSE(checkpoint_matches(path("missing.ckpt"), signature));
}

// ---- engine integration -----------------------------------------------------

class EngineCheckpointFixture : public CheckpointFixture {
 protected:
  static constexpr std::size_t kGenes = 36;
  static constexpr std::size_t kSamples = 96;

  EngineCheckpointFixture()
      : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(77);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g) {
        matrix.at(g, s) = static_cast<float>(
            g < 10 ? driver + 0.4 * rng.normal() : rng.normal());
      }
    }
    ranked_ = RankedMatrix(matrix);
  }

  TingeConfig config() const {
    TingeConfig c;
    c.tile_size = 6;
    c.threads = 2;
    // Failure injection needs the callback after every tile: at 21 tiles
    // (under 256) the progress throttle reports each one.
    return c;
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
};

TEST_F(EngineCheckpointFixture, FreshRunMatchesPlainEngineAndCleansUp) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const double threshold = 0.2;

  const GeneNetwork plain =
      engine.compute_network(threshold, config(), pool);
  EngineStats stats;
  const GeneNetwork checkpointed = engine.compute_network_checkpointed(
      threshold, config(), pool, path("run.ckpt"), &stats);

  ASSERT_EQ(plain.n_edges(), checkpointed.n_edges());
  for (std::size_t i = 0; i < plain.n_edges(); ++i)
    EXPECT_EQ(plain.edges()[i], checkpointed.edges()[i]);
  EXPECT_EQ(stats.pairs_computed, kGenes * (kGenes - 1) / 2);
  EXPECT_FALSE(std::filesystem::exists(path("run.ckpt")))
      << "checkpoint must be removed after success";
}

TEST_F(EngineCheckpointFixture, ResumesAfterInjectedCrash) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const double threshold = 0.2;
  const GeneNetwork expected =
      engine.compute_network(threshold, config(), pool);

  // Crash after 5 tiles.
  struct InjectedCrash : std::runtime_error {
    InjectedCrash() : std::runtime_error("injected") {}
  };
  EXPECT_THROW(engine.compute_network_checkpointed(
                   threshold, config(), pool, path("crash.ckpt"), nullptr,
                   [](std::size_t done, std::size_t) {
                     if (done >= 5) throw InjectedCrash();
                   }),
               InjectedCrash);
  ASSERT_TRUE(std::filesystem::exists(path("crash.ckpt")));
  const CheckpointState partial = load_checkpoint(path("crash.ckpt"));
  EXPECT_GE(partial.completed_tiles().size(), 5u);
  const std::size_t total_tiles = TileSet(kGenes, 6).count();
  EXPECT_LT(partial.completed_tiles().size(), total_tiles);

  // Resume: must recompute only the remainder and agree exactly.
  std::size_t resumed_new_tiles = 0;
  EngineStats stats;
  const GeneNetwork resumed = engine.compute_network_checkpointed(
      threshold, config(), pool, path("crash.ckpt"), &stats,
      [&](std::size_t, std::size_t) { ++resumed_new_tiles; });

  ASSERT_EQ(expected.n_edges(), resumed.n_edges());
  for (std::size_t i = 0; i < expected.n_edges(); ++i)
    EXPECT_EQ(expected.edges()[i], resumed.edges()[i]);
  // pairs_computed covers the full pass; the replayed subset is broken out
  // so resumed and fresh runs report the same totals.
  EXPECT_EQ(stats.pairs_computed, kGenes * (kGenes - 1) / 2);
  EXPECT_GT(stats.pairs_resumed, 0u);
  EXPECT_LT(stats.pairs_resumed, stats.pairs_computed);
  EXPECT_EQ(stats.tiles_resumed, partial.completed_tiles().size());
  EXPECT_EQ(resumed_new_tiles + partial.completed_tiles().size(), total_tiles);
}

TEST_F(EngineCheckpointFixture, RepeatedCrashesEventuallyComplete) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  const double threshold = 0.2;
  const GeneNetwork expected =
      engine.compute_network(threshold, config(), pool);

  // Crash after every 4 new tiles until the run fits in the budget.
  GeneNetwork result;
  int attempts = 0;
  while (true) {
    ++attempts;
    ASSERT_LT(attempts, 50) << "resume is not making progress";
    try {
      std::size_t new_tiles = 0;
      result = engine.compute_network_checkpointed(
          threshold, config(), pool, path("flaky.ckpt"), nullptr,
          [&](std::size_t, std::size_t) {
            if (++new_tiles > 4) throw std::runtime_error("injected");
          });
      break;
    } catch (const std::runtime_error&) {
      continue;
    }
  }
  ASSERT_EQ(expected.n_edges(), result.n_edges());
  for (std::size_t i = 0; i < expected.n_edges(); ++i)
    EXPECT_EQ(expected.edges()[i], result.edges()[i]);
  EXPECT_GT(attempts, 2);
}

TEST_F(EngineCheckpointFixture, MismatchedCheckpointIsIgnored) {
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  // A checkpoint from a different threshold must not be resumed from.
  {
    CheckpointWriter writer(path("other.ckpt"),
                            RunSignature{kGenes, kSamples, 6, 10, 3, 0.9});
    const Edge bogus[] = {{0, 1, 99.0f}};
    writer.append_tile(0, bogus);
  }
  const GeneNetwork network = engine.compute_network_checkpointed(
      0.2, config(), pool, path("other.ckpt"));
  const GeneNetwork expected = engine.compute_network(0.2, config(), pool);
  EXPECT_EQ(network.n_edges(), expected.n_edges());
  for (const Edge& e : network.edges()) EXPECT_LT(e.weight, 10.0f);
}

/// Writes a version 2 journal field by field: magic, version, the 48-byte
/// signature (estimator, then the zero slot version 3 uses for the
/// accumulation order) and one record.
void write_v2_journal(const std::string& path, std::uint64_t n_genes,
                      std::uint64_t n_samples, std::uint64_t tile,
                      double threshold, EstimatorKind estimator,
                      std::uint32_t order = 3) {
  std::ofstream out(path, std::ios::binary);
  out.write("TNGC", 4);
  const std::uint32_t version = 2;
  out.write(reinterpret_cast<const char*>(&version), 4);
  const std::uint32_t bins = 10;
  const auto kind = static_cast<std::uint32_t>(estimator);
  const std::uint32_t zero = 0;
  out.write(reinterpret_cast<const char*>(&n_genes), 8);
  out.write(reinterpret_cast<const char*>(&n_samples), 8);
  out.write(reinterpret_cast<const char*>(&tile), 8);
  out.write(reinterpret_cast<const char*>(&bins), 4);
  out.write(reinterpret_cast<const char*>(&order), 4);
  out.write(reinterpret_cast<const char*>(&threshold), 8);
  out.write(reinterpret_cast<const char*>(&kind), 4);
  out.write(reinterpret_cast<const char*>(&zero), 4);
  const std::uint64_t tile_index = 0;
  const std::uint32_t edge_count = 1, u = 0, v = 1;
  const float weight = 99.0f;
  out.write(reinterpret_cast<const char*>(&tile_index), 8);
  out.write(reinterpret_cast<const char*>(&edge_count), 4);
  out.write(reinterpret_cast<const char*>(&u), 4);
  out.write(reinterpret_cast<const char*>(&v), 4);
  out.write(reinterpret_cast<const char*>(&weight), 4);
}

TEST_F(CheckpointFixture, Version3JournalsRecordTheAccumulationOrder) {
  { CheckpointWriter writer(path("v3.ckpt"), test_signature()); }
  const CheckpointState state = load_checkpoint(path("v3.ckpt"));
  EXPECT_EQ(state.version, kCheckpointVersion);
  EXPECT_EQ(state.version, 3u);
  EXPECT_EQ(state.accumulation, kAccumulationOrder);
  EXPECT_EQ(state.signature, test_signature());

  write_v2_journal(path("v2.ckpt"), 100, 64, 16, 0.25,
                   EstimatorKind::Bspline);
  const CheckpointState old = load_checkpoint(path("v2.ckpt"));
  EXPECT_EQ(old.version, 2u);
  EXPECT_EQ(old.accumulation, 0u);
  EXPECT_EQ(old.signature, test_signature());
}

TEST_F(EngineCheckpointFixture, Version2BsplineJournalIsRefused) {
  // A journal of this very run (same genes, samples, tiles, threshold and
  // estimator) from the sample-order kernels: its values differ from this
  // build's in the last bits, so resuming it would mix two arithmetics.
  const double threshold = 0.2;
  write_v2_journal(path("old.ckpt"), kGenes, kSamples, 6, threshold,
                   EstimatorKind::Bspline);
  const MiEngine engine(statistic_, ranked_);
  par::ThreadPool pool(2);
  try {
    engine.compute_network_checkpointed(threshold, config(), pool,
                                        path("old.ckpt"));
    FAIL() << "a version 2 B-spline journal resumed";
  } catch (const ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
  // The refused journal is left for the operator, untouched.
  EXPECT_EQ(load_checkpoint(path("old.ckpt")).version, 2u);
}

TEST_F(EngineCheckpointFixture, Version2JournalOfAnotherStatisticStillResumes) {
  // Only B-spline arithmetic changed order: a version 2 journal of a
  // statistic without the B-spline kernel resumes as before.
  const double threshold = 0.05;
  TingeConfig cfg = config();
  cfg.estimator = EstimatorKind::Histogram;
  const std::unique_ptr<PairStatistic> statistic =
      make_pair_statistic(cfg, ranked_);
  const MiEngine engine(*statistic, ranked_);
  par::ThreadPool pool(2);
  write_v2_journal(path("hist.ckpt"), kGenes, kSamples, 6, threshold,
                   EstimatorKind::Histogram, statistic->signature_order());
  EngineStats stats;
  const GeneNetwork resumed = engine.compute_network_checkpointed(
      threshold, cfg, pool, path("hist.ckpt"), &stats);
  EXPECT_EQ(stats.tiles_resumed, 1u);
  EXPECT_GT(resumed.n_edges(), 0u);
  EXPECT_EQ(resumed.edge_weight(0, 1), 99.0f);  // the journaled record
}

}  // namespace
}  // namespace tinge
