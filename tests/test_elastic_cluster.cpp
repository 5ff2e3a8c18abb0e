// Elastic cluster: the rank-0 tile-lease protocol and its
// partition-independent checkpoint journal, proven by a randomized
// fault x topology soak.
//
// Layers under test, bottom up:
//   * LeaseLedger in isolation — a seeded property sweep model-checks the
//     grant/complete/reclaim state machine over hundreds of random
//     interleavings (every tile granted exactly once at a time, none lost,
//     work conserved when a holder dies);
//   * checkpoint conformance — a 4-rank journal restores on 1, 2 and 8
//     ranks, through duplicate-record and torn-tail corruption, and the
//     on-disk v1 byte format is pinned;
//   * the full sweep — lease_sweep over {2,3,4,8} ranks x {inproc,tcp}
//     x {healthy, straggler, worker-kill, master-kill + resume}, always
//     asserting byte-identity against the single-process engine and
//     lease-counter reconciliation (granted = completed + reclaimed).
//
// Every randomized case derives from one seed (override with the
// TINGEX_ELASTIC_SEED environment variable); failures print the case's
// parameters so a red run replays exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cluster/faulty_transport.h"
#include "cluster/lease_mi.h"
#include "core/checkpoint.h"
#include "core/mi_engine.h"
#include "core/sweep.h"
#include "parallel/thread_pool.h"
#include "stats/rng.h"

namespace tinge::cluster {
namespace {

std::uint64_t soak_seed() {
  if (const char* env = std::getenv("TINGEX_ELASTIC_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 20260808ull;
}

// ---- LeaseLedger in isolation -------------------------------------------------

TEST(LeaseLedger, GrantsInLptOrderAndCompletes) {
  const SweepPlan plan = SweepPlan::triangular(0, 30, 8);  // 10 tiles
  LeaseLedger ledger(plan);
  EXPECT_EQ(ledger.tiles_total(), plan.count());
  EXPECT_FALSE(ledger.done());

  const auto first = ledger.grant(1, 3);
  ASSERT_EQ(first.size(), 3u);
  // LPT: the first grants carry the largest pair counts in the plan.
  std::size_t max_pairs = 0;
  for (std::size_t t = 0; t < plan.count(); ++t)
    max_pairs = std::max(max_pairs, plan.tile(t).pair_count());
  EXPECT_EQ(plan.tile(static_cast<std::size_t>(first[0])).pair_count(),
            max_pairs);
  for (std::size_t i = 1; i < first.size(); ++i)
    EXPECT_GE(plan.tile(static_cast<std::size_t>(first[i - 1])).pair_count(),
              plan.tile(static_cast<std::size_t>(first[i])).pair_count());

  for (const std::uint64_t t : first) ledger.complete(1, t);
  while (!ledger.drained())
    for (const std::uint64_t t : ledger.grant(0, 2)) ledger.complete(0, t);
  EXPECT_TRUE(ledger.done());
  EXPECT_EQ(ledger.leases_granted(), plan.count());
  EXPECT_EQ(ledger.tiles_completed(), plan.count());
  EXPECT_EQ(ledger.tiles_reclaimed(), 0u);
}

TEST(LeaseLedger, ReclaimRequeuesAtTheFront) {
  const SweepPlan plan = SweepPlan::triangular(0, 30, 8);
  LeaseLedger ledger(plan);
  const auto doomed = ledger.grant(2, 2);
  ASSERT_EQ(doomed.size(), 2u);
  const auto reclaimed = ledger.reclaim(2);
  EXPECT_EQ(std::set<std::uint64_t>(reclaimed.begin(), reclaimed.end()),
            std::set<std::uint64_t>(doomed.begin(), doomed.end()));
  // The dead rank's tiles preempt the LPT tail: the very next grant hands
  // them out again, lowest index first.
  const auto regrant = ledger.grant(0, 2);
  std::vector<std::uint64_t> expected(reclaimed);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(regrant, expected);
  EXPECT_EQ(ledger.tiles_reclaimed(), 2u);
}

TEST(LeaseLedger, ResumedTilesAreNeverGranted) {
  const SweepPlan plan = SweepPlan::triangular(0, 30, 8);
  std::vector<char> resumed(plan.count(), 0);
  resumed[0] = 1;
  resumed[4] = 1;
  LeaseLedger ledger(plan, &resumed);
  EXPECT_EQ(ledger.tiles_resumed(), 2u);
  std::set<std::uint64_t> granted;
  while (!ledger.drained())
    for (const std::uint64_t t : ledger.grant(0, 4)) {
      granted.insert(t);
      ledger.complete(0, t);
    }
  EXPECT_TRUE(ledger.done());
  EXPECT_EQ(granted.size(), plan.count() - 2);
  EXPECT_FALSE(granted.count(0));
  EXPECT_FALSE(granted.count(4));
}

/// ~500 seeded random interleavings of grant/complete/reclaim against an
/// independent model of who holds what. The protocol's work-conservation
/// contract must hold in every trace: a tile is never granted while leased
/// or done, a holder's death loses nothing, and the ledger always drains
/// to done with granted = completed + reclaimed.
TEST(LeaseLedger, PropertyRandomizedInterleavings) {
  std::mt19937_64 rng(soak_seed() ^ 0x1ed9e4);
  for (int iteration = 0; iteration < 500; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " seed " +
                 std::to_string(soak_seed()));
    const std::size_t n = 8 + rng() % 50;
    const std::size_t tile = 4 + rng() % 12;
    const SweepPlan plan = SweepPlan::triangular(0, n, tile);
    const int ranks = 1 + static_cast<int>(rng() % 5);

    std::vector<char> resumed(plan.count(), 0);
    std::size_t n_resumed = 0;
    if (rng() % 2 == 0)
      for (std::size_t t = 0; t < plan.count(); ++t)
        if (rng() % 4 == 0) {
          resumed[t] = 1;
          ++n_resumed;
        }
    LeaseLedger ledger(plan, &resumed);
    ASSERT_EQ(ledger.tiles_resumed(), n_resumed);

    // Model state: which rank holds which tiles, and which are done.
    std::vector<std::set<std::uint64_t>> held(static_cast<std::size_t>(ranks));
    std::set<std::uint64_t> done_tiles;
    std::size_t model_reclaims = 0;

    std::size_t guard = 0;
    const std::size_t guard_limit = 64 * plan.count() + 256;
    while (!ledger.done()) {
      ASSERT_LT(guard++, guard_limit) << "ledger failed to drain";
      const int rank = static_cast<int>(rng() % ranks);
      const int action = static_cast<int>(rng() % 8);
      if (action < 3 && !ledger.drained()) {
        for (const std::uint64_t t : ledger.grant(rank, 1 + rng() % 4)) {
          // Never a tile someone holds, never one already done or resumed.
          for (const auto& holdings : held) ASSERT_FALSE(holdings.count(t));
          ASSERT_FALSE(done_tiles.count(t));
          ASSERT_FALSE(resumed[static_cast<std::size_t>(t)]);
          held[static_cast<std::size_t>(rank)].insert(t);
        }
      } else if (action < 4 && ranks > 1 &&
                 !held[static_cast<std::size_t>(rank)].empty()) {
        // Holder death: everything it held must come back, exactly once.
        const auto reclaimed = ledger.reclaim(rank);
        ASSERT_EQ(std::set<std::uint64_t>(reclaimed.begin(), reclaimed.end()),
                  held[static_cast<std::size_t>(rank)]);
        model_reclaims += reclaimed.size();
        held[static_cast<std::size_t>(rank)].clear();
      } else if (!held[static_cast<std::size_t>(rank)].empty()) {
        const std::uint64_t t = *held[static_cast<std::size_t>(rank)].begin();
        ledger.complete(rank, t);
        held[static_cast<std::size_t>(rank)].erase(t);
        done_tiles.insert(t);
      } else if (ledger.drained()) {
        // Drained with this rank idle: force progress through another rank
        // (exactly what the master's blocking-recv path does).
        const int holder = ledger.lowest_holder();
        if (holder >= 0) {
          const std::uint64_t t =
              *held[static_cast<std::size_t>(holder)].begin();
          ledger.complete(holder, t);
          held[static_cast<std::size_t>(holder)].erase(t);
          done_tiles.insert(t);
        }
      }
    }
    EXPECT_EQ(done_tiles.size() + n_resumed, plan.count());
    EXPECT_EQ(ledger.tiles_completed(), done_tiles.size());
    EXPECT_EQ(ledger.tiles_reclaimed(), model_reclaims);
    EXPECT_EQ(ledger.leases_granted(),
              ledger.tiles_completed() + ledger.tiles_reclaimed());
    EXPECT_EQ(ledger.outstanding(), 0u);
  }
}

// ---- ClusterStats imbalance regression ---------------------------------------

TEST(ClusterStats, ImbalanceIgnoresRanksThatComputedNothing) {
  ClusterStats stats;
  // Regression: a rank with zero pairs (more ranks than gene blocks) used
  // to turn the ratio into max/0 garbage.
  stats.pairs_per_rank = {0, 100, 50};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 2.0);
  stats.pairs_per_rank = {0, 0, 100};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);  // one active rank: balanced
  stats.pairs_per_rank = {0, 0, 0};
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
  stats.pairs_per_rank.clear();
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
}

TEST(ClusterStats, WallImbalanceUsesBusySecondsOfActiveRanks) {
  ClusterStats stats;
  stats.pairs_per_rank = {100, 100, 0, 100};
  stats.busy_seconds_per_rank = {1.0, 4.0, 9.0, 2.0};  // idle rank excluded
  EXPECT_DOUBLE_EQ(stats.imbalance_post(), 4.0);
  // Rates: 100, 25, 50 pairs/s over the active ranks.
  EXPECT_DOUBLE_EQ(stats.imbalance_pre(), 4.0);
  stats.busy_seconds_per_rank = {1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(stats.imbalance_post(), 1.0);
}

// ---- the full elastic sweep ---------------------------------------------------

class ElasticClusterFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kGenes = 30;
  static constexpr std::size_t kSamples = 64;
  static constexpr double kThreshold = 0.2;

  ElasticClusterFixture() : estimator_(10, 3, kSamples) {
    ExpressionMatrix matrix(kGenes, kSamples);
    Xoshiro256 rng(99);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const double driver = rng.normal();
      for (std::size_t g = 0; g < kGenes; ++g)
        matrix.at(g, s) = static_cast<float>(
            g < 8 ? driver + 0.5 * rng.normal() : rng.normal());
    }
    ranked_ = RankedMatrix(matrix);
    config_.threads = 1;
    config_.tile_size = 8;  // 10 tiles: enough to steal, fast to sweep
    dir_ = std::filesystem::temp_directory_path() /
           ("tingex_elastic_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  ~ElasticClusterFixture() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  GeneNetwork single_chip() const {
    const MiEngine engine(statistic_, ranked_);
    par::ThreadPool pool(1);
    return engine.compute_network(kThreshold, config_, pool);
  }

  RunSignature lease_signature() const {
    return RunSignature{
        kGenes,
        kSamples,
        config_.tile_size,
        static_cast<std::uint32_t>(estimator_.basis().bins()),
        static_cast<std::uint32_t>(estimator_.basis().order()),
        kThreshold};
  }

  struct LeaseRun {
    GeneNetwork network;
    LeaseSweepReport report;
    bool completed = false;  ///< rank 0 delivered a merged network
    bool faulted = false;    ///< Cluster::run rethrew an exception
  };

  /// Runs lease_sweep on `ranks` endpoints; each rank wraps its transport
  /// in the FaultPlan (if any) whose `rank` field names it, so a test can
  /// straggle one rank while op-kill another.
  LeaseRun run_lease(int ranks, TransportKind kind,
                     const std::vector<FaultPlan>& faults = {},
                     const std::string& checkpoint = "") {
    TingeConfig config = config_;
    config.checkpoint_path = checkpoint;
    LeaseRun out;
    const auto cluster = make_cluster(kind, ranks);
    try {
      cluster->run([&](Comm& comm) {
        const FaultPlan* own = nullptr;
        for (const FaultPlan& plan : faults)
          if (plan.rank == comm.rank() || plan.rank < 0) own = &plan;
        LeaseSweepReport report;
        GeneNetwork network = [&] {
          if (own != nullptr) {
            FaultyTransport faulty(comm.transport(), *own);
            Comm endpoint(faulty);
            return lease_sweep(endpoint, statistic_, ranked_, kThreshold,
                               config, &report);
          }
          return lease_sweep(comm, statistic_, ranked_, kThreshold, config,
                             &report);
        }();
        if (comm.rank() == 0) {
          out.network = std::move(network);
          out.report = report;
          out.completed = true;
        }
      });
    } catch (const std::runtime_error&) {
      // An injected kill (or the PeerFailureError it caused elsewhere) is
      // rethrown by Cluster::run after every rank joined; a completed
      // rank-0 result is still valid — exactly tinge_cli's contract.
      out.faulted = true;
    }
    return out;
  }

  /// A master fault that fires in every schedule: rank 0 always executes at
  /// least ranks-1 data ops (the release-phase empty grants if nothing
  /// else), so a kill at that count is guaranteed, and the straggle keeps
  /// rank 0 slow enough that in practice the kill lands mid-sweep on a
  /// grant send, leaving a partial journal.
  static FaultPlan master_midsweep_kill(int ranks) {
    FaultPlan fault;
    fault.rank = 0;
    fault.tile_delay_ms = 15.0;
    fault.kill_after = ranks - 1;
    fault.kill_mode = KillMode::Throw;
    return fault;
  }

  /// Slows rank 0's self-tiles so worker requests always find tiles left to
  /// grant — the deterministic stage for worker-kill and straggler tests.
  static FaultPlan master_straggle(double delay_ms = 20.0) {
    FaultPlan fault;
    fault.rank = 0;
    fault.tile_delay_ms = delay_ms;
    return fault;
  }

  void expect_identical(const GeneNetwork& actual,
                        const GeneNetwork& expected) {
    ASSERT_EQ(actual.n_edges(), expected.n_edges());
    for (std::size_t i = 0; i < expected.n_edges(); ++i) {
      EXPECT_EQ(actual.edges()[i].u, expected.edges()[i].u);
      EXPECT_EQ(actual.edges()[i].v, expected.edges()[i].v);
      EXPECT_EQ(actual.edges()[i].weight, expected.edges()[i].weight);
    }
  }

  /// granted = completed + reclaimed, and completed covers the whole plan
  /// minus what the journal resumed: no tile lost, none double-counted.
  void expect_work_conserved(const LeaseSweepReport& report) {
    EXPECT_EQ(report.leases_granted,
              report.tiles_total - report.tiles_resumed +
                  report.tiles_reclaimed);
    std::size_t pairs = 0;
    for (const std::size_t p : report.pairs_per_rank) pairs += p;
    EXPECT_EQ(pairs + report.pairs_resumed, kGenes * (kGenes - 1) / 2);
  }

  BsplineMi estimator_;
  BsplineStat statistic_{estimator_};
  RankedMatrix ranked_;
  TingeConfig config_;
  std::filesystem::path dir_;
};

TEST_F(ElasticClusterFixture, MatchesEngineAcrossRanksAndTransports) {
  const GeneNetwork expected = single_chip();
  ASSERT_GT(expected.n_edges(), 0u);
  for (const TransportKind kind :
       {TransportKind::InProcess, TransportKind::Tcp}) {
    for (const int ranks : {2, 3, 4, 8}) {
      SCOPED_TRACE(std::string(transport_kind_name(kind)) + " x " +
                   std::to_string(ranks));
      LeaseRun run = run_lease(ranks, kind);
      ASSERT_TRUE(run.completed);
      EXPECT_FALSE(run.faulted);
      expect_identical(run.network, expected);
      expect_work_conserved(run.report);
      EXPECT_TRUE(run.report.dead_ranks.empty());
      EXPECT_EQ(run.report.tiles_reclaimed, 0u);
    }
  }
}

TEST_F(ElasticClusterFixture, WorkerDeathIsSurvivedOnBothTransports) {
  const GeneNetwork expected = single_chip();
  for (const TransportKind kind :
       {TransportKind::InProcess, TransportKind::Tcp}) {
    SCOPED_TRACE(transport_kind_name(kind));
    // Rank 1 dies on its third data op: request sent, grant received, tile
    // computed — killed reporting it. The lease is outstanding, so rank 0
    // must reclaim and recompute that tile. The master straggle guarantees
    // rank 1's request is served while tiles remain (rank 0 can't drain the
    // queue solo in under ~200 ms).
    FaultPlan fault;
    fault.rank = 1;
    fault.kill_after = 3;
    fault.kill_mode = KillMode::Throw;
    LeaseRun run = run_lease(4, kind, {master_straggle(), fault});
    ASSERT_TRUE(run.completed);
    EXPECT_TRUE(run.faulted);  // the victim's InjectedFault surfaces
    expect_identical(run.network, expected);
    expect_work_conserved(run.report);
    EXPECT_EQ(run.report.dead_ranks, std::vector<int>{1});
    EXPECT_GE(run.report.tiles_reclaimed, 1u);
  }
}

TEST_F(ElasticClusterFixture, StragglerLosesWorkToFasterRanks) {
  const GeneNetwork expected = single_chip();
  FaultPlan fault;
  fault.rank = 1;
  fault.tile_delay_ms = 25.0;  // dwarfs a sub-ms tile: a 25x+ straggler
  LeaseRun run = run_lease(4, TransportKind::InProcess, {fault});
  ASSERT_TRUE(run.completed);
  expect_identical(run.network, expected);
  expect_work_conserved(run.report);
  EXPECT_GT(run.report.steals, 0u);
  // The straggler ends with at most its fair share of pairs — stealing
  // moved the rest — while every tile still got computed exactly once.
  std::size_t total = 0;
  for (const std::size_t p : run.report.pairs_per_rank) total += p;
  EXPECT_LE(run.report.pairs_per_rank.at(1), total / 4);
}

TEST_F(ElasticClusterFixture, PreTrippedCancelAbortsEveryRankWithoutHanging) {
  // tinge_worker's SIGTERM handler trips this flag. Rank 0 polls it before
  // its first grant and aborts with SweepAborted; the workers, waiting on a
  // grant that never comes, see rank 0 leave as PeerFailureError (or abort
  // themselves) instead of hanging.
  constexpr int kRanks = 3;
  const std::atomic<bool> cancel{true};
  std::vector<std::string> outcome(kRanks, "completed");
  const auto cluster = make_cluster(TransportKind::InProcess, kRanks);
  cluster->run([&](Comm& comm) {
    std::string& own = outcome[static_cast<std::size_t>(comm.rank())];
    try {
      lease_sweep(comm, statistic_, ranked_, kThreshold, config_, nullptr,
                  &cancel);
    } catch (const SweepAborted&) {
      own = "aborted";
    } catch (const PeerFailureError&) {
      own = "peer failure";
    }
  });
  EXPECT_EQ(outcome[0], "aborted");
  EXPECT_EQ(cluster->rank_traffic().at(0).messages_sent, 0u)
      << "rank 0 granted tiles before it aborted";
  for (int r = 1; r < kRanks; ++r)
    EXPECT_TRUE(outcome[static_cast<std::size_t>(r)] == "aborted" ||
                outcome[static_cast<std::size_t>(r)] == "peer failure")
        << "rank " << r << ": " << outcome[static_cast<std::size_t>(r)];
}

TEST_F(ElasticClusterFixture, ResumesOnGrownAndShrunkWorldSizes) {
  const GeneNetwork expected = single_chip();
  for (const int resume_ranks : {8, 2, 4, 1}) {
    SCOPED_TRACE("resume on " + std::to_string(resume_ranks));
    const std::string journal = path("kill.ckpt");
    // A 4-rank lease run whose master dies mid-sweep leaves a journal of
    // whatever tiles completed before the kill.
    LeaseRun killed = run_lease(4, TransportKind::InProcess,
                                {master_midsweep_kill(4)}, journal);
    EXPECT_TRUE(killed.faulted);
    EXPECT_FALSE(killed.completed);
    ASSERT_TRUE(std::filesystem::exists(journal));

    // The journal binds to (dataset, basis, tile grid) only — never the
    // world size — so any rank count resumes it.
    LeaseRun resumed =
        run_lease(resume_ranks, TransportKind::InProcess, {}, journal);
    ASSERT_TRUE(resumed.completed);
    expect_identical(resumed.network, expected);
    expect_work_conserved(resumed.report);
    EXPECT_FALSE(std::filesystem::exists(journal))
        << "journal must be removed after a successful resume";
  }
}

TEST_F(ElasticClusterFixture, ResumeToleratesDuplicateRecordsAndTornTail) {
  const GeneNetwork expected = single_chip();
  const std::string journal = path("corrupt.ckpt");
  const SweepPlan plan = SweepPlan::triangular(0, kGenes, config_.tile_size);
  const PanelPlan panels = plan_panels(estimator_, config_);
  const std::unique_ptr<PairScratch> scratch = statistic_.make_scratch();
  const auto row = [&](std::size_t g) { return ranked_.ranks(g).data(); };
  const auto tile_edges = [&](std::size_t t) {
    EdgeSink sink(kThreshold, 1);
    SweepCounters counters;
    detail::sweep_tile(statistic_, row, plan.tile(t), panels, 0, 1, *scratch,
                       counters, sink, 0);
    return sink.take_all();
  };

  // Corrupt the journal the two ways a crash can: a tile journaled twice
  // (rewrite after replay) and a torn final record (killed mid-fwrite).
  {
    CheckpointWriter writer(journal, lease_signature());
    writer.append_tile(0, tile_edges(0));
    writer.append_tile(5, tile_edges(5));
    writer.append_tile(0, tile_edges(0));  // duplicate
  }
  {
    std::ofstream torn(journal, std::ios::binary | std::ios::app);
    const std::uint64_t half_record = 99;  // index without its edge count
    torn.write(reinterpret_cast<const char*>(&half_record),
               sizeof(half_record) - 3);
  }

  LeaseRun resumed = run_lease(2, TransportKind::InProcess, {}, journal);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.report.tiles_resumed, 2u);  // duplicate counted once
  expect_identical(resumed.network, expected);
  expect_work_conserved(resumed.report);
}

TEST_F(ElasticClusterFixture, EngineStyleJournalSeedsTheLeaseSweep) {
  // A journal written with the engine's signature recipe (basis-derived
  // bins/order) seeds the lease ledger: partition independence includes
  // p == 1. Tile records are computed through the same kernel path the
  // engine journals, so the merged network stays byte-identical.
  const GeneNetwork expected = single_chip();
  const std::string journal = path("engine.ckpt");
  const SweepPlan plan =
      SweepPlan::triangular(0, kGenes, config_.tile_size);
  const PanelPlan panels = plan_panels(estimator_, config_);
  const std::unique_ptr<PairScratch> scratch = statistic_.make_scratch();
  const auto row = [&](std::size_t g) { return ranked_.ranks(g).data(); };
  {
    CheckpointWriter writer(journal, lease_signature());
    for (const std::size_t t : {std::size_t{0}, std::size_t{3}}) {
      EdgeSink sink(kThreshold, 1);
      SweepCounters counters;
      detail::sweep_tile(statistic_, row, plan.tile(t), panels, 0, 1, *scratch,
                         counters, sink, 0);
      writer.append_tile(t, sink.take_all());
    }
  }
  LeaseRun resumed = run_lease(3, TransportKind::InProcess, {}, journal);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(resumed.report.tiles_resumed, 2u);
  expect_identical(resumed.network, expected);
  expect_work_conserved(resumed.report);
}

TEST_F(ElasticClusterFixture, MismatchedSignatureJournalIsIgnored) {
  const GeneNetwork expected = single_chip();
  const std::string journal = path("stale.ckpt");
  RunSignature stale = lease_signature();
  stale.tile_size += 1;  // a different tile grid: indices are meaningless
  {
    CheckpointWriter writer(journal, stale);
    const Edge poison[] = {{0, 1, 99.0f}};
    writer.append_tile(0, poison);
  }
  LeaseRun run = run_lease(2, TransportKind::InProcess, {}, journal);
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(run.report.tiles_resumed, 0u);  // full recompute, no poison
  expect_identical(run.network, expected);
}

TEST_F(ElasticClusterFixture, PinnedV1JournalBytesStillLoad) {
  // Byte-level backward compatibility: this is a version-1 journal
  // assembled field by field (magic, version, 40-byte packed signature,
  // one record). If the on-disk layout ever shifts, this fails before any
  // user's resume does.
  const std::string journal = path("pinned.ckpt");
  {
    std::ofstream out(journal, std::ios::binary);
    out.write("TNGC", 4);
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), 4);
    const std::uint64_t n_genes = kGenes, n_samples = kSamples, tile = 8;
    const std::uint32_t bins = 10, order = 3;
    const double threshold = kThreshold;
    out.write(reinterpret_cast<const char*>(&n_genes), 8);
    out.write(reinterpret_cast<const char*>(&n_samples), 8);
    out.write(reinterpret_cast<const char*>(&tile), 8);
    out.write(reinterpret_cast<const char*>(&bins), 4);
    out.write(reinterpret_cast<const char*>(&order), 4);
    out.write(reinterpret_cast<const char*>(&threshold), 8);
    const std::uint64_t tile_index = 2;
    const std::uint32_t edge_count = 1;
    const std::uint32_t u = 1, v = 2;
    const float weight = 0.5f;
    out.write(reinterpret_cast<const char*>(&tile_index), 8);
    out.write(reinterpret_cast<const char*>(&edge_count), 4);
    out.write(reinterpret_cast<const char*>(&u), 4);
    out.write(reinterpret_cast<const char*>(&v), 4);
    out.write(reinterpret_cast<const char*>(&weight), 4);
  }
  const CheckpointState state = load_checkpoint(journal);
  EXPECT_TRUE(state.signature == lease_signature());
  ASSERT_EQ(state.records.size(), 1u);
  EXPECT_EQ(state.records[0].tile_index, 2u);
  ASSERT_EQ(state.records[0].edges.size(), 1u);
  EXPECT_EQ(state.records[0].edges[0], (Edge{1, 2, 0.5f}));
}

/// The headline soak: randomized fault x topology x resume-world-size
/// matrix, every case asserting byte-identity and work conservation.
TEST_F(ElasticClusterFixture, RandomizedFaultTopologySoak) {
  const GeneNetwork expected = single_chip();
  std::mt19937_64 rng(soak_seed());
  const int kCases = 14;
  for (int c = 0; c < kCases; ++c) {
    const int ranks_pool[] = {2, 3, 4, 8};
    const int ranks = ranks_pool[rng() % 4];
    // tcp costs real sockets per case: sample it, don't saturate on it.
    const TransportKind kind =
        rng() % 4 == 0 ? TransportKind::Tcp : TransportKind::InProcess;
    const int scenario = static_cast<int>(rng() % 4);
    SCOPED_TRACE("case " + std::to_string(c) + ": seed " +
                 std::to_string(soak_seed()) + ", ranks " +
                 std::to_string(ranks) + ", " + transport_kind_name(kind) +
                 ", scenario " + std::to_string(scenario));
    if (scenario == 0) {  // healthy
      LeaseRun run = run_lease(ranks, kind);
      ASSERT_TRUE(run.completed);
      expect_identical(run.network, expected);
      expect_work_conserved(run.report);
    } else if (scenario == 1) {  // straggler-delay
      FaultPlan fault;
      fault.rank = 1 + static_cast<int>(rng() % (ranks - 1 > 0
                                                     ? ranks - 1
                                                     : 1));
      if (fault.rank >= ranks) fault.rank = ranks - 1;
      fault.tile_delay_ms = 5.0 + static_cast<double>(rng() % 20);
      LeaseRun run = run_lease(ranks, kind, {fault});
      ASSERT_TRUE(run.completed);
      expect_identical(run.network, expected);
      expect_work_conserved(run.report);
    } else if (scenario == 2 && ranks > 1) {  // kill a worker mid-sweep
      // A worker always executes at least two data ops (its first request
      // and the grant answering it), so a kill at 1..3 is guaranteed to
      // fire; the master straggle keeps tiles available at op 3 so the
      // victim can die holding a lease.
      FaultPlan fault;
      fault.rank = 1 + static_cast<int>(rng() % (ranks - 1));
      fault.kill_after = 1 + static_cast<long long>(rng() % 3);
      fault.kill_mode = KillMode::Throw;
      LeaseRun run = run_lease(ranks, kind, {master_straggle(10.0), fault});
      ASSERT_TRUE(run.completed);
      EXPECT_TRUE(run.faulted);
      expect_identical(run.network, expected);
      expect_work_conserved(run.report);
    } else {  // kill rank 0, resume on a random (grow/shrink/same) world
      const std::string journal = path("soak.ckpt");
      LeaseRun killed =
          run_lease(ranks, kind, {master_midsweep_kill(ranks)}, journal);
      EXPECT_TRUE(killed.faulted);
      ASSERT_TRUE(std::filesystem::exists(journal));
      const int resume_ranks = ranks_pool[rng() % 4];
      LeaseRun resumed = run_lease(resume_ranks, kind, {}, journal);
      ASSERT_TRUE(resumed.completed);
      expect_identical(resumed.network, expected);
      expect_work_conserved(resumed.report);
      EXPECT_FALSE(std::filesystem::exists(journal));
    }
  }
}

}  // namespace
}  // namespace tinge::cluster
