// Golden-run regression: one pinned pipeline configuration whose manifest
// must keep its shape. Guards the manifest schema (stage-tree names and
// order, resolved kernel/panel fields, scheduler accounting) and pins the
// run's own numbers — edge count, threshold, pair totals — to the values
// the in-memory BuildResult reports, plus exact determinism across reruns.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

#include "core/network_builder.h"
#include "core/run_manifest.h"
#include "obs/manifest.h"
#include "synth/expression.h"

namespace tinge {
namespace {

SyntheticDataset golden_dataset() {
  GrnParams grn;
  grn.n_genes = 48;
  grn.mean_regulators = 1.5;
  grn.seed = 77;
  ExpressionParams expr;
  expr.n_samples = 200;
  expr.noise_sd = 1.0;
  expr.seed = 78;
  return make_synthetic_dataset(grn, expr);
}

// Everything that could float is pinned: the scalar kernel (no ISA
// dispatch), a fixed thread count and seed. The panel width follows from
// the bins: auto_panel_width is 8 at b = 10.
TingeConfig golden_config() {
  TingeConfig config;
  config.permutations = 500;
  config.alpha = 1e-2;
  config.threads = 2;
  config.tile_size = 16;
  config.kernel = MiKernel::Scalar;
  config.apply_dpi = true;
  config.dpi_tolerance = 0.15;
  return config;
}

BuildResult golden_build() {
  return NetworkBuilder(golden_config()).build(golden_dataset().expression);
}

class GoldenRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new BuildResult(golden_build());
    manifest_ = new obs::Json(make_run_manifest(*result_, golden_config()));
  }
  static void TearDownTestSuite() {
    delete manifest_;
    manifest_ = nullptr;
    delete result_;
    result_ = nullptr;
  }

  static BuildResult* result_;
  static obs::Json* manifest_;
};

BuildResult* GoldenRun::result_ = nullptr;
obs::Json* GoldenRun::manifest_ = nullptr;

TEST_F(GoldenRun, SchemaVersionAndConfigEcho) {
  const obs::Json& manifest = *manifest_;
  EXPECT_EQ(manifest.at("schema_version").as_int(), kManifestSchemaVersion);
  EXPECT_EQ(kManifestSchemaVersion, 3);
  EXPECT_EQ(manifest.at("tool").as_string(), "tingex");
  const obs::Json& config = manifest.at("config");
  EXPECT_EQ(config.at("bins").as_int(), 10);
  EXPECT_EQ(config.at("spline_order").as_int(), 3);
  EXPECT_EQ(config.at("alpha").as_double(), 1e-2);
  EXPECT_EQ(config.at("permutations").as_int(), 500);
  EXPECT_EQ(config.at("threads").as_int(), 2);
  EXPECT_EQ(config.at("tile_size").as_int(), 16);
  EXPECT_EQ(config.at("kernel").as_string(), "scalar");
  EXPECT_EQ(config.at("schedule").as_string(), "dynamic");
  // Schema 2 dropped the panel-width knob: the width is resolved only.
  EXPECT_EQ(config.find("panel_width"), nullptr);
  // Schema 3 dropped the cluster balance knob: the lease is the only
  // distributed sweep.
  EXPECT_EQ(config.find("cluster_balance"), nullptr);
  // The memory-side knob echoes its configured (not resolved) value.
  EXPECT_EQ(config.at("stage_ranks").as_bool(), true);
  EXPECT_EQ(config.at("seed").as_int(), 20140519);
  EXPECT_EQ(config.at("apply_dpi").as_bool(), true);
}

TEST_F(GoldenRun, ResolvedKernelAndPanelArePinned) {
  const obs::Json& resolved = manifest_->at("resolved");
  EXPECT_EQ(resolved.at("kernel").as_string(), "scalar");
  EXPECT_EQ(resolved.at("panel_width").as_int(), 8);
}

TEST_F(GoldenRun, StageTreeShapeIsPinned) {
  const obs::Json& stages = manifest_->at("stages");
  EXPECT_EQ(stages.at("name").as_string(), "run");
  const obs::Json& children = stages.at("children");
  // The pipeline-truth stage order, dpi included (golden config enables it).
  ASSERT_EQ(children.size(), 6u);
  EXPECT_EQ(children.at(0).at("name").as_string(), "preprocess");
  EXPECT_EQ(children.at(1).at("name").as_string(), "weight_table");
  EXPECT_EQ(children.at(2).at("name").as_string(), "null");
  EXPECT_EQ(children.at(3).at("name").as_string(), "threshold");
  EXPECT_EQ(children.at(4).at("name").as_string(), "mi_sweep");
  EXPECT_EQ(children.at(5).at("name").as_string(), "dpi");

  const obs::Json& preprocess = children.at(0).at("children");
  ASSERT_EQ(preprocess.size(), 3u);
  EXPECT_EQ(preprocess.at(0).at("name").as_string(), "impute");
  EXPECT_EQ(preprocess.at(1).at("name").as_string(), "filter");
  EXPECT_EQ(preprocess.at(2).at("name").as_string(), "rank");

  // Every stage carries a non-negative wall time bounded by the root.
  const double total = stages.at("seconds").as_double();
  for (const obs::Json& stage : children.elements()) {
    EXPECT_GE(stage.at("seconds").as_double(), 0.0);
    EXPECT_LE(stage.at("seconds").as_double(), total);
  }

  // And the process's peak resident set as it closed: it only rises, in
  // closing order (children before their parent), up to the root's, and
  // the manifest names the stage that reached it first.
  double previous = 0.0;
  std::string first_at_peak;
  const double run_peak = stages.at("peak_rss_mb").as_double();
  const auto closing = [&](const obs::Json& stage) {
    const double peak = stage.at("peak_rss_mb").as_double();
    EXPECT_GE(peak, previous) << stage.at("name").as_string();
    EXPECT_LE(peak, run_peak) << stage.at("name").as_string();
    if (first_at_peak.empty() && peak >= run_peak)
      first_at_peak = stage.at("name").as_string();
    previous = peak;
  };
  for (const obs::Json& stage : children.elements()) {
    for (const obs::Json& inner : stage.at("children").elements())
      closing(inner);
    closing(stage);
  }
  EXPECT_GT(previous, 0.0);
  EXPECT_EQ(manifest_->at("peak_stage").as_string(),
            first_at_peak.empty() ? "run" : first_at_peak);
}

TEST_F(GoldenRun, ResultSectionMatchesTheInMemoryRun) {
  const obs::Json& section = manifest_->at("result");
  EXPECT_EQ(static_cast<std::size_t>(section.at("edges").as_int()),
            result_->network.n_edges());
  EXPECT_EQ(section.at("threshold").as_double(), result_->threshold);
  EXPECT_EQ(section.at("marginal_entropy").as_double(),
            result_->marginal_entropy);
  EXPECT_EQ(static_cast<std::size_t>(section.at("pairs_computed").as_int()),
            result_->engine.pairs_computed);
  EXPECT_GT(result_->network.n_edges(), 0u);

  const obs::Json& dataset = manifest_->at("dataset");
  EXPECT_EQ(dataset.at("genes_in").as_int(), 48);
  EXPECT_EQ(dataset.at("genes_used").as_int(), 48);
  EXPECT_EQ(dataset.at("samples").as_int(), 200);
}

TEST_F(GoldenRun, EngineSectionCarriesSchedulerAccounting) {
  const obs::Json& engine = manifest_->at("engine");
  EXPECT_EQ(engine.at("kernel").as_string(), "scalar");
  EXPECT_EQ(engine.at("panel_width").as_int(), 8);
  EXPECT_EQ(static_cast<std::size_t>(engine.at("pairs_computed").as_int()),
            std::size_t{48} * 47 / 2);
  EXPECT_EQ(engine.at("pairs_resumed").as_int(), 0);
  EXPECT_EQ(engine.at("tiles_resumed").as_int(), 0);
  EXPECT_EQ(engine.at("tiles").as_int(), 6);  // 48/16 = 3 -> 3*4/2 tiles
  EXPECT_GT(engine.at("panels_swept").as_int(), 0);
  const double fill = engine.at("panel_fill_ratio").as_double();
  EXPECT_GT(fill, 0.0);
  EXPECT_LE(fill, 1.0);

  // Per-context scheduler outcome: one slot per pool context, and the
  // slots account for every tile and every pair of the pass.
  const obs::Json& tiles = engine.at("tiles_per_thread");
  const obs::Json& pairs = engine.at("pairs_per_thread");
  ASSERT_EQ(tiles.size(), 2u);
  ASSERT_EQ(pairs.size(), 2u);
  std::int64_t tile_sum = 0, pair_sum = 0;
  for (const obs::Json& v : tiles.elements()) tile_sum += v.as_int();
  for (const obs::Json& v : pairs.elements()) pair_sum += v.as_int();
  EXPECT_EQ(tile_sum, engine.at("tiles").as_int());
  EXPECT_EQ(pair_sum, engine.at("pairs_computed").as_int());
}

TEST_F(GoldenRun, PoolSectionAccountsEveryWorker) {
  const obs::Json& pool = manifest_->at("pool");
  EXPECT_GT(pool.at("lifetime_seconds").as_double(), 0.0);
  const obs::Json& workers = pool.at("workers");
  ASSERT_EQ(workers.size(), 2u);
  for (std::size_t tid = 0; tid < workers.size(); ++tid) {
    const obs::Json& worker = workers.at(tid);
    EXPECT_EQ(static_cast<std::size_t>(worker.at("tid").as_int()), tid);
    EXPECT_GE(worker.at("busy_seconds").as_double(), 0.0);
    EXPECT_GE(worker.at("idle_seconds").as_double(), 0.0);
  }
  // The caller context (tid 0) participates in every region.
  EXPECT_GT(workers.at(0).at("busy_seconds").as_double(), 0.0);
}

TEST_F(GoldenRun, MetricsDeltaCoversTheInstrumentedLayers) {
  const obs::Json& counters = manifest_->at("metrics").at("counters");
  EXPECT_EQ(counters.at("engine.runs").as_int(), 1);
  EXPECT_EQ(static_cast<std::size_t>(
                counters.at("engine.pairs_computed").as_int()),
            result_->engine.pairs_computed);
  EXPECT_EQ(counters.at("null.builds").as_int(), 1);
  EXPECT_EQ(counters.at("null.draws").as_int(), 500);
  EXPECT_EQ(counters.find("checkpoint.journals_written"), nullptr);
}

TEST_F(GoldenRun, ManifestRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "tingex_golden_manifest.json";
  write_run_manifest(*result_, golden_config(), path);
  const obs::Json reread = obs::read_json_file(path);
  EXPECT_EQ(reread, *manifest_);
  std::remove(path.c_str());
}

TEST_F(GoldenRun, RerunIsBitIdenticalIncludingManifestNumbers) {
  const BuildResult again = golden_build();
  EXPECT_EQ(again.threshold, result_->threshold);
  EXPECT_EQ(again.marginal_entropy, result_->marginal_entropy);
  ASSERT_EQ(again.network.n_edges(), result_->network.n_edges());
  for (std::size_t i = 0; i < again.network.n_edges(); ++i)
    EXPECT_EQ(again.network.edges()[i], result_->network.edges()[i]);

  // The deterministic sections of a second manifest are byte-identical.
  const obs::Json manifest = make_run_manifest(again, golden_config());
  EXPECT_EQ(manifest.at("config").dump(), manifest_->at("config").dump());
  EXPECT_EQ(manifest.at("resolved").dump(), manifest_->at("resolved").dump());
  EXPECT_EQ(manifest.at("dataset").dump(), manifest_->at("dataset").dump());
  EXPECT_EQ(manifest.at("result").dump(), manifest_->at("result").dump());
}

}  // namespace
}  // namespace tinge
