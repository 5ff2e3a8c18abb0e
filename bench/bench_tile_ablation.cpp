// Experiment F5 [reconstructed]: cache-blocking tile-size ablation, plus
// the F2c rank-staging ablation.
// A tile of T x T gene pairs touches 2T rank profiles (T * m * 4 bytes per
// side) plus the private histogram; too-small tiles lose locality between
// pairs sharing a gene, too-large tiles spill the profile working set out of
// cache. The paper tunes this knob for the Phi's 512 KB per-core L2.
#include "bench_common.h"
#include "core/mi_engine.h"
#include "mi/bspline_mi.h"
#include "parallel/thread_pool.h"
#include "util/args.h"

using namespace tinge;

namespace {

void tile_size_table(const bench::EngineFixture& fixture, par::ThreadPool& pool,
                     std::size_t n, std::size_t m, int threads,
                     bench::BenchJson& out) {
  bench::print_header(
      "F5: tile-size ablation (cache blocking)",
      strprintf("%zu genes x %zu samples, %d threads; per-tile rank working "
                "set = 2*T*%zu bytes",
                n, m, threads, m * sizeof(std::uint32_t)));

  Table table({"tile T", "tiles", "working set", "seconds", "pairs/s",
               "vs best"});
  struct Row {
    std::size_t tile;
    std::size_t tiles;
    double seconds;
    std::size_t pairs;
  };
  std::vector<Row> rows;
  double best = 1e300;
  for (std::size_t tile : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    if (tile > n) break;
    const EngineStats stats = bench::timed_pass(
        fixture.engine(), pool, bench::engine_config(threads, tile));
    rows.push_back(Row{tile, stats.tiles, stats.seconds, stats.pairs_computed});
    best = std::min(best, stats.seconds);
  }
  for (const Row& row : rows) {
    const std::size_t bytes = 2 * row.tile * m * sizeof(std::uint32_t);
    const double rate = static_cast<double>(row.pairs) / row.seconds;
    table.add_row({std::to_string(row.tile), std::to_string(row.tiles),
                   strprintf("%zu KB", bytes / 1024),
                   strprintf("%.3f", row.seconds), bench::rate_str(rate),
                   strprintf("%.2fx", row.seconds / best)});
    obs::Json json = obs::Json::object();
    json["table"] = obs::Json(std::string("tile_size"));
    json["tile"] = obs::Json(row.tile);
    json["seconds"] = obs::Json(row.seconds);
    json["pairs_per_second"] = obs::Json(rate);
    out.add_row(std::move(json));
  }
  table.print();
  std::printf(
      "\nPaper shape to compare: a U-curve — tiny tiles pay scheduling and\n"
      "locality costs, huge tiles spill the L2; the sweet spot sits where\n"
      "the working set fills a core's private cache.\n");
}

// F2c: uint16 rank staging against uint32 rank rows on the vector panel.
// Both variants produce bit-identical networks (staging changes where bytes
// come from, not which floats are multiplied), so the speedup column is the
// entire story.
void staging_ablation_table(const bench::EngineFixture& fixture,
                            par::ThreadPool& pool, std::size_t n,
                            std::size_t m, int threads,
                            bench::BenchJson& out) {
  bench::print_header(
      "F2c: rank-staging ablation (vector panel)",
      strprintf("%zu genes x %zu samples, %d threads; speedup of uint16 "
                "rank rows over uint32.",
                n, m, threads));

  TingeConfig baseline = bench::engine_config(threads);
  baseline.kernel = MiKernel::Simd;  // pin the vector panel
  baseline.stage_ranks = false;
  TingeConfig staged = baseline;
  staged.stage_ranks = true;

  struct Variant {
    const char* name;
    TingeConfig config;
  };
  const Variant variants[] = {{"baseline (uint32 ranks)", baseline},
                              {"+uint16 rank staging", staged}};

  Table table({"variant", "seconds", "pairs/s", "speedup"});
  double baseline_seconds = 0.0;
  for (const Variant& variant : variants) {
    const EngineStats stats =
        bench::timed_pass(fixture.engine(), pool, variant.config);
    if (baseline_seconds == 0.0) baseline_seconds = stats.seconds;
    const double rate =
        static_cast<double>(stats.pairs_computed) / stats.seconds;
    const double speedup = baseline_seconds / stats.seconds;
    table.add_row({variant.name, strprintf("%.3f", stats.seconds),
                   bench::rate_str(rate), strprintf("%.2fx", speedup)});
    obs::Json json = obs::Json::object();
    json["table"] = obs::Json(std::string("knob_ablation"));
    json["variant"] = obs::Json(std::string(variant.name));
    json["samples"] = obs::Json(m);
    json["seconds"] = obs::Json(stats.seconds);
    json["pairs_per_second"] = obs::Json(rate);
    json["speedup_vs_baseline"] = obs::Json(speedup);
    out.add_row(std::move(json));
  }
  table.print();
  std::printf(
      "\nBoth rows compute the identical network; the difference is a pure\n"
      "memory-system effect.\n");
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add("genes", "genes in the test matrix", "512");
  args.add("samples", "experiments per gene", "2048");
  args.add("threads", "threads to run with", "0");
  bench::parse_args(args, argc, argv, "F5: cache-blocking tile-size ablation.");

  const auto n = static_cast<std::size_t>(args.get_int("genes"));
  const auto m = static_cast<std::size_t>(args.get_int("samples"));
  int threads = static_cast<int>(args.get_int("threads"));
  if (threads <= 0) threads = par::detect_host_topology().total_threads();

  const bench::EngineFixture fixture(n, m);
  par::ThreadPool pool(threads);

  bench::BenchJson out("tile_ablation");
  tile_size_table(fixture, pool, n, m, threads, out);
  staging_ablation_table(fixture, pool, n, m, threads, out);
  std::printf("\nwrote %s\n", out.write().c_str());
  return 0;
}
