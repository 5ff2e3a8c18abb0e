// perfbench: the measured side of the repository benchmark (perfbench/run.py
// orchestrates it). Each mode is one process with one job:
//
//   gen          synthetic GRN compendium -> expression TSV (not measured)
//   batch        read TSV, NetworkBuilder::build, write the edge list
//   trace-batch  the same pipeline stage by stage, with spans and probes
//   check        re-evaluates a seeded sample of pairs against an edge list
//   serve        in-process daemon + closed-loop ServeClient load
//   serve-setup  the serve set-up alone (fresh process per sample)
//   serve-trace  one MI stream timed at three entry points, with spans
//
// Every mode writes its result as JSON to --result.

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common.h"
#include "parallel/topology.h"
#include "simd/feature.h"

namespace perfbench {

using tinge::obs::Json;

void declare_options(tinge::ArgParser& args) {
  args.add("result", "where to write the mode's JSON result");
  args.add("input", "expression TSV");
  args.add("out", "output path (TSV for gen, edge list for batch modes)");
  args.add("edges", "edge list to check");
  args.add("spans", "where to write the span log (traced modes)");
  args.add("seed", "workload seed", "1");
  args.add("genes", "genes to generate", "0");
  args.add("samples", "samples to generate", "0");
  args.add("missing", "fraction of missing cells to generate", "0");
  args.add("q", "permutation-null draws", "2000");
  args.add("alpha", "significance level", "1e-3");
  args.add("dpi", "apply DPI (0/1)", "0");
  args.add("threshold", "expected threshold (check mode)", "nan");
  args.add("seconds", "timed window of the serve load", "10");
  args.add("warmup-queries", "MI queries per warm-up connection", "40");
  args.add("mi-share", "share of MI queries in each connection's stream",
           "0.75");
  args.add("stream-queries", "MI queries per connection (serve-trace)", "100");
  args.add("nbr-queries", "neighborhood queries per connection (serve-trace)",
           "50");
  args.add("baseline-only",
           "serve-trace: the full-stack pass alone, without spans", "0");
  args.add("inject-wrong-answer",
           "self-test hook: corrupt one MI answer before verification", "0");
}

tinge::TingeConfig pipeline_config(const tinge::ArgParser& args) {
  tinge::TingeConfig config;  // b=10, k=3, all hardware threads: E1's
  config.permutations = static_cast<std::size_t>(args.get_int("q"));
  config.alpha = args.get_double("alpha");
  config.apply_dpi = args.get_int("dpi") != 0;
  config.validate();
  return config;
}

tinge::TingeConfig reference_config(tinge::TingeConfig config) {
  config.kernel = tinge::MiKernel::Scalar;
  return config;
}

Json host_record() {
  Json record = Json::object();
  const tinge::par::Topology topology = tinge::par::detect_host_topology();
  record["isa"] = tinge::simd::isa_report();
  record["topology"] = topology.to_string();
  record["hardware_threads"] = topology.total_threads();
  return record;
}

void write_json(const Json& doc, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << doc.dump() << '\n';
  if (!out) throw std::runtime_error("write to " + path + " failed");
}

int SpanLog::begin(const std::string& name, int parent, std::uint64_t query) {
  const double now = epoch_.seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, query});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) {
  const double now = epoch_.seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(span)).end = now;
}

Json SpanLog::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json out = Json::array();
  for (const Span& s : spans_) {
    Json span = Json::object();
    span["name"] = s.name;
    span["start"] = s.start;
    span["end"] = s.end;
    span["parent"] = s.parent;
    span["query"] = s.query;
    out.push_back(std::move(span));
  }
  return out;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, int (*)(const tinge::ArgParser&)> modes = {
      {"gen", run_gen},
      {"batch", run_batch},
      {"trace-batch", run_trace_batch},
      {"check", run_check},
      {"serve", run_serve},
      {"serve-setup", run_serve_setup},
      {"serve-trace", run_serve_trace},
  };
  try {
    tinge::ArgParser args;
    declare_options(args);
    args.parse(argc, argv);
    if (args.positional().size() != 1 ||
        modes.count(args.positional()[0]) == 0) {
      std::fprintf(stderr, "%s",
                   args.usage("perfbench <mode>",
                              "modes: gen batch trace-batch check serve "
                              "serve-setup serve-trace")
                       .c_str());
      return 2;
    }
    return modes.at(args.positional()[0])(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
