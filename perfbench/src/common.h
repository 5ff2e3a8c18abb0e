// Shared pieces of the perfbench program: the command-line surface every
// mode shares, the workload's pipeline configuration, the in-memory span
// log of the traced runs, and JSON result files.
//
// The program only calls the library's public functions; every span is
// recorded here, around those calls, never inside the library.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "obs/json.h"
#include "util/args.h"
#include "util/timer.h"

namespace perfbench {

/// Declares every option of every mode (ArgParser rejects unknown names).
void declare_options(tinge::ArgParser& args);

/// The pipeline settings of a workload: q, alpha and DPI from the command
/// line, library defaults (E1's B-spline b=10, k=3, all hardware threads)
/// otherwise.
tinge::TingeConfig pipeline_config(const tinge::ArgParser& args);

/// Diagnostics every run records: ISA report, host topology, pool width.
tinge::obs::Json host_record();

/// `config` with the scalar per-pair kernel: eval_pair under it is the
/// reference the output checks compare against. It reproduces the sweep's
/// panel bits (every panel variant writes the same ones), while the
/// replicated kernel `auto` picks per pair, and the simd one
/// panel_equivalent_kernel names, differ in the last bits at m = 3,137.
tinge::TingeConfig reference_config(tinge::TingeConfig config);

/// Writes a JSON document to `path`; throws on I/O failure.
void write_json(const tinge::obs::Json& doc, const std::string& path);

/// Spans of a traced run, kept in memory and written once at exit. Each
/// span has a name, start and end (seconds since the log was created), its
/// parent span (-1 for a root) and a query id shared by every span of one
/// serve query (0 outside serve queries). Thread-safe.
class SpanLog {
 public:
  int begin(const std::string& name, int parent = -1, std::uint64_t query = 0);
  void end(int span);
  tinge::obs::Json to_json() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t query = 0;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  tinge::Stopwatch epoch_;
};

/// RAII span; a null log records nothing (the untraced baseline).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = -1,
             std::uint64_t query = 0)
      : log_(log), index_(log ? log->begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

int run_gen(const tinge::ArgParser& args);
int run_batch(const tinge::ArgParser& args);
int run_trace_batch(const tinge::ArgParser& args);
int run_check(const tinge::ArgParser& args);
int run_serve(const tinge::ArgParser& args);
int run_serve_setup(const tinge::ArgParser& args);
int run_serve_trace(const tinge::ArgParser& args);

}  // namespace perfbench
