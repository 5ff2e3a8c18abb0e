// Scoped tracing: per-run stage tree.
//
// A Trace owns a tree of SpanNodes rooted at "run"; TraceSpan is the RAII
// handle that opens a child of the innermost open span and records its wall
// time on destruction. The pipeline wraps each stage (preprocess -> null ->
// mi_sweep -> threshold -> dpi -> output) in a span, producing the stage
// tree the run manifest serializes and bench_pipeline_breakdown prints —
// one timing substrate instead of per-harness private stopwatches.
//
// Spans are opened and closed on the trace's owning thread (pipeline stages
// are sequential on the caller; worker-thread work is accounted through
// obs/metrics.h counters, not spans), so the tree needs no locking.
//
// Each span also records the process's peak resident set as it closes.
// The peak only rises, so the first span to close at the run's final peak
// is the stage that set it (peak_stage).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/timer.h"

namespace tinge::obs {

struct SpanNode {
  std::string name;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;  ///< process peak resident set when it closed
  std::vector<std::unique_ptr<SpanNode>> children;
};

/// The process's peak resident set so far (getrusage ru_maxrss), in MiB.
double process_peak_rss_mb();

class Trace {
 public:
  Trace();

  const SpanNode& root() const { return *root_; }

  /// Updates the root span's seconds to the wall time since construction
  /// and its peak resident set to the process's peak so far. Idempotent:
  /// callers that keep adding spans (the CLI's output stage) call it again
  /// before serializing.
  void finish() {
    root_->seconds = watch_.seconds();
    root_->peak_rss_mb = process_peak_rss_mb();
  }

 private:
  friend class TraceSpan;

  std::unique_ptr<SpanNode> root_;
  std::vector<SpanNode*> open_;  ///< innermost open span is back()
  Stopwatch watch_;
};

/// RAII span: child of the innermost open span of `trace`.
class TraceSpan {
 public:
  TraceSpan(Trace& trace, std::string name);
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

  /// Wall seconds since the span opened (it is still running).
  double seconds() const { return watch_.seconds(); }

 private:
  Trace& trace_;
  SpanNode* node_;
  Stopwatch watch_;
};

/// Depth-first search for the first span named `name`; nullptr when absent.
const SpanNode* find_span(const SpanNode& root, std::string_view name);

/// Seconds of the first span named `name`, or 0.0 when absent.
double span_seconds(const SpanNode& root, std::string_view name);

/// The stage that set a finished trace's peak resident set: the first span,
/// in closing order (children before their parent), that closed at the
/// root's peak; the root itself when the peak rose after its last child.
const SpanNode& peak_stage(const SpanNode& root);

/// Indented human-readable tree: name, seconds, share of the parent span,
/// peak resident set at close. The `--trace` stderr summary and the bench
/// tables print this.
std::string format_trace(const SpanNode& root);

}  // namespace tinge::obs
