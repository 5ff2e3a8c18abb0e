#include "obs/trace.h"

#include <sys/resource.h>

#include "util/contracts.h"
#include "util/str.h"

namespace tinge::obs {

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Trace::Trace() : root_(std::make_unique<SpanNode>()) {
  root_->name = "run";
  open_.push_back(root_.get());
}

TraceSpan::TraceSpan(Trace& trace, std::string name) : trace_(trace) {
  SpanNode* parent = trace_.open_.back();
  parent->children.push_back(std::make_unique<SpanNode>());
  node_ = parent->children.back().get();
  node_->name = std::move(name);
  trace_.open_.push_back(node_);
}

TraceSpan::~TraceSpan() {
  node_->seconds = watch_.seconds();
  node_->peak_rss_mb = process_peak_rss_mb();
  // Spans close in reverse-open order (they are scoped objects).
  TINGE_EXPECTS(trace_.open_.back() == node_);
  trace_.open_.pop_back();
}

const SpanNode* find_span(const SpanNode& root, std::string_view name) {
  if (root.name == name) return &root;
  for (const auto& child : root.children)
    if (const SpanNode* found = find_span(*child, name)) return found;
  return nullptr;
}

double span_seconds(const SpanNode& root, std::string_view name) {
  const SpanNode* span = find_span(root, name);
  return span != nullptr ? span->seconds : 0.0;
}

namespace {

const SpanNode* first_at_peak(const SpanNode& node, double peak) {
  for (const auto& child : node.children)
    if (const SpanNode* found = first_at_peak(*child, peak)) return found;
  return node.peak_rss_mb >= peak ? &node : nullptr;
}

}  // namespace

const SpanNode& peak_stage(const SpanNode& root) {
  const SpanNode* found = first_at_peak(root, root.peak_rss_mb);
  return found != nullptr ? *found : root;
}

namespace {

void format_node(const SpanNode& node, const SpanNode* parent, int depth,
                 std::string& out) {
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  const double share = parent != nullptr && parent->seconds > 0.0
                           ? 100.0 * node.seconds / parent->seconds
                           : 100.0;
  out += strprintf("%-24s %10.3f s  %5.1f%%  %8.1f MiB peak\n",
                   node.name.c_str(), node.seconds, share, node.peak_rss_mb);
  for (const auto& child : node.children)
    format_node(*child, &node, depth + 1, out);
}

}  // namespace

std::string format_trace(const SpanNode& root) {
  std::string out;
  format_node(root, nullptr, 0, out);
  return out;
}

}  // namespace tinge::obs
