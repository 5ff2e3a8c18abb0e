#include "obs/manifest.h"

#include <unistd.h>

#include <cstdio>
#include <stdexcept>

namespace tinge::obs {

Json span_to_json(const SpanNode& node) {
  Json span = Json::object();
  span["name"] = node.name;
  span["seconds"] = node.seconds;
  span["peak_rss_mb"] = node.peak_rss_mb;
  Json children = Json::array();
  for (const auto& child : node.children)
    children.push_back(span_to_json(*child));
  span["children"] = std::move(children);
  return span;
}

Json metrics_to_json(const MetricsSnapshot& snapshot) {
  Json out = Json::object();
  Json counters = Json::object();
  for (const auto& [name, value] : snapshot.counters) counters[name] = value;
  out["counters"] = std::move(counters);
  Json gauges = Json::object();
  for (const auto& [name, value] : snapshot.gauges) gauges[name] = value;
  out["gauges"] = std::move(gauges);
  Json histograms = Json::object();
  for (const auto& [name, summary] : snapshot.histograms) {
    Json h = Json::object();
    h["count"] = summary.count;
    h["sum"] = summary.sum;
    h["min"] = summary.min;
    h["max"] = summary.max;
    h["p50"] = summary.p50;
    h["p90"] = summary.p90;
    h["p95"] = summary.p95;
    h["p99"] = summary.p99;
    histograms[name] = std::move(h);
  }
  out["histograms"] = std::move(histograms);
  return out;
}

void write_json_file(const Json& document, const std::string& path) {
  // Whole-or-nothing: write to a temp name, fsync, then rename over the
  // target. A reader polling for the manifest (the CI fault smoke does)
  // must never parse a half-written document.
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error("cannot create " + tmp);
  const std::string text = document.dump();
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
      std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

Json read_json_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    text.append(buffer, got);
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) throw std::runtime_error("cannot read " + path);
  return Json::parse(text);
}

}  // namespace tinge::obs
