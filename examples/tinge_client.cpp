// tinge_client: command-line client for a running tinge_serve daemon.
//
// One invocation is one query (optionally repeated with --repeat, which is
// how warm-cache behavior is demonstrated from the shell). Results print
// as TSV on stdout:
//
//   mi          a<TAB>b<TAB>value     (%.17g — the full double the sweep
//                                      computed, bit-identical to batch)
//   neighbors/
//   top/
//   subgraph    u<TAB>v<TAB>weight    (%.9g, the edge-list float format)
//   metrics     the metrics-registry snapshot JSON
//   sweep       progress events on stderr, summary JSON on stdout
//
//   tinge_client --port-file=/tmp/serve.port --query=mi --pairs=3:10,5:7
//   tinge_client --port=7070 --query=neighbors --gene=12 --k=5

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/serve_client.h"
#include "util/args.h"
#include "util/str.h"

using namespace tinge;
using cluster::ServeClient;

namespace {

std::vector<GenePair> parse_pairs(const std::string& text) {
  std::vector<GenePair> pairs;
  for (const std::string_view item : split_view(text, ',')) {
    const std::vector<std::string_view> ends = split_view(item, ':');
    if (ends.size() != 2)
      throw std::invalid_argument(
          "--pairs expects comma-separated a:b gene-id pairs");
    pairs.push_back(GenePair{
        static_cast<std::uint32_t>(std::stoul(std::string(ends[0]))),
        static_cast<std::uint32_t>(std::stoul(std::string(ends[1])))});
  }
  return pairs;
}

std::vector<std::uint32_t> parse_ids(const std::string& text) {
  std::vector<std::uint32_t> ids;
  for (const std::string_view item : split_view(text, ','))
    ids.push_back(static_cast<std::uint32_t>(std::stoul(std::string(item))));
  return ids;
}

void print_edges(const std::vector<cluster::ServeEdge>& edges) {
  for (const cluster::ServeEdge& edge : edges)
    std::printf("%u\t%u\t%s\n", edge.u, edge.v,
                strprintf("%.9g", static_cast<double>(edge.weight)).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add("port", "daemon port (alternative to --port-file)", "0");
  args.add("port-file", "read the daemon port from this rendezvous file");
  args.add("nonce", "required port-file nonce (0 = accept any)", "0");
  args.add("query",
           "ping|mi|neighbors|top|subgraph|metrics|sweep|shutdown", "ping");
  args.add("pairs", "mi: comma-separated a:b gene-id pairs");
  args.add("estimator",
           "mi: estimator name (empty = whatever the daemon was built "
           "with)");
  args.add("gene", "neighbors: the gene id", "0");
  args.add("k", "neighbors/top: result limit (0 = all)", "0");
  args.add("genes", "subgraph: comma-separated gene ids");
  args.add("repeat", "issue the query this many times (prints once)", "1");
  args.add_flag("help", "show this help");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  if (args.get_flag("help")) {
    std::fputs(args.usage("tinge_client",
                          "Command-line client for a running tinge_serve "
                          "daemon: one query per invocation.")
                   .c_str(),
               stdout);
    return 0;
  }
  const std::string query = args.get("query");
  const std::string known[] = {"ping",    "mi",      "neighbors", "top",
                               "subgraph", "metrics", "sweep",     "shutdown"};
  if (std::find(std::begin(known), std::end(known), query) == std::end(known)) {
    std::fprintf(stderr, "error: unknown --query=%s\n", query.c_str());
    return 2;
  }

  try {
    ServeClient client =
        args.has("port-file")
            ? ServeClient::from_port_file(
                  args.get("port-file"),
                  static_cast<std::uint64_t>(args.get_int("nonce")))
            : ServeClient("127.0.0.1",
                          static_cast<int>(args.get_int("port")));

    const int repeat = std::max(1, static_cast<int>(args.get_int("repeat")));
    const auto k = static_cast<std::uint32_t>(args.get_int("k"));
    for (int round = 0; round < repeat; ++round) {
      const bool last = round == repeat - 1;
      if (query == "ping") {
        client.ping();
        if (last) std::printf("ok\n");
      } else if (query == "mi") {
        const std::vector<GenePair> pairs =
            parse_pairs(args.get("pairs"));
        const std::vector<double> values =
            args.has("estimator") && !args.get("estimator").empty()
                ? client.mi_pairs(pairs,
                                  parse_estimator(args.get("estimator")))
                : client.mi_pairs(pairs);
        if (last)
          for (std::size_t i = 0; i < pairs.size(); ++i)
            std::printf("%u\t%u\t%.17g\n", pairs[i].a, pairs[i].b,
                        values[i]);
      } else if (query == "neighbors") {
        const auto edges = client.neighborhood(
            static_cast<std::uint32_t>(args.get_int("gene")), k);
        if (last) print_edges(edges);
      } else if (query == "top") {
        const auto edges = client.top_edges(k);
        if (last) print_edges(edges);
      } else if (query == "subgraph") {
        const auto edges = client.subgraph(parse_ids(args.get("genes")));
        if (last) print_edges(edges);
      } else if (query == "metrics") {
        if (last)
          std::printf("%s\n", client.metrics_json().c_str());
        else
          client.metrics_json();
      } else if (query == "sweep") {
        const cluster::SweepJobResult result =
            client.sweep_job([](const std::string& event) {
              std::fprintf(stderr, "%s\n", event.c_str());
            });
        if (last)
          std::printf(
              "sweep done: %zu pairs, %zu edges, %zu/%zu tiles resumed, "
              "%.3f s (kernel=%s estimator=%s)\n",
              result.pairs, result.edges, result.tiles_resumed, result.tiles,
              result.seconds, result.kernel.c_str(),
              result.estimator.c_str());
      } else {  // shutdown
        client.shutdown_server();
        if (last) std::printf("ok\n");
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tinge_client: %s\n", error.what());
    return 1;
  }
  return 0;
}
