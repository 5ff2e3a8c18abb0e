// Serve modes: the in-process daemon driven only through the shipped
// ServeClient, its set-up alone, and the traced three-entry-point run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/serve_client.h"
#include "cluster/serve_server.h"
#include "common.h"
#include "core/mi_query.h"
#include "core/pair_statistic.h"
#include "data/tsv_io.h"
#include "graph/network.h"
#include "stats/rng.h"

namespace perfbench {

using tinge::obs::Json;
using tinge::cluster::ServeClient;
using tinge::cluster::ServeEdge;

namespace {

constexpr int kPairsPerQuery = 4;
constexpr std::uint32_t kNeighbors = 10;
constexpr int kConnections = 4;          // the closed loop's clients
// Below the ~36 MiB that serve-mixed's tiles take; the batch workloads'
// smaller serve inputs fit whole.
constexpr std::size_t kCacheBytes = 16u << 20;
constexpr int kWarmupConnections = 16;   // fills the cache 4x faster
constexpr const char* kHost = "127.0.0.1";

// Salts that keep the seeded streams of one run apart.
constexpr std::uint64_t kOrderSalt = 1;
constexpr std::uint64_t kStreamSalt = 100;
constexpr std::uint64_t kWarmupSalt = 10000;

std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  tinge::SplitMix64 mix(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return mix.next();
}

/// Zipf(1) over a seeded order of the genes: the gene at position r of the
/// order is drawn with probability proportional to 1 / (r + 1).
class ZipfGenes {
 public:
  ZipfGenes(std::size_t n, std::uint64_t seed) : order_(n), cdf_(n) {
    std::iota(order_.begin(), order_.end(), 0u);
    tinge::Xoshiro256 rng(seed);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(order_[i], order_[rng() % (i + 1)]);
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint32_t draw(tinge::Xoshiro256& rng) const {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const auto r = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(r, order_.size() - 1)];
  }

 private:
  std::vector<std::uint32_t> order_;
  std::vector<double> cdf_;
};

struct Query {
  bool mi = true;
  std::vector<tinge::GenePair> pairs;  // MI queries
  std::uint32_t gene = 0;              // neighborhood queries
};

/// One connection's seeded query stream: a share `mi_share` of MI queries
/// of 4 Zipf pairs, the rest neighborhood queries (k = 10) of one Zipf gene.
class QueryStream {
 public:
  QueryStream(const ZipfGenes& genes, double mi_share, std::uint64_t seed)
      : genes_(genes), mi_share_(mi_share), rng_(seed) {}

  Query next() {
    Query query;
    query.mi = static_cast<double>(rng_() >> 11) * 0x1.0p-53 < mi_share_;
    if (!query.mi) {
      query.gene = genes_.draw(rng_);
      return query;
    }
    for (int p = 0; p < kPairsPerQuery; ++p) {
      const std::uint32_t a = genes_.draw(rng_);
      std::uint32_t b = genes_.draw(rng_);
      while (b == a) b = genes_.draw(rng_);
      query.pairs.push_back(tinge::GenePair{a, b});
    }
    return query;
  }

  Query next_mi() {
    for (;;) {
      Query query = next();
      if (query.mi) return query;
    }
  }

 private:
  const ZipfGenes& genes_;
  double mi_share_;
  tinge::Xoshiro256 rng_;
};

/// One answered (or failed) query.
struct Record {
  Query query;
  double seconds = 0.0;
  std::string error;  // empty = answered
  std::vector<double> mi;
  std::vector<ServeEdge> edges;
};

/// Runs body(c) on `n` threads and joins them all; an exception escaping a
/// body is kept and rethrown after the join.
void run_threads(int n, const std::function<void(int)>& body) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c)
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

/// Sends one query through a client, timing the round trip.
Record ask(ServeClient& client, Query query) {
  Record record;
  record.query = std::move(query);
  const tinge::Stopwatch watch;
  try {
    if (record.query.mi)
      record.mi = client.mi_pairs(record.query.pairs);
    else
      record.edges = client.neighborhood(record.query.gene, kNeighbors);
  } catch (const std::exception& error) {
    record.error = error.what();
  }
  record.seconds = watch.seconds();
  return record;
}

/// The daemon's top-k answer rule over an adjacency: weight-descending,
/// ties by node id, truncated to k.
std::vector<ServeEdge> top_neighbors(const tinge::Adjacency& adjacency,
                                     std::uint32_t gene) {
  std::vector<ServeEdge> edges;
  for (const auto& neighbor : adjacency.neighbors(gene))
    edges.push_back(ServeEdge{gene, neighbor.node, neighbor.weight});
  std::sort(edges.begin(), edges.end(),
            [](const ServeEdge& x, const ServeEdge& y) {
              if (x.weight != y.weight) return x.weight > y.weight;
              return x.v < y.v;
            });
  if (edges.size() > kNeighbors) edges.resize(kNeighbors);
  return edges;
}

/// Output checks of served answers, run after the timed window: MI answers
/// must bit-match the batch sweep's value (eval_pair on the same ranked
/// matrix, in the sweep's orientation), neighborhoods must equal the top-k
/// of an adjacency rebuilt from the built network.
class Verifier {
 public:
  explicit Verifier(const tinge::cluster::ServeState& state)
      : ranked_(state.ranked()),
        statistic_(tinge::make_pair_statistic(reference_config(state.config()),
                                              state.ranked())),
        scratch_(statistic_->make_scratch()),
        adjacency_(state.network()) {}

  /// Empty when the record is correct, else why not.
  std::string check(const Record& record) {
    if (!record.error.empty()) return "error: " + record.error;
    if (!record.query.mi) {
      const std::vector<ServeEdge> expected =
          top_neighbors(adjacency_, record.query.gene);
      const bool same =
          expected.size() == record.edges.size() &&
          std::equal(expected.begin(), expected.end(), record.edges.begin(),
                     [](const ServeEdge& x, const ServeEdge& y) {
                       return x.u == y.u && x.v == y.v &&
                              std::memcmp(&x.weight, &y.weight,
                                          sizeof(float)) == 0;
                     });
      return same ? "" : "neighborhood of gene " +
                             std::to_string(record.query.gene) +
                             " differs from the network's top-k";
    }
    if (record.mi.size() != record.query.pairs.size())
      return "MI answer count differs from the pairs asked";
    for (std::size_t p = 0; p < record.mi.size(); ++p) {
      const double expected = batch_value(record.query.pairs[p]);
      if (std::memcmp(&expected, &record.mi[p], sizeof(double)) != 0)
        return "MI(" + std::to_string(record.query.pairs[p].a) + ", " +
               std::to_string(record.query.pairs[p].b) +
               ") differs from the batch value";
    }
    return "";
  }

 private:
  double batch_value(tinge::GenePair pair) {
    const auto [x, y] = std::minmax(pair.a, pair.b);
    return statistic_->eval_pair(ranked_.ranks(x).data(),
                                 ranked_.ranks(y).data(), x, y, *scratch_);
  }

  const tinge::RankedMatrix& ranked_;
  std::unique_ptr<tinge::PairStatistic> statistic_;
  std::unique_ptr<tinge::PairScratch> scratch_;
  tinge::Adjacency adjacency_;
};

tinge::cluster::ServeOptions serve_options() {
  tinge::cluster::ServeOptions options;
  options.cache_bytes = kCacheBytes;
  return options;
}

/// The daemon's registry, read through its Metrics query.
Json daemon_metrics(const tinge::cluster::ServeServer& server) {
  return Json::parse(ServeClient(kHost, server.port()).metrics_json());
}

/// The handler p50s (serve.client.<id>.seconds) of the clients in `after`
/// that are absent from `before` and have recorded `queries` queries.
std::vector<double> new_client_p50s(const Json& before, const Json& after,
                                    std::size_t queries) {
  std::vector<double> p50s;
  for (const auto& [name, histogram] : after.at("histograms").members())
    if (name.rfind("serve.client.", 0) == 0 &&
        before.at("histograms").find(name) == nullptr &&
        histogram.at("count").as_double() == static_cast<double>(queries))
      p50s.push_back(histogram.at("p50").as_double());
  return p50s;
}

/// The registry once a pass of kConnections fresh clients (absent from
/// `before`) has recorded all `queries` of each. A handler records a query
/// just after sending its answer, so the last records can trail the
/// clients' return.
Json settled_metrics(const tinge::cluster::ServeServer& server,
                     const Json& before, std::size_t queries) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    Json after = daemon_metrics(server);
    if (new_client_p50s(before, after, queries).size() ==
        static_cast<std::size_t>(kConnections))
      return after;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  throw std::runtime_error("the daemon's metrics never showed the pass's " +
                           std::to_string(kConnections) + " clients of " +
                           std::to_string(queries) + " queries");
}

/// The daemon's own handling time of that pass: the median of its clients'
/// handler p50s.
double pass_handler_p50(const Json& before, const Json& after,
                        std::size_t queries) {
  std::vector<double> p50s = new_client_p50s(before, after, queries);
  std::sort(p50s.begin(), p50s.end());
  const std::size_t mid = p50s.size() / 2;
  return (p50s[mid - 1] + p50s[mid]) / 2.0;
}

Json seconds_array(const std::vector<double>& seconds) {
  Json out = Json::array();
  for (const double s : seconds) out.push_back(s);
  return out;
}

/// Moves every connection's records onto `all`; returns their seconds.
std::vector<double> drain(std::vector<std::vector<Record>>& per_connection,
                          std::vector<Record>& all) {
  std::vector<double> seconds;
  for (auto& mine : per_connection)
    for (Record& record : mine) {
      seconds.push_back(record.seconds);
      all.push_back(std::move(record));
    }
  return seconds;
}

/// Verifies records, returns the failure count and keeps a few reasons.
std::size_t verify(Verifier& verifier, const std::vector<Record>& records,
                   Json& reasons) {
  std::size_t failed = 0;
  for (const Record& record : records) {
    const std::string why = verifier.check(record);
    if (why.empty()) continue;
    ++failed;
    if (reasons.size() < 5) reasons.push_back(why);
  }
  return failed;
}

/// Self-test hook: nudges the first MI answer by one ulp, which the
/// verification must count as a failed query.
void inject_wrong_answer(const tinge::ArgParser& args,
                         std::vector<Record>& records) {
  if (args.get_int("inject-wrong-answer") == 0) return;
  for (Record& record : records)
    if (record.query.mi && !record.mi.empty()) {
      record.mi[0] = std::nextafter(record.mi[0], 1e300);
      return;
    }
}

Json serve_record(tinge::cluster::ServeState& state) {
  Json record = Json::object();
  record["kernel"] = state.build_stats().kernel;
  record["panel_width"] = state.build_stats().panel_width;
  record["threads"] = state.pool().max_threads();
  record["host"] = host_record();
  return record;
}

/// A started daemon and the times of its set-up: the whole of it (read to
/// first ping) and the ServeState build within it.
struct Daemon {
  std::unique_ptr<tinge::cluster::ServeState> state;
  std::unique_ptr<tinge::cluster::ServeServer> server;
  double setup_s = 0.0;
  double build_s = 0.0;
};

Daemon start_daemon(const tinge::ArgParser& args,
                    const tinge::cluster::ServeOptions& options) {
  Daemon daemon;
  const tinge::Stopwatch setup_watch;
  tinge::ExpressionMatrix expression =
      tinge::read_expression_tsv_file(args.get("input"));
  const tinge::Stopwatch build_watch;
  daemon.state = std::make_unique<tinge::cluster::ServeState>(
      std::move(expression), pipeline_config(args), options);
  daemon.build_s = build_watch.seconds();
  daemon.server =
      std::make_unique<tinge::cluster::ServeServer>(*daemon.state, options);
  ServeClient(kHost, daemon.server->port()).ping();
  daemon.setup_s = setup_watch.seconds();
  return daemon;
}

/// The set-up times every serve mode reports.
void record_setup(const Daemon& daemon, Json& result) {
  result["setup_s"] = daemon.setup_s;
  result["build_s"] = daemon.build_s;
}

}  // namespace

int run_serve_setup(const tinge::ArgParser& args) {
  const Daemon daemon = start_daemon(args, serve_options());
  daemon.server->stop();
  Json result = serve_record(*daemon.state);
  record_setup(daemon, result);
  write_json(result, args.get("result"));
  return 0;
}

// The timed serve run: set-up, an untimed warm-up that settles the tile
// cache, then a closed loop of kConnections ServeClients for `seconds`.
// Answers are checked after the window, so checking adds no load to it.
int run_serve(const tinge::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double mi_share = args.get_double("mi-share");
  const Daemon daemon = start_daemon(args, serve_options());
  tinge::cluster::ServeState& state = *daemon.state;
  tinge::cluster::ServeServer& server = *daemon.server;

  const ZipfGenes genes(state.n_genes(), derive(seed, kOrderSalt));
  const auto warmup_queries = args.get_int("warmup-queries");
  run_threads(kWarmupConnections, [&](int c) {
    ServeClient client(kHost, server.port());
    QueryStream stream(genes, mi_share, derive(seed, kWarmupSalt + c));
    for (long long q = 0; q < warmup_queries; ++q)
      client.mi_pairs(stream.next_mi().pairs);
  });

  const double window = args.get_double("seconds");
  const std::uint64_t hits = state.cache().hits();
  const std::uint64_t misses = state.cache().misses();
  std::vector<std::vector<Record>> records(
      kConnections);
  const tinge::Stopwatch window_watch;
  run_threads(kConnections, [&](int c) {
    ServeClient client(kHost, server.port());
    QueryStream stream(genes, mi_share, derive(seed, kStreamSalt + c));
    auto& mine = records[static_cast<std::size_t>(c)];
    while (window_watch.seconds() < window)
      mine.push_back(ask(client, stream.next()));
  });
  const double elapsed = window_watch.seconds();
  const std::uint64_t window_hits = state.cache().hits() - hits;
  const std::uint64_t window_misses = state.cache().misses() - misses;
  server.stop();

  std::vector<Record> all;
  drain(records, all);
  inject_wrong_answer(args, all);
  Verifier verifier(state);
  Json reasons = Json::array();
  const std::size_t failed = verify(verifier, all, reasons);

  std::vector<double> mi_seconds, nbr_seconds;
  std::size_t mi_pairs = 0;  // answered, right or wrong
  for (const Record& record : all) {
    (record.query.mi ? mi_seconds : nbr_seconds).push_back(record.seconds);
    mi_pairs += record.mi.size();
  }
  Json result = serve_record(state);
  record_setup(daemon, result);
  result["window_s"] = elapsed;
  result["queries"] = all.size();
  result["failed"] = failed;
  result["failures"] = std::move(reasons);
  result["mi_s"] = seconds_array(mi_seconds);
  result["nbr_s"] = seconds_array(nbr_seconds);
  result["mi_pairs"] = mi_pairs;
  result["cache_hits"] = window_hits;
  result["cache_misses"] = window_misses;
  write_json(result, args.get("result"));
  return 0;
}

// The traced serve run times one seeded MI stream at three entry points,
// each from an equally cold cache: ServeClient::mi_pairs on daemon A (full
// stack), PairBatcher::query on a second daemon state B (no transport), and
// MiQueryEngine::pair_values on a fresh cache over B's data (no batcher,
// one calling thread). Neighborhood queries are timed through the client,
// and their graph read alone in-process; the daemon's own handling time of
// each client pass comes from its Metrics query. With --baseline-only 1 it
// runs the full-stack pass alone, without spans: the baseline of the
// tracing overhead.
int run_serve_trace(const tinge::ArgParser& args) {
  const tinge::TingeConfig config = pipeline_config(args);
  const tinge::cluster::ServeOptions options = serve_options();
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double mi_share = args.get_double("mi-share");
  const bool baseline_only = args.get_int("baseline-only") != 0;
  SpanLog log;
  SpanLog* spans = baseline_only ? nullptr : &log;
  Json result = Json::object();

  std::unique_ptr<tinge::cluster::ServeState> a;
  std::unique_ptr<tinge::cluster::ServeServer> server;
  {
    const ScopedSpan setup(spans, "setup");
    tinge::ExpressionMatrix expression;
    {
      const ScopedSpan span(spans, "data.read", setup.index());
      expression = tinge::read_expression_tsv_file(args.get("input"));
    }
    {
      const ScopedSpan span(spans, "serve.build", setup.index());
      a = std::make_unique<tinge::cluster::ServeState>(std::move(expression),
                                                       config, options);
    }
    {
      const ScopedSpan span(spans, "graph.adjacency", setup.index());
      const tinge::Adjacency adjacency(a->network());
    }
    {
      const ScopedSpan span(spans, "serve.listen", setup.index());
      server = std::make_unique<tinge::cluster::ServeServer>(*a, options);
    }
    const ScopedSpan span(spans, "serve.first_ping", setup.index());
    ServeClient(kHost, server->port()).ping();
  }

  // The per-connection streams, split by kind.
  const ZipfGenes genes(a->n_genes(), derive(seed, kOrderSalt));
  const auto mi_count =
      static_cast<std::size_t>(args.get_int("stream-queries"));
  const auto nbr_count = static_cast<std::size_t>(args.get_int("nbr-queries"));
  std::vector<std::vector<Query>> mi_stream(kConnections);
  std::vector<std::vector<Query>> nbr_stream(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    QueryStream stream(genes, mi_share, derive(seed, kStreamSalt + c));
    auto& mi = mi_stream[static_cast<std::size_t>(c)];
    auto& nbr = nbr_stream[static_cast<std::size_t>(c)];
    while (mi.size() < mi_count || nbr.size() < nbr_count) {
      Query query = stream.next();
      auto& list = query.mi ? mi : nbr;
      if (list.size() < (query.mi ? mi_count : nbr_count))
        list.push_back(std::move(query));
    }
  }
  const auto query_id = [](int c, std::size_t i) {
    return (static_cast<std::uint64_t>(c + 1) << 32) | i;
  };

  // Entry point 1: the full stack, through the shipped client.
  const Json initial_metrics = daemon_metrics(*server);
  std::vector<std::vector<Record>> full(kConnections);
  const tinge::Stopwatch full_watch;
  run_threads(kConnections, [&](int c) {
    ServeClient client(kHost, server->port());
    const auto& stream = mi_stream[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const ScopedSpan span(spans, "client.mi_pairs", -1, query_id(c, i));
      full[static_cast<std::size_t>(c)].push_back(ask(client, stream[i]));
    }
  });
  result["full_mi_wall_s"] = full_watch.seconds();
  if (baseline_only) {
    server->stop();
    std::vector<Record> all;
    drain(full, all);
    Verifier verifier(*a);
    Json reasons = Json::array();
    result["queries"] = all.size();
    result["failed"] = verify(verifier, all, reasons);
    result["failures"] = std::move(reasons);
    write_json(result, args.get("result"));
    return 0;
  }
  const Json mi_metrics = settled_metrics(*server, initial_metrics, mi_count);
  result["mi_handle_p50_s"] =
      pass_handler_p50(initial_metrics, mi_metrics, mi_count);
  {
    const Json& counters = mi_metrics.at("counters");
    const auto counter = [&](const char* name) {
      const Json* value = counters.find(name);
      return value != nullptr ? value->as_double() : 0.0;
    };
    result["flushes"] = counter("serve.batcher.flushes");
    result["mi_queries_served"] = counter("serve.queries.mi_pairs");
  }

  // Neighborhood reads: through the client, then the graph read alone.
  std::vector<std::vector<Record>> nbr_full(kConnections);
  run_threads(kConnections, [&](int c) {
    ServeClient client(kHost, server->port());
    const auto& stream = nbr_stream[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const ScopedSpan span(spans, "client.neighborhood", -1, query_id(c, i));
      nbr_full[static_cast<std::size_t>(c)].push_back(ask(client, stream[i]));
    }
  });
  result["nbr_handle_p50_s"] = pass_handler_p50(
      mi_metrics, settled_metrics(*server, mi_metrics, nbr_count), nbr_count);
  server->stop();
  // Adjacency::neighbors and one read of the span it returns; the handler's
  // sort and top-k are in its own time above.
  std::vector<double> nbr_local_s;
  double nbr_local_weight = 0.0;  // reported, so the timed read stays
  for (int c = 0; c < kConnections; ++c) {
    const auto& stream = nbr_stream[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const ScopedSpan span(spans, "graph.neighbors", -1, query_id(c, i));
      const tinge::Stopwatch watch;
      for (const auto& neighbor : a->adjacency().neighbors(stream[i].gene))
        nbr_local_weight += neighbor.weight;
      nbr_local_s.push_back(watch.seconds());
    }
  }
  result["local_nbr_weight"] = nbr_local_weight;

  // Entry point 2: the batcher of a second, cold daemon state.
  std::unique_ptr<tinge::cluster::ServeState> b;
  {
    const ScopedSpan span(spans, "serve.build_cold_copy");
    b = std::make_unique<tinge::cluster::ServeState>(
        tinge::read_expression_tsv_file(args.get("input")), config, options);
  }
  std::vector<std::vector<Record>> batched(kConnections);
  {
    tinge::cluster::PairBatcher batcher(*b, options.flush_deadline_ms);
    run_threads(kConnections, [&](int c) {
      const auto& stream = mi_stream[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const ScopedSpan span(spans, "batcher.query", -1, query_id(c, i));
        Record record;
        record.query = stream[i];
        const tinge::Stopwatch watch;
        try {
          record.mi = batcher.query(b->config().estimator, stream[i].pairs);
        } catch (const std::exception& error) {
          record.error = error.what();
        }
        record.seconds = watch.seconds();
        batched[static_cast<std::size_t>(c)].push_back(std::move(record));
      }
    });
  }

  // Entry point 3: the planner on a fresh cache, one calling thread,
  // queries interleaved round-robin across the connections' streams.
  const std::unique_ptr<tinge::PairStatistic> statistic =
      tinge::make_pair_statistic(b->config(), b->ranked());
  tinge::TileCache cache(options.cache_bytes);
  tinge::MiQueryEngine planner(*statistic, b->ranked(), b->config(), &b->pool(),
                               cache, options.dataset_id);
  std::vector<Record> planned;
  std::vector<double> hit_s, miss_s;
  for (std::size_t i = 0; i < mi_count; ++i) {
    for (int c = 0; c < kConnections; ++c) {
      const Query& query = mi_stream[static_cast<std::size_t>(c)][i];
      const ScopedSpan span(spans, "planner.pair_values", -1, query_id(c, i));
      Record record;
      record.query = query;
      const std::uint64_t swept = planner.tiles_swept();
      const tinge::Stopwatch watch;
      try {
        record.mi = planner.pair_values(query.pairs);
      } catch (const std::exception& error) {
        record.error = error.what();
      }
      record.seconds = watch.seconds();
      (planner.tiles_swept() == swept ? hit_s : miss_s)
          .push_back(record.seconds);
      planned.push_back(std::move(record));
    }
  }

  // Checks: every answer of every entry point, after all timing.
  std::vector<Record> all;
  const std::vector<double> full_s = drain(full, all);
  const std::vector<double> nbr_s = drain(nbr_full, all);
  const std::vector<double> batcher_s = drain(batched, all);
  for (Record& record : planned) all.push_back(std::move(record));
  inject_wrong_answer(args, all);
  Verifier verifier(*a);
  Json reasons = Json::array();
  const std::size_t failed = verify(verifier, all, reasons);

  result["queries"] = all.size();
  result["failed"] = failed;
  result["failures"] = std::move(reasons);
  result["full_mi_s"] = seconds_array(full_s);
  result["full_nbr_s"] = seconds_array(nbr_s);
  result["local_nbr_s"] = seconds_array(nbr_local_s);
  result["batcher_mi_s"] = seconds_array(batcher_s);
  result["planner_hit_s"] = seconds_array(hit_s);
  result["planner_miss_s"] = seconds_array(miss_s);
  result["planner_tiles_swept"] = planner.tiles_swept();
  result["cache_hits"] = cache.hits();
  result["cache_misses"] = cache.misses();
  result["cache_evictions"] = cache.evictions();
  result["input_mb"] = static_cast<double>(std::filesystem::file_size(
                           args.get("input"))) / (1024.0 * 1024.0);
  result["serve"] = serve_record(*a);
  write_json(log.to_json(), args.get("spans"));
  write_json(result, args.get("result"));
  return 0;
}

}  // namespace perfbench
