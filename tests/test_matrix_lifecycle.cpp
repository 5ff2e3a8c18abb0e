// One copy of the expression matrix per stage: the TSV reader parses into
// the matrix rows, the filter compacts them in place, the rank transform
// can overwrite them with ranks, and stage 1 drops the float values unless
// something reads them later. Every step moves data and never changes a
// value, so each is checked bit for bit against the copying path it
// replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/dataset_session.h"
#include "data/tsv_io.h"
#include "graph/network.h"
#include "mi/bspline_mi.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "preprocess/filter.h"
#include "preprocess/rank_transform.h"
#include "stats/rng.h"
#include "synth/expression.h"
#include "util/str.h"

namespace tinge {
namespace {

// ---- the TSV reader -----------------------------------------------------------

/// The split-then-stage reader the in-place reader replaced, kept as the
/// reference its results and messages must equal.
ExpressionMatrix reference_read(std::istream& in) {
  std::string line;
  std::vector<std::string> sample_names;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = split_view(line, '\t');
    if (fields.size() < 2)
      throw IoError("TSV header needs a gene column plus at least one sample");
    for (std::size_t i = 1; i < fields.size(); ++i)
      sample_names.emplace_back(trim(fields[i]));
    break;
  }
  if (sample_names.empty()) throw IoError("TSV input has no header line");
  std::vector<std::string> gene_names;
  std::vector<float> values;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = split_view(line, '\t');
    if (fields.size() != sample_names.size() + 1)
      throw IoError(strprintf("line %zu: expected %zu columns, got %zu",
                              line_number, sample_names.size() + 1,
                              fields.size()));
    gene_names.emplace_back(trim(fields[0]));
    if (gene_names.back().empty())
      throw IoError(strprintf("line %zu: empty gene name", line_number));
    for (std::size_t i = 1; i < fields.size(); ++i) {
      const auto value = parse_float(fields[i]);
      if (!value)
        throw IoError(strprintf("line %zu, column %zu: cannot parse '%.*s'",
                                line_number, i + 1,
                                static_cast<int>(fields[i].size()),
                                fields[i].data()));
      values.push_back(*value);
    }
  }
  const std::size_t n = gene_names.size();
  const std::size_t m = sample_names.size();
  ExpressionMatrix matrix(n, m, std::move(gene_names), std::move(sample_names));
  for (std::size_t g = 0; g < n; ++g)
    for (std::size_t s = 0; s < m; ++s) matrix.at(g, s) = values[g * m + s];
  return matrix;
}

/// A stream that cannot seek (tellg fails), like a pipe: the reader cannot
/// count rows ahead and grows its row store instead.
class PipeBuffer : public std::streambuf {
 public:
  explicit PipeBuffer(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

void expect_same_matrix(const ExpressionMatrix& got,
                        const ExpressionMatrix& want) {
  ASSERT_EQ(got.n_genes(), want.n_genes());
  ASSERT_EQ(got.n_samples(), want.n_samples());
  EXPECT_EQ(got.gene_names(), want.gene_names());
  EXPECT_EQ(got.sample_names(), want.sample_names());
  for (std::size_t g = 0; g < got.n_genes(); ++g) {
    const float* a = got.row(g).data();
    const float* b = want.row(g).data();
    // Whole padded rows: the padding must be zero, like a fresh matrix's.
    ASSERT_EQ(std::memcmp(a, b, got.stride() * sizeof(float)), 0)
        << "row " << g << " differs";
  }
}

/// Every layout rule at once: comments and blank lines before the header
/// and between rows, CRLF endings, whitespace around names and cells,
/// every NA spelling, empty and blank cells, and no final newline.
const char* const kQuirkyTsv =
    "# exported by a tool\r\n"
    "\r\n"
    "   \t  \n"
    "  gene \t s1\t s2 \ts3\t\ts5\r\n"
    "# a comment between rows\n"
    "A1\t1.5\t-2\t NA \tna\tNaN\r\n"
    "\n"
    "  B2  \t nan\tNAN\t\t 3e-2 \t  \r\n"
    "    # an indented comment\n"
    "C3\t0\t-0\t1e10\t7\t.25";

std::string big_tsv(std::size_t genes, std::size_t samples) {
  Xoshiro256 rng(77);
  std::string text = "gene";
  for (std::size_t s = 0; s < samples; ++s) text += strprintf("\ts%zu", s);
  text += '\n';
  for (std::size_t g = 0; g < genes; ++g) {
    text += strprintf("g%zu", g);
    for (std::size_t s = 0; s < samples; ++s)
      text += rng.uniform() < 0.05 ? std::string("\tNA")
                                   : strprintf("\t%.7g", rng.normal());
    text += g % 17 == 3 ? "\r\n\n# note\n" : "\n";
  }
  return text;
}

TEST(TsvReader, MatchesTheStagingReaderOnEveryLayoutRule) {
  std::istringstream in(kQuirkyTsv), reference_in(kQuirkyTsv);
  const ExpressionMatrix got = read_expression_tsv(in);
  const ExpressionMatrix want = reference_read(reference_in);
  expect_same_matrix(got, want);
  EXPECT_EQ(got.sample_names(),
            (std::vector<std::string>{"s1", "s2", "s3", "", "s5"}));
  EXPECT_EQ(got.gene_names(), (std::vector<std::string>{"A1", "B2", "C3"}));
  EXPECT_EQ(got.count_missing(), 7u);
}

TEST(TsvReader, FileStreamAndPipeReadTheSameMatrix) {
  const std::string text = big_tsv(300, 37);  // 37: a padded stride
  std::istringstream reference_in(text);
  const ExpressionMatrix want = reference_read(reference_in);

  const std::string path = testing::TempDir() + "tingex_lifecycle.tsv";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  expect_same_matrix(read_expression_tsv_file(path), want);
  std::remove(path.c_str());

  std::istringstream seekable(text);
  expect_same_matrix(read_expression_tsv(seekable), want);

  // 300 rows through a store that starts empty and grows by half.
  PipeBuffer pipe_buffer(text);
  std::istream pipe(&pipe_buffer);
  ASSERT_EQ(pipe.tellg(), std::istream::pos_type(-1));
  pipe.clear();
  expect_same_matrix(read_expression_tsv(pipe), want);
}

std::string read_error(const std::string& text) {
  std::istringstream in(text);
  try {
    read_expression_tsv(in);
  } catch (const IoError& error) {
    return error.what();
  }
  return "no error";
}

std::string reference_error(const std::string& text) {
  std::istringstream in(text);
  try {
    reference_read(in);
  } catch (const IoError& error) {
    return error.what();
  }
  return "no error";
}

TEST(TsvReader, ErrorsKeepTheirLineAndColumnText) {
  // Line numbers count from the header (line 1), comments before it
  // included or not.
  const std::string head = "# c\n\ngene\ta\tb\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {head + "g1\t1\t2\ng2\t1\n", "line 3: expected 3 columns, got 2"},
      {head + "g1\t1\t2\t3\n", "line 2: expected 3 columns, got 4"},
      {head + "g1\n", "line 2: expected 3 columns, got 1"},
      {head + " \t1\t2\n", "line 2: empty gene name"},
      {head + "g1\t1\tx\r\n", "line 2, column 3: cannot parse 'x\r'"},
      {head + "g1\t 1.5.2 \t2\n", "line 2, column 2: cannot parse ' 1.5.2 '"},
      // The column count is reported before a bad name or a bad cell.
      {head + "\tx\t1\t2\n", "line 2: expected 3 columns, got 4"},
      {head + "g1\tx\n", "line 2: expected 3 columns, got 2"},
      {"# only a comment\n", "TSV input has no header line"},
      {"gene only\n", "TSV header needs a gene column plus at least one sample"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(read_error(text), message) << text;
    EXPECT_EQ(reference_error(text), message) << text;
  }
}

// ---- the filter ---------------------------------------------------------------

ExpressionMatrix filter_input() {
  GrnParams grn;
  grn.n_genes = 30;
  ExpressionParams arrays;
  arrays.n_samples = 40;
  arrays.missing_fraction = 0.02;
  ExpressionMatrix matrix = simulate_expression(generate_grn(grn), arrays);
  for (std::size_t s = 0; s < matrix.n_samples(); ++s) {
    matrix.at(4, s) = 2.5f;                                   // constant
    matrix.at(11, s) = s % 2 == 0 ? std::nanf("") : 1.0f * s;  // 50% missing
    matrix.at(29, s) = 0.0f;                                  // constant, last
  }
  matrix.at(0, 0) = std::nanf("");
  return matrix;
}

TEST(InPlaceFilter, EqualsSelectGenesOfTheKeptRows) {
  const ExpressionMatrix input = filter_input();
  const FilterCriteria criteria;
  const FilterResult copied = filter_genes(input, criteria);

  ExpressionMatrix consumed = input.clone();
  const float* storage = consumed.row(0).data();
  const FilterResult in_place = filter_genes(std::move(consumed), criteria);

  const std::vector<std::size_t> expected = [] {
    std::vector<std::size_t> kept;
    for (std::size_t g = 0; g < 30; ++g)
      if (g != 4 && g != 11 && g != 29) kept.push_back(g);
    return kept;
  }();
  EXPECT_EQ(in_place.kept, expected);
  EXPECT_EQ(copied.kept, expected);
  EXPECT_EQ(in_place.dropped_low_variance, 2u);
  EXPECT_EQ(in_place.dropped_missing, 1u);
  EXPECT_EQ(copied.dropped_low_variance, 2u);
  EXPECT_EQ(copied.dropped_missing, 1u);
  expect_same_matrix(in_place.matrix, input.select_genes(expected));
  expect_same_matrix(copied.matrix, input.select_genes(expected));
  // The kept rows moved up inside the matrix that was passed in.
  EXPECT_EQ(in_place.matrix.row(0).data(), storage);
}

TEST(InPlaceFilter, KeepGenesRejectsUnorderedIndices) {
  ExpressionMatrix matrix(4, 3);
  EXPECT_THROW(matrix.keep_genes({2, 1}), ContractViolation);
  EXPECT_THROW(matrix.keep_genes({1, 1}), ContractViolation);
  EXPECT_THROW(matrix.keep_genes({0, 4}), ContractViolation);
}

// ---- the rank transform ---------------------------------------------------------

/// Quantized values (many ties) with imputed missing spots, at `m` samples.
ExpressionMatrix rank_input(std::size_t m) {
  Xoshiro256 rng(m);
  ExpressionMatrix matrix(23, m);
  for (std::size_t g = 0; g < matrix.n_genes(); ++g)
    for (std::size_t s = 0; s < m; ++s)
      matrix.at(g, s) = rng.uniform() < 0.1
                            ? std::nanf("")
                            : std::round(static_cast<float>(rng.normal()) * 2.0f);
  impute_missing_with_median(matrix);
  return matrix;
}

void expect_same_ranks(const RankedMatrix& got, const RankedMatrix& want) {
  ASSERT_EQ(got.n_genes(), want.n_genes());
  ASSERT_EQ(got.n_samples(), want.n_samples());
  EXPECT_EQ(got.gene_names(), want.gene_names());
  const std::size_t stride =
      ExpressionMatrix::padded_stride(got.n_samples());
  for (std::size_t g = 0; g < got.n_genes(); ++g)
    ASSERT_EQ(std::memcmp(got.ranks(g).data(), want.ranks(g).data(),
                          stride * sizeof(std::uint32_t)),
              0)
        << "gene " << g << " (padding included)";
}

TEST(ConsumingRank, EqualsTheCopyingRankBitForBit) {
  par::ThreadPool pool(3);
  for (const std::size_t m : {1u, 16u, 37u, 100u, 257u}) {
    SCOPED_TRACE(m);
    const ExpressionMatrix input = rank_input(m);
    const RankedMatrix copied(input);
    expect_same_ranks(RankedMatrix(input, pool, 3), copied);

    ExpressionMatrix serial = input.clone();
    const void* serial_storage = serial.row(0).data();
    const RankedMatrix consumed(std::move(serial));
    expect_same_ranks(consumed, copied);
    EXPECT_EQ(static_cast<const void*>(consumed.ranks(0).data()),
              serial_storage);
    EXPECT_EQ(serial.n_genes(), 0u);

    ExpressionMatrix parallel = input.clone();
    const void* parallel_storage = parallel.row(0).data();
    const RankedMatrix pooled(std::move(parallel), pool, 0);
    expect_same_ranks(pooled, copied);
    EXPECT_EQ(static_cast<const void*>(pooled.ranks(0).data()),
              parallel_storage);
  }
}

// ---- the keep rule ------------------------------------------------------------

ExpressionMatrix session_input() {
  GrnParams grn;
  grn.n_genes = 24;
  ExpressionParams arrays;
  arrays.n_samples = 64;
  return simulate_expression(generate_grn(grn), arrays);
}

TingeConfig session_config(EstimatorKind estimator, std::size_t resamples) {
  TingeConfig config;
  config.estimator = estimator;
  config.consensus_resamples = resamples;
  config.permutations = 100;
  config.threads = 2;
  return config;
}

TEST(KeepValues, OnlyValueReadingBuildsKeepTheFloatMatrix) {
  par::ThreadPool pool(2);
  const struct {
    EstimatorKind estimator;
    std::size_t resamples;
    bool keeps;
  } cases[] = {
      {EstimatorKind::Bspline, 0, false},
      {EstimatorKind::Histogram, 0, false},
      {EstimatorKind::Pearson, 0, true},
      {EstimatorKind::Bspline, 2, true},
  };
  for (const auto& c : cases) {
    const TingeConfig config = session_config(c.estimator, c.resamples);
    SCOPED_TRACE(std::string(estimator_name(c.estimator)) + " resamples " +
                 std::to_string(c.resamples));
    EXPECT_EQ(reads_values(config), c.keeps);
    const DatasetSession session(session_input(), config, pool);
    EXPECT_EQ(session.working().n_genes(),
              c.keeps ? session.ranked().n_genes() : 0u);
    const DatasetSession kept(session_input(), config, pool, nullptr, {},
                              KeepValues::Always);
    EXPECT_EQ(kept.working().n_genes(), kept.ranked().n_genes());
    // Keeping or dropping the values never changes the ranks.
    expect_same_ranks(session.ranked(), kept.ranked());
  }
}

// ---- the edge drain -----------------------------------------------------------

TEST(EdgeDrain, AnEmptyNetworkAdoptsALoneBuffer) {
  GeneNetwork network(std::vector<std::string>{"a", "b", "c", "d"});
  std::vector<Edge> buffer{{0, 1, 0.5f}, {2, 3, 0.25f}};
  const Edge* storage = buffer.data();
  network.add_edges(std::move(buffer));
  EXPECT_EQ(network.edges().data(), storage);

  std::vector<Edge> more{{1, 2, 0.75f}};
  network.add_edges(std::move(more));
  EXPECT_EQ(more.capacity(), 0u);  // copied, then released at once
  ASSERT_EQ(network.n_edges(), 3u);
  EXPECT_EQ(network.edges()[2], (Edge{1, 2, 0.75f}));
  EXPECT_THROW(network.add_edges(std::vector<Edge>{{3, 2, 1.0f}}),
               ContractViolation);
}

// ---- the joint histogram --------------------------------------------------------

TEST(JointHistogramLayout, RowsAreWholeSixteenFloatBlocks) {
  EXPECT_EQ(JointHistogram::stride_for(10), 16u);
  EXPECT_EQ(JointHistogram::stride_for(16), 16u);
  EXPECT_EQ(JointHistogram::stride_for(20), 32u);
  EXPECT_EQ(JointHistogram::stride_for(40), 48u);
}

TEST(JointHistogramLayout, PanelsIgnoreWhatTheScratchHeldBefore) {
  // The vector kernel skips the clear and stores every cell; a scratch
  // full of garbage must give the bits a fresh one gives, on either kernel.
  for (const int bins : {10, 20, 40}) {
    SCOPED_TRACE(bins);
    const std::size_t m = 300;
    const BsplineMi estimator(bins, 3, m);
    Xoshiro256 rng(static_cast<std::uint64_t>(bins));
    std::vector<std::vector<std::uint32_t>> rows(5);
    for (auto& row : rows) {
      std::vector<float> values(m);
      for (float& v : values) v = static_cast<float>(rng.normal());
      row = rank_order(values);
    }
    const std::uint32_t* ry[4] = {rows[1].data(), rows[2].data(),
                                  rows[3].data(), rows[4].data()};
    for (const MiKernel kernel : {MiKernel::Auto, MiKernel::Scalar}) {
      JointHistogram fresh = estimator.make_scratch();
      JointHistogram dirty = estimator.make_scratch();
      std::fill(dirty.data(), dirty.data() + dirty.cell_count(),
                std::numeric_limits<float>::quiet_NaN());
      double want[4], got[4];
      estimator.mi_panel(rows[0].data(), ry, 4, fresh, kernel, want);
      estimator.mi_panel(rows[0].data(), ry, 4, dirty, kernel, got);
      for (int p = 0; p < 4; ++p)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[p]),
                  std::bit_cast<std::uint64_t>(want[p]));
    }
  }
}

// ---- per-stage peak memory ----------------------------------------------------

TEST(PeakStage, FirstSpanToCloseAtTheRunPeak) {
  obs::SpanNode root;
  root.name = "run";
  root.peak_rss_mb = 40.0;
  const auto child = [](obs::SpanNode& parent, const char* name, double peak) {
    parent.children.push_back(std::make_unique<obs::SpanNode>());
    parent.children.back()->name = name;
    parent.children.back()->peak_rss_mb = peak;
    return parent.children.back().get();
  };
  obs::SpanNode* preprocess = child(root, "preprocess", 30.0);
  child(*preprocess, "filter", 20.0);
  child(*preprocess, "rank", 30.0);
  child(root, "mi_sweep", 40.0);
  child(root, "output", 40.0);
  EXPECT_EQ(obs::peak_stage(root).name, "mi_sweep");
  root.peak_rss_mb = 30.0;
  EXPECT_EQ(obs::peak_stage(root).name, "rank");  // closes before its parent
  root.peak_rss_mb = 50.0;
  EXPECT_EQ(obs::peak_stage(root).name, "run");  // rose after the last span
}

TEST(PeakStage, SpansRecordTheProcessPeakAsTheyClose) {
  obs::Trace trace;
  {
    const obs::TraceSpan outer(trace, "outer");
    { const obs::TraceSpan inner(trace, "inner"); }
  }
  trace.finish();
  const obs::SpanNode& root = trace.root();
  const obs::SpanNode& outer = *root.children.at(0);
  const obs::SpanNode& inner = *outer.children.at(0);
  EXPECT_GT(inner.peak_rss_mb, 0.0);
  EXPECT_LE(inner.peak_rss_mb, outer.peak_rss_mb);
  EXPECT_LE(outer.peak_rss_mb, root.peak_rss_mb);
  EXPECT_LE(root.peak_rss_mb, obs::process_peak_rss_mb());
}

}  // namespace
}  // namespace tinge
