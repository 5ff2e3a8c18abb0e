#include "data/tsv_io.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>

#include "util/str.h"

namespace tinge {

namespace {

/// Header and data rules share one test: a line is skipped when it is
/// blank after trimming or a '#' comment.
bool skipped_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  return trimmed.empty() || trimmed.front() == '#';
}

/// Data lines left in `in` by skipped_line's rule, counted without moving
/// it: one block scan that looks at each line's first non-blank character.
/// 0 when `in` cannot seek back (a pipe); the row store then grows.
std::size_t count_data_lines(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) return 0;
  std::size_t rows = 0;
  bool line_start = true;  // no non-blank character on this line yet
  char block[1 << 16];
  std::streambuf& buffer = *in.rdbuf();
  for (std::streamsize got;
       (got = buffer.sgetn(block, sizeof block)) > 0;) {
    const char* p = block;
    const char* const end = block + got;
    while (p < end) {
      if (!line_start) {
        const void* newline =
            std::memchr(p, '\n', static_cast<std::size_t>(end - p));
        if (newline == nullptr) break;
        p = static_cast<const char*>(newline) + 1;
        line_start = true;
        continue;
      }
      const char c = *p++;
      if (is_space(c)) continue;  // '\n' included: the next line starts
      line_start = false;
      if (c != '#') ++rows;
    }
  }
  in.clear();
  in.seekg(start);
  return rows;
}

/// The matrix rows as the reader fills them, at the matrix stride. Sized
/// once from the counted rows when the stream can seek; otherwise it grows
/// by half each time it fills, so a grow copies at most two thirds of
/// what the new allocation holds.
class RowStore {
 public:
  RowStore(std::size_t stride, std::size_t capacity)
      : stride_(stride),
        capacity_(capacity),
        values_(capacity * stride, kUninitialized) {}

  float* next_row() {
    if (rows_ == capacity_) grow();
    return values_.data() + rows_++ * stride_;
  }

  AlignedBuffer<float> release() && { return std::move(values_); }

 private:
  void grow() {
    capacity_ = std::max<std::size_t>(64, capacity_ + capacity_ / 2);
    AlignedBuffer<float> grown(capacity_ * stride_, kUninitialized);
    std::copy_n(values_.data(), rows_ * stride_, grown.data());
    values_ = std::move(grown);
  }

  std::size_t stride_;
  std::size_t capacity_;
  std::size_t rows_ = 0;
  AlignedBuffer<float> values_;
};

/// Parses data line `line_number` straight into `row` (m values, then zero
/// padding up to `stride`) and returns its trimmed gene name. Errors keep
/// their precedence: a wrong column count first, then an empty gene name,
/// then the first cell that does not parse.
std::string_view parse_row(std::string_view line, std::size_t line_number,
                           std::size_t m, std::size_t stride, float* row) {
  const auto check_columns = [&] {
    const auto got =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t')) +
        1;
    if (got != m + 1)
      throw IoError(strprintf("line %zu: expected %zu columns, got %zu",
                              line_number, m + 1, got));
  };
  std::size_t tab = line.find('\t');
  if (tab == std::string_view::npos) check_columns();
  const std::string_view name = trim(line.substr(0, tab));
  if (name.empty()) {
    check_columns();
    throw IoError(strprintf("line %zu: empty gene name", line_number));
  }
  for (std::size_t s = 0; s < m; ++s) {
    const std::size_t begin = tab + 1;
    tab = line.find('\t', begin);
    const bool last = s + 1 == m;
    if ((tab == std::string_view::npos) != last) check_columns();
    const std::string_view field =
        line.substr(begin, last ? std::string_view::npos : tab - begin);
    const std::optional<float> value = parse_float(field);
    if (!value) {
      check_columns();
      throw IoError(strprintf("line %zu, column %zu: cannot parse '%.*s'",
                              line_number, s + 2,
                              static_cast<int>(field.size()), field.data()));
    }
    row[s] = *value;
  }
  std::fill(row + m, row + stride, 0.0f);
  return name;
}

}  // namespace

ExpressionMatrix read_expression_tsv(std::istream& in) {
  std::string line;

  // Header: first non-comment, non-blank line.
  std::vector<std::string> sample_names;
  while (std::getline(in, line)) {
    if (skipped_line(line)) continue;
    std::size_t tab = line.find('\t');
    if (tab == std::string::npos)
      throw IoError("TSV header needs a gene column plus at least one sample");
    while (tab != std::string::npos) {
      const std::size_t begin = tab + 1;
      tab = line.find('\t', begin);
      sample_names.emplace_back(trim(std::string_view(line).substr(
          begin, tab == std::string::npos ? tab : tab - begin)));
    }
    break;
  }
  if (sample_names.empty()) throw IoError("TSV input has no header line");

  // Rows: each cell parses straight into its matrix row. Line numbers
  // count from the header, which is line 1.
  const std::size_t m = sample_names.size();
  const std::size_t stride = ExpressionMatrix::padded_stride(m);
  const std::size_t expected_rows = count_data_lines(in);
  RowStore rows(stride, expected_rows);
  std::vector<std::string> gene_names;
  gene_names.reserve(expected_rows);
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (skipped_line(line)) continue;
    gene_names.emplace_back(
        parse_row(line, line_number, m, stride, rows.next_row()));
  }
  return ExpressionMatrix(std::move(gene_names), std::move(sample_names),
                          std::move(rows).release());
}

ExpressionMatrix read_expression_tsv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open " + path);
  return read_expression_tsv(in);
}

void write_expression_tsv(const ExpressionMatrix& matrix, std::ostream& out) {
  out << "gene";
  for (const auto& name : matrix.sample_names()) out << '\t' << name;
  out << '\n';
  std::ostringstream row_buffer;
  for (std::size_t g = 0; g < matrix.n_genes(); ++g) {
    row_buffer.str("");
    row_buffer << matrix.gene_name(g);
    for (const float v : matrix.row(g)) {
      if (std::isnan(v)) {
        row_buffer << "\tNA";
      } else {
        row_buffer << '\t' << strprintf("%.9g", static_cast<double>(v));
      }
    }
    row_buffer << '\n';
    out << row_buffer.str();
  }
}

void write_expression_tsv_file(const ExpressionMatrix& matrix,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path + " for writing");
  write_expression_tsv(matrix, out);
  if (!out) throw IoError("write to " + path + " failed");
}

}  // namespace tinge
