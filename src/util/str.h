// Small string helpers shared by the TSV parser, the argument parser and the
// report printers. Kept deliberately allocation-light: the TSV reader calls
// split_view() once per line of a potentially multi-gigabyte file.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tinge {

/// Splits `text` on `sep` without copying. Adjacent separators produce empty
/// fields (TSV semantics: a missing value is an empty cell, not absence of a
/// column).
std::vector<std::string_view> split_view(std::string_view text, char sep);

/// The ASCII whitespace trim() strips: space, \t, \r, \n, \v, \f.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Locale-independent float parse. Returns nullopt on garbage; "NA", "NaN",
/// "nan" and the empty string parse as a quiet NaN (missing microarray spot).
std::optional<float> parse_float(std::string_view text);

/// Double-precision variant of parse_float (same missing-value handling).
std::optional<double> parse_double(std::string_view text);

/// Locale-independent integer parse.
std::optional<long long> parse_int(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tinge
