#include "util/str.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace tinge {

std::vector<std::string_view> split_view(std::string_view text, char sep) {
  std::vector<std::string_view> fields;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string_view::npos) {
      fields.push_back(text.substr(begin));
      break;
    }
    fields.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return fields;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

std::optional<float> parse_float(std::string_view text) {
  text = trim(text);
  if (text.empty() || text == "NA" || text == "na" || text == "NaN" ||
      text == "nan" || text == "NAN") {
    return std::nanf("");
  }
  float value = 0.0f;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  text = trim(text);
  if (text.empty() || text == "NA" || text == "na" || text == "NaN" ||
      text == "nan" || text == "NAN") {
    return std::nan("");
  }
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<long long> parse_int(std::string_view text) {
  text = trim(text);
  if (text.empty()) return std::nullopt;
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace tinge
