// Minimal command-line argument parser shared by the examples, benchmarks
// and the CLI tool.
//
// Grammar:  --name=value | --name value | --flag
// Unknown option names throw, so typos in experiment scripts fail loudly
// instead of silently running the default configuration.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tinge {

class ArgParser {
 public:
  /// Declares an option before parse(). `help` is shown by usage().
  ArgParser& add(const std::string& name, const std::string& help,
                 const std::string& default_value = "");

  /// Declares a boolean flag (present => true).
  ArgParser& add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Throws std::invalid_argument on unknown or malformed
  /// options. Positional arguments are collected in positional().
  void parse(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name) const;
  long long get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Human-readable usage text built from the declared options. Each
  /// option shows its declared default, whatever parse() has set since.
  std::string usage(const std::string& program, const std::string& summary) const;

 private:
  struct Option {
    std::string help;
    std::string value;
    std::string default_value;
    bool is_flag = false;
    bool seen = false;
  };

  Option& find(const std::string& name);
  const Option& find(const std::string& name) const;

  std::map<std::string, Option> options_;
  std::vector<std::string> declared_order_;
  std::vector<std::string> positional_;
};

}  // namespace tinge
