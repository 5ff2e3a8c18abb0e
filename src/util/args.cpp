#include "util/args.h"

#include <stdexcept>

#include "util/str.h"

namespace tinge {

ArgParser& ArgParser::add(const std::string& name, const std::string& help,
                          const std::string& default_value) {
  if (options_.count(name) == 0) declared_order_.push_back(name);
  options_[name] = Option{help, default_value, default_value,
                          /*is_flag=*/false, /*seen=*/false};
  return *this;
}

ArgParser& ArgParser::add_flag(const std::string& name, const std::string& help) {
  if (options_.count(name) == 0) declared_order_.push_back(name);
  options_[name] = Option{help, "false", "false", /*is_flag=*/true,
                          /*seen=*/false};
  return *this;
}

ArgParser::Option& ArgParser::find(const std::string& name) {
  const auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("unknown option --" + name);
  return it->second;
}

const ArgParser::Option& ArgParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end())
    throw std::invalid_argument("unknown option --" + name);
  return it->second;
}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    std::string name(arg.substr(0, eq));
    Option& opt = find(name);
    opt.seen = true;
    if (opt.is_flag) {
      if (eq != std::string_view::npos)
        throw std::invalid_argument("flag --" + name + " does not take a value");
      opt.value = "true";
    } else if (eq != std::string_view::npos) {
      opt.value = std::string(arg.substr(eq + 1));
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument("option --" + name + " expects a value");
      opt.value = argv[++i];
    }
  }
}

bool ArgParser::has(const std::string& name) const { return find(name).seen; }

std::string ArgParser::get(const std::string& name) const { return find(name).value; }

long long ArgParser::get_int(const std::string& name) const {
  const auto parsed = parse_int(find(name).value);
  if (!parsed)
    throw std::invalid_argument("option --" + name + " is not an integer: " +
                                find(name).value);
  return *parsed;
}

double ArgParser::get_double(const std::string& name) const {
  const auto parsed = parse_double(find(name).value);
  if (!parsed)
    throw std::invalid_argument("option --" + name + " is not a number: " +
                                find(name).value);
  return *parsed;
}

bool ArgParser::get_flag(const std::string& name) const {
  return find(name).value == "true";
}

std::string ArgParser::usage(const std::string& program,
                             const std::string& summary) const {
  std::string out = summary + "\n\nUsage: " + program + " [options]\n\nOptions:\n";
  for (const auto& name : declared_order_) {
    const Option& opt = options_.at(name);
    out += "  --" + name;
    if (!opt.is_flag)
      out += "=<" +
             (opt.default_value.empty() ? "value" : opt.default_value) + ">";
    out += "\n      " + opt.help + "\n";
  }
  return out;
}

}  // namespace tinge
