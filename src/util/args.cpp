#include "util/args.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace omniboost::util {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

ArgParser& ArgParser::option(const std::string& name, const std::string& help,
                             const std::string& default_value) {
  specs_.push_back(ArgSpec{name, help, default_value, false});
  return *this;
}

ArgParser& ArgParser::flag(const std::string& name, const std::string& help) {
  specs_.push_back(ArgSpec{name, help, "", true});
  return *this;
}

const ArgSpec& ArgParser::spec(const std::string& name) const {
  for (const ArgSpec& s : specs_) {
    if (s.name == name) return s;
  }
  throw std::logic_error("ArgParser: option --" + name + " was never declared");
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    const ArgSpec& s = spec_or_throw(name);
    if (s.is_flag) {
      if (has_inline) {
        throw std::invalid_argument("flag --" + name + " takes no value");
      }
      values_.emplace_back(name, "true");
      continue;
    }
    if (!has_inline) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("option --" + name + " expects a value");
      }
      value = argv[++i];
    }
    values_.emplace_back(name, std::move(value));
  }
  return true;
}

const ArgSpec& ArgParser::spec_or_throw(const std::string& name) const {
  for (const ArgSpec& s : specs_) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown option: --" + name);
}

bool ArgParser::has(const std::string& name) const {
  spec(name);  // validate declaration
  for (const auto& [k, v] : values_) {
    if (k == name) return true;
  }
  return false;
}

std::string ArgParser::get(const std::string& name) const {
  const ArgSpec& s = spec(name);
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    if (it->first == name) return it->second;
  }
  if (s.default_str.empty() && !s.is_flag) {
    throw std::invalid_argument("missing required option --" + name);
  }
  return s.default_str;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name +
                                " expects an integer, got '" + v + "'");
  }
}

double ArgParser::get_double(const std::string& name) const {
  const std::string v = get(name);
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    // No flag takes nan or inf: nan slips past every range check.
    if (!std::isfinite(out)) throw std::invalid_argument("non-finite");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + name +
                                " expects a number, got '" + v + "'");
  }
}

bool ArgParser::get_flag(const std::string& name) const {
  const ArgSpec& s = spec(name);
  if (!s.is_flag) {
    throw std::logic_error("ArgParser::get_flag: --" + name + " is not a flag");
  }
  return has(name);
}

std::string ArgParser::help_text() const {
  std::string out = program_ + " — " + summary_ + "\n\nOptions:\n";
  for (const ArgSpec& s : specs_) {
    out += "  --" + s.name;
    if (!s.is_flag) out += " <value>";
    out += "\n      " + s.help;
    if (!s.default_str.empty()) out += " (default: " + s.default_str + ")";
    out += "\n";
  }
  out += "  --help\n      Show this message.\n";
  return out;
}

}  // namespace omniboost::util
