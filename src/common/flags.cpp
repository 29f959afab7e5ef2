#include "common/flags.hpp"

#include <algorithm>

namespace spatl::common {

Flags::Flags(int argc, char** argv, int start) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
      // Boolean-style flags may appear without a value when followed by
      // another flag or the end of the line.
      value = "true";
    } else {
      value = argv[++i];
    }
    if (!values_.emplace(name, std::move(value)).second) {
      throw std::invalid_argument("flag --" + name + " given more than once");
    }
  }
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long Flags::get_int(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t end = 0;
    const long value = std::stol(it->second, &end);
    if (end == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                              it->second + "'");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t end = 0;
    const double value = std::stod(it->second, &end);
    if (end == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("flag --" + name + " expects a number, got '" +
                              it->second + "'");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("flag --" + name +
                              " expects true|false|1|0|yes|no, got '" + v +
                              "'");
}

void Flags::check_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
  if (!positionals_.empty()) {
    throw std::invalid_argument("unexpected argument '" +
                                positionals_.front() + "'");
  }
}

}  // namespace spatl::common
