// Minimal command-line flag parser for the CLI tools:
// --name value / --name=value / bare positionals, with strict typed getters
// and an unknown-flag check.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace spatl::common {

class Flags {
 public:
  /// Parse argv[start..argc). Throws std::invalid_argument on a flag with
  /// no value or a flag given twice.
  Flags(int argc, char** argv, int start = 1);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters return `fallback` when the flag is absent and throw
  /// std::invalid_argument on a value that is not wholly of their type
  /// ("1.9" is no integer, "0.05abc" no number; a bool is one of
  /// true|false|1|0|yes|no).
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  long get_int(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Throws if any parsed flag is not in `known` (catches typos) or any
  /// positional argument was given.
  void check_known(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace spatl::common
