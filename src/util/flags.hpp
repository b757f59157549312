// Tiny command-line flag parser for the examples and bench harnesses.
// Supports --name=value and --name value forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace klb::util {

class Flags {
 public:
  Flags(int argc, char** argv);

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  std::string get(const std::string& name, const std::string& def = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Names that were provided but never queried — for catching typos.
  std::vector<std::string> unused() const;

  /// Strict parsing: call after the last query. Names every provided but
  /// never-queried flag on stderr and exits with status 2, so a mistyped
  /// flag fails loudly instead of silently running the default mode.
  void exit_on_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace klb::util
