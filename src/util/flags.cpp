#include "util/flags.hpp"

#include <cstdlib>
#include <iostream>

namespace klb::util {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // boolean switch
    }
  }
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool def) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_)
    if (!queried_.count(k)) out.push_back(k);
  return out;
}

void Flags::exit_on_unknown() const {
  const auto unknown = unused();
  if (unknown.empty()) return;
  for (const auto& name : unknown)
    std::cerr << "unknown flag --" << name << "\n";
  std::exit(2);
}

}  // namespace klb::util
