#include "util/logging.hpp"

#include <atomic>
#include <iostream>
#include <mutex>

namespace klb::util {

namespace {

std::atomic<LogLevel>& threshold_storage() {
  static std::atomic<LogLevel> level{LogLevel::kWarn};
  return level;
}

/// Serializes sink writes: a program embedding the library may log from
/// threads of its own, and interleaved half-lines are worse than no log at
/// all.
std::mutex& sink_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

LogLevel log_threshold() {
  return threshold_storage().load(std::memory_order_relaxed);
}

void set_log_threshold(LogLevel level) {
  threshold_storage().store(level, std::memory_order_relaxed);
}

namespace detail {

void write_log_line(const std::string& line) {
  std::lock_guard<std::mutex> lk(sink_mutex());
  std::clog << line;
}

}  // namespace detail

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

}  // namespace klb::util
