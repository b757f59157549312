// Minimal leveled logger. Components log through a shared sink; benches and
// tests can raise the threshold to keep output clean, examples can lower it
// to narrate what the controller is doing.
//
// Thread-safety: the project itself starts no thread, but a program
// embedding the library may log from threads of its own. So the threshold
// is an atomic, and sink writes are serialized so concurrent lines never
// tear. A LogLine samples the threshold once at construction and buffers
// locally; only the final one-call flush takes the sink lock.
#pragma once

#include <sstream>
#include <string>

namespace klb::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log threshold (relaxed atomic read).
LogLevel log_threshold();
/// Set the process-wide threshold. Safe from any thread; lines already
/// being built keep the threshold they sampled at construction.
void set_log_threshold(LogLevel level);

const char* log_level_name(LogLevel level);

namespace detail {

/// Write one complete line to the shared sink, serialized against
/// concurrent writers (implemented in logging.cpp).
void write_log_line(const std::string& line);

class LogLine {
 public:
  LogLine(LogLevel level, const char* component)
      : enabled_(level >= log_threshold()) {
    if (enabled_)
      stream_ << "[" << log_level_name(level) << "] " << component << ": ";
  }
  ~LogLine() {
    if (enabled_) {
      stream_ << '\n';
      write_log_line(stream_.str());
    }
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogLine log_debug(const char* component) {
  return detail::LogLine(LogLevel::kDebug, component);
}
inline detail::LogLine log_info(const char* component) {
  return detail::LogLine(LogLevel::kInfo, component);
}
inline detail::LogLine log_warn(const char* component) {
  return detail::LogLine(LogLevel::kWarn, component);
}
inline detail::LogLine log_error(const char* component) {
  return detail::LogLine(LogLevel::kError, component);
}

}  // namespace klb::util
