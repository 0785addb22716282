#pragma once
// Minimal leveled logger. Experiments are long-running; progress lines go to
// stderr so stdout stays clean for table output.

#include <sstream>
#include <string>

namespace ulpdream::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global minimum level (default Info). Atomic — safe to flip while pool
/// workers are logging.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Thread-safe: the sink write is mutex-guarded, so concurrent messages
/// from WorkPool workers interleave whole-line, never mid-line.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_message(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_message(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

}  // namespace ulpdream::util
