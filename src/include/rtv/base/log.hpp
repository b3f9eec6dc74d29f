// Minimal leveled logging.
//
// The refinement engine logs one line per iteration at Info level.
// Logging is globally configurable and cheap when disabled.
//
// Every emitted line carries a monotonic uptime stamp, a wall-clock UTC
// timestamp and the dense thread id from rtv/obs, so daemon heartbeats and
// multi-worker runs are attributable and mergeable:
//
//   [rtv INFO  +12.034s 2026-08-08T09:15:02Z t03] message
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace rtv {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace detail {
// Inline atomic so the RTV_LOG gate is a single relaxed load and
// set_log_level racing concurrent readers is well-defined (TSan-clean).
inline std::atomic<LogLevel> g_log_level{LogLevel::kWarn};
}  // namespace detail

/// Global threshold; messages below it are discarded.
inline void set_log_level(LogLevel level) {
  detail::g_log_level.store(level, std::memory_order_relaxed);
}
inline LogLevel log_level() {
  return detail::g_log_level.load(std::memory_order_relaxed);
}

/// Emit a single log line (newline appended) if level passes the threshold.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogMessage {
 public:
  LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_line(level_, os_.str()); }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace rtv

#define RTV_LOG(level_)                              \
  if (static_cast<int>(level_) < static_cast<int>(::rtv::log_level())) { \
  } else                                             \
    ::rtv::detail::LogMessage(level_)

#define RTV_DEBUG RTV_LOG(::rtv::LogLevel::kDebug)
#define RTV_INFO RTV_LOG(::rtv::LogLevel::kInfo)
#define RTV_WARN RTV_LOG(::rtv::LogLevel::kWarn)
#define RTV_ERROR RTV_LOG(::rtv::LogLevel::kError)
