#include "rtv/base/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>

#include "rtv/obs/metrics.hpp"

namespace rtv {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?";
}

// Monotonic epoch anchored at the first log line (close enough to process
// start for uptime stamps, and immune to wall-clock steps).
std::uint64_t monotonic_epoch_ns() {
  static const std::uint64_t epoch = obs::monotonic_ns();
  return epoch;
}

}  // namespace

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  // Epoch first: on the first line it is stamped now, so "now" comes after.
  const std::uint64_t epoch = monotonic_epoch_ns();
  const double up = static_cast<double>(obs::monotonic_ns() - epoch) * 1e-9;
  const std::time_t wall = std::chrono::system_clock::to_time_t(
      std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&wall, &tm);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &tm);
  std::fprintf(stderr, "[rtv %s +%.3fs %s t%02u] %s\n", level_name(level), up,
               stamp, obs::thread_index(), message.c_str());
}

}  // namespace rtv
