#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace phonolid::util {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() : level_(LogLevel::kWarn) {
  if (const char* env = std::getenv("PHONOLID_LOG")) {
    level_ = parse_log_level(env);
  }
}

void Logger::write(LogLevel level, const std::string& component,
                   const std::string& message) {
  const std::string prefix =
      format_log_prefix(level, component, std::chrono::system_clock::now(),
                        current_log_thread_id());
  std::lock_guard lock(mutex_);
  std::fprintf(stderr, "%s %s\n", prefix.c_str(), message.c_str());
}

std::string format_log_timestamp(std::chrono::system_clock::time_point tp) {
  using namespace std::chrono;
  const auto since_epoch = tp.time_since_epoch();
  const auto secs = duration_cast<seconds>(since_epoch);
  const auto millis = duration_cast<milliseconds>(since_epoch - secs).count();
  const std::time_t t = static_cast<std::time_t>(secs.count());
  std::tm utc{};
  gmtime_r(&t, &utc);
  // strftime, then the milliseconds in [0, 999]: a single snprintf of six
  // unbounded ints could overflow any fixed buffer (-Wformat-truncation).
  char buf[32];
  const std::size_t n =
      std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &utc);
  std::snprintf(buf + n, sizeof(buf) - n, ".%03uZ",
                static_cast<unsigned>(millis) % 1000u);
  return buf;
}

std::uint32_t current_log_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string format_log_prefix(LogLevel level, const std::string& component,
                              std::chrono::system_clock::time_point tp,
                              std::uint32_t thread_id) {
  std::string prefix = "[";
  prefix += format_log_timestamp(tp);
  char tid[16];
  std::snprintf(tid, sizeof(tid), " T%02u ", thread_id);
  prefix += tid;
  char lvl[8];
  std::snprintf(lvl, sizeof(lvl), "%-5s ", to_string(level));
  prefix += lvl;
  prefix += component;
  prefix += "]";
  return prefix;
}

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& text) noexcept {
  if (text == "trace") return LogLevel::kTrace;
  if (text == "debug") return LogLevel::kDebug;
  if (text == "info") return LogLevel::kInfo;
  if (text == "warn") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "off") return LogLevel::kOff;
  return LogLevel::kWarn;
}

}  // namespace phonolid::util
