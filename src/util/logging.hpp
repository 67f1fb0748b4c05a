// Lightweight leveled logging, silent by default so tests and benches stay
// quiet; examples turn it on to narrate executions.
//
// The default level can be overridden with the VSGC_LOG_LEVEL environment
// variable (trace|debug|info|warn|off). When a simulation harness installs a
// sim-clock hook (app::World and the bench worlds do), every line carries the
// simulated timestamp, so log output lines up with exported traces.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

namespace vsgc {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

/// Parse a VSGC_LOG_LEVEL-style name; nullopt for unrecognized input.
inline std::optional<LogLevel> parse_log_level(const std::string& name) {
  if (name == "trace" || name == "TRACE") return LogLevel::kTrace;
  if (name == "debug" || name == "DEBUG") return LogLevel::kDebug;
  if (name == "info" || name == "INFO") return LogLevel::kInfo;
  if (name == "warn" || name == "WARN") return LogLevel::kWarn;
  if (name == "off" || name == "OFF") return LogLevel::kOff;
  return std::nullopt;
}

class Logger {
 public:
  static Logger& instance() {
    static Logger logger;
    return logger;
  }

  LogLevel level() const { return level_; }
  bool enabled(LogLevel level) const { return level >= level_; }

  /// Install a hook returning the current simulated time in microseconds.
  /// The installer must clear_sim_clock() before the clock's owner dies.
  /// The hook is thread-local: each batch-engine worker runs its own World
  /// with its own simulated clock, so installing one never races with (or
  /// leaks into) a World running on another thread.
  void set_sim_clock(std::function<std::int64_t()> clock) {
    clock_() = std::move(clock);
  }
  void clear_sim_clock() { clock_() = nullptr; }

  void write(LogLevel level, const std::string& component,
             const std::string& message) {
    if (!enabled(level)) return;
    std::clog << "[" << name(level) << "]";
    if (clock_()) {
      const std::int64_t us = clock_()();
      std::clog << "[t=" << us / 1000 << "." << (us % 1000) / 100 << "ms]";
    }
    std::clog << " " << component << ": " << message << '\n';
  }

 private:
  Logger() {
    if (const char* env = std::getenv("VSGC_LOG_LEVEL")) {
      if (const auto parsed = parse_log_level(env)) level_ = *parsed;
    }
  }

  static const char* name(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace: return "TRACE";
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo: return "INFO ";
      case LogLevel::kWarn: return "WARN ";
      case LogLevel::kOff: return "OFF  ";
    }
    return "?";
  }

  static std::function<std::int64_t()>& clock_() {
    static thread_local std::function<std::int64_t()> clock;
    return clock;
  }

  LogLevel level_ = LogLevel::kOff;
};

/// RAII installer for the sim-clock hook: harnesses hold one so the hook can
/// never dangle past the simulator it reads.
class ScopedSimClock {
 public:
  explicit ScopedSimClock(std::function<std::int64_t()> clock) {
    Logger::instance().set_sim_clock(std::move(clock));
  }
  ~ScopedSimClock() { Logger::instance().clear_sim_clock(); }
  ScopedSimClock(const ScopedSimClock&) = delete;
  ScopedSimClock& operator=(const ScopedSimClock&) = delete;
};

}  // namespace vsgc

#define VSGC_LOG(level, component, expr)                                  \
  do {                                                                    \
    if (::vsgc::Logger::instance().enabled(level)) {                      \
      std::ostringstream vsgc_log_os;                                     \
      vsgc_log_os << expr;                                                \
      ::vsgc::Logger::instance().write(level, component, vsgc_log_os.str()); \
    }                                                                     \
  } while (0)

#define VSGC_TRACE(component, expr) VSGC_LOG(::vsgc::LogLevel::kTrace, component, expr)
#define VSGC_DEBUG(component, expr) VSGC_LOG(::vsgc::LogLevel::kDebug, component, expr)
#define VSGC_INFO(component, expr) VSGC_LOG(::vsgc::LogLevel::kInfo, component, expr)
#define VSGC_WARN(component, expr) VSGC_LOG(::vsgc::LogLevel::kWarn, component, expr)
