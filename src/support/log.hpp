// Minimal leveled logging for long-running experiment harnesses.
//
// Deliberately tiny: a process-wide level, timestamped lines to stderr,
// and zero cost below the active level (MFCP_LOG tests the level before
// it formats anything). Libraries log sparingly (solver non-convergence,
// B&B budget exhaustion); harnesses log progress.
//
// Each line is prefixed with a monotonic timestamp (seconds since the
// first log call, immune to wall-clock jumps) and a compact per-thread
// ordinal (T0, T1, ...), and is emitted as a single formatted write so
// concurrent loggers never interleave within a line.
//
// The initial level is kWarn unless the MFCP_LOG_LEVEL environment
// variable overrides it, so harnesses and the online engine can raise
// verbosity without recompiling:
//   MFCP_LOG_LEVEL=debug|info|warn|error   (case-insensitive), or
//   MFCP_LOG_LEVEL=0..3                    (numeric LogLevel value).
// Unrecognized values are ignored; set_log_level() always wins afterwards.
#pragma once

#include <sstream>
#include <string>

namespace mfcp {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-wide minimum level (default kWarn: libraries stay quiet;
/// see MFCP_LOG_LEVEL above for the environment override).
LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

/// Parses a MFCP_LOG_LEVEL-style string ("debug", "INFO", "2", ...).
/// Returns fallback when the text matches no level.
LogLevel parse_log_level(const std::string& text,
                         LogLevel fallback = LogLevel::kWarn);

/// True when a line at `level` passes the filter.
inline bool log_enabled(LogLevel level) noexcept {
  return static_cast<int>(level) >= static_cast<int>(log_level());
}

/// Emits one timestamped line to stderr if `level` passes the filter.
void log_message(LogLevel level, const std::string& message);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Gives the streamed LogLine expression type void so that it can stand in
/// the false arm of MFCP_LOG's conditional. `&` binds looser than `<<`
/// and tighter than `?:`, so the whole operand chain lands on its right.
struct LogVoidify {
  void operator&(const LogLine&) const noexcept {}
};
}  // namespace detail

}  // namespace mfcp

/// Streamed logging: MFCP_LOG(kWarn) << "solver hit iteration cap".
/// The level is tested first: below it no LogLine is built and no operand
/// is evaluated. One expression, so it is safe in an unbraced if/else.
#define MFCP_LOG(level)                                     \
  !::mfcp::log_enabled(::mfcp::LogLevel::level)             \
      ? static_cast<void>(0)                                \
      : ::mfcp::detail::LogVoidify() &                      \
            ::mfcp::detail::LogLine(::mfcp::LogLevel::level)
