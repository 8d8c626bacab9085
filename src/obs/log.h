// obs::Log — leveled, structured JSON-lines logging for the host side of
// the toolchain (engine progress, CLI warnings, exporter lifecycle).
//
// Design constraints, in order:
//  1. Replay determinism: logging is host-clock-only and never touches
//     virtual time or scheduler state, so enabling it cannot change any
//     replay result. Virtual timestamps may be *attached* to a line (as a
//     plain field) but are never read from global state.
//  2. Suppressed-level cost: one relaxed atomic load and a compare. Sites
//     below the runtime level build no line and take no lock.
//  3. Loss is visible: the sink is rate-limited (a token bucket) so a
//     misbehaving loop cannot drown stderr, and every emitted line after a
//     drop window carries a "dropped" count; drops also show up in the
//     metrics registry as log.dropped_lines.
//
// One line per call, JSON object, newline-terminated:
//   {"ts_ms":1722540000123,"host_ns":81234,"level":"warn","tid":2,
//    "component":"trace","msg":"skipped lines","fields":{"skipped":17}}
//
// "tid" is a dense process-local thread index (assigned on each thread's
// first log line), not the kernel tid: stable across runs of the same
// thread structure and compact in the output.
#ifndef SRC_OBS_LOG_H_
#define SRC_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace artc::obs {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

const char* LogLevelName(LogLevel level);
bool ParseLogLevel(std::string_view name, LogLevel* out);

// Typed key/value pair attached to a log line. Keys must be string
// literals; values are copied.
class LogField {
 public:
  LogField(const char* key, long long v)
      : key_(key), kind_(Kind::kInt), i_(v) {}
  LogField(const char* key, unsigned long long v)
      : key_(key), kind_(Kind::kUint), u_(v) {}
  LogField(const char* key, long v) : LogField(key, static_cast<long long>(v)) {}
  LogField(const char* key, unsigned long v)
      : LogField(key, static_cast<unsigned long long>(v)) {}
  LogField(const char* key, int v) : LogField(key, static_cast<long long>(v)) {}
  LogField(const char* key, unsigned v)
      : LogField(key, static_cast<unsigned long long>(v)) {}
  LogField(const char* key, double v)
      : key_(key), kind_(Kind::kDouble), d_(v) {}
  LogField(const char* key, bool v) : key_(key), kind_(Kind::kBool), b_(v) {}
  LogField(const char* key, std::string_view v)
      : key_(key), kind_(Kind::kString), s_(v) {}
  LogField(const char* key, const char* v)
      : key_(key), kind_(Kind::kString), s_(v != nullptr ? v : "") {}

  // Appends `"key":value` (JSON-escaped) to out.
  void AppendTo(std::string* out) const;

 private:
  enum class Kind : uint8_t { kInt, kUint, kDouble, kBool, kString };
  const char* key_;
  Kind kind_;
  int64_t i_ = 0;
  uint64_t u_ = 0;
  double d_ = 0;
  bool b_ = false;
  std::string s_;
};

namespace internal {
extern std::atomic<uint8_t> g_log_level;
}  // namespace internal

inline LogLevel CurrentLogLevel() {
  return static_cast<LogLevel>(
      internal::g_log_level.load(std::memory_order_relaxed));
}

inline bool LogEnabledFor(LogLevel level) {
  return static_cast<uint8_t>(level) >=
         internal::g_log_level.load(std::memory_order_relaxed);
}

void SetLogLevel(LogLevel level);

// Redirects the sink from stderr to a file (append). Returns false (and
// keeps the current sink) if the file cannot be opened.
bool SetLogFile(const std::string& path);

// Token-bucket sink limit. lines_per_sec <= 0 disables limiting. kError
// lines are exempt — errors are rare and must never be lost.
void SetLogRateLimit(double lines_per_sec, double burst);

// Total lines suppressed by the rate limiter since process start.
uint64_t LogDroppedLines();

// Emits one line (if level passes the runtime filter and the rate limit).
void Log(LogLevel level, const char* component, std::string_view msg,
         std::initializer_list<LogField> fields = {});

inline void LogDebug(const char* component, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  Log(LogLevel::kDebug, component, msg, fields);
}
inline void LogInfo(const char* component, std::string_view msg,
                    std::initializer_list<LogField> fields = {}) {
  Log(LogLevel::kInfo, component, msg, fields);
}
inline void LogWarn(const char* component, std::string_view msg,
                    std::initializer_list<LogField> fields = {}) {
  Log(LogLevel::kWarn, component, msg, fields);
}
inline void LogError(const char* component, std::string_view msg,
                     std::initializer_list<LogField> fields = {}) {
  Log(LogLevel::kError, component, msg, fields);
}

// Reads ARTC_LOG_LEVEL (debug|info|warn|error|off), ARTC_LOG_OUT (file
// path) and ARTC_LOG_RATE (whole lines/sec, 0 = unlimited). Called by
// obs::InitFromEnv; safe to call more than once.
void InitLogFromEnv();

// The numeric environment variable `name`, a plain decimal in [0, max] (the
// util::FlagSet number rule). Unset or empty gives nullopt; so does any other
// value, after one warning naming the variable and its value.
std::optional<uint64_t> EnvDecimal(const char* name, uint64_t max);

namespace internal {
// Pure formatter, exposed so tests can pin the exact line shape without
// depending on clocks. `dropped` > 0 appends a "dropped" count field.
std::string FormatLogLine(LogLevel level, const char* component,
                          std::string_view msg, const LogField* fields,
                          size_t field_count, int64_t wall_ms, int64_t host_ns,
                          uint32_t tid, uint64_t dropped);
}  // namespace internal

}  // namespace artc::obs

#endif  // SRC_OBS_LOG_H_
