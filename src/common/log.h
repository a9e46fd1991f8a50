// Minimal logging to stderr: every message is written, prefixed with its
// level. The ExperimentRunner executes independent simulations concurrently,
// so each message is written with one fprintf call per line.
#ifndef NUMALP_SRC_COMMON_LOG_H_
#define NUMALP_SRC_COMMON_LOG_H_

#include <sstream>
#include <string>

namespace numalp {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

void LogMessage(LogLevel level, const std::string& message);

// Stream-style helper: LogStream(LogLevel::kInfo) << "epoch " << i;
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogMessage(level_, stream_.str()); }

  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace numalp

#define NUMALP_LOG(level) ::numalp::LogStream(level)

#endif  // NUMALP_SRC_COMMON_LOG_H_
