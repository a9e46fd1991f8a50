#include "src/common/log.h"

#include <cstdio>

namespace numalp {

namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& message) {
  std::fprintf(stderr, "[numalp %s] %s\n", LevelName(level), message.c_str());
}

}  // namespace numalp
