#include "src/core/modes.h"

#include <iterator>

#include "src/util/check.h"

namespace artc::core {

const char* ReplayMethodName(ReplayMethod m) {
  const size_t i = static_cast<size_t>(m);
  return i < std::size(kReplayMethodNames) ? kReplayMethodNames[i] : "?";
}

std::optional<ReplayMethod> FindReplayMethod(const std::string& name) {
  for (size_t i = 0; i < std::size(kReplayMethodNames); ++i) {
    if (name == kReplayMethodNames[i]) {
      return static_cast<ReplayMethod>(i);
    }
  }
  return std::nullopt;
}

ReplayMethod ReplayMethodFromName(const std::string& name) {
  std::optional<ReplayMethod> m = FindReplayMethod(name);
  ARTC_CHECK_MSG(m.has_value(), "unknown replay method '%s'", name.c_str());
  return *m;
}

const char* RuleTagName(RuleTag t) {
  switch (t) {
    case RuleTag::kThreadSeq:
      return "thread_seq";
    case RuleTag::kFileSeq:
      return "file_seq";
    case RuleTag::kPathStage:
      return "path_stage";
    case RuleTag::kPathName:
      return "path_name";
    case RuleTag::kFdStage:
      return "fd_stage";
    case RuleTag::kFdSeq:
      return "fd_seq";
    case RuleTag::kAioStage:
      return "aio_stage";
    case RuleTag::kMutex:
      return "mutex";
    case RuleTag::kBarrier:
      return "barrier";
    case RuleTag::kCond:
      return "cond";
    case RuleTag::kJoin:
      return "join";
    case RuleTag::kTemporal:
      return "temporal";
    case RuleTag::kCount:
      break;
  }
  return "?";
}

}  // namespace artc::core
