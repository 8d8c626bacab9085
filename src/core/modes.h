// Replay methods and ordering-rule modes (paper Table 2 and Sec. 5).
#ifndef SRC_CORE_MODES_H_
#define SRC_CORE_MODES_H_

#include <cstdint>
#include <optional>
#include <string>

namespace artc::core {

// The four replay strategies compared in the evaluation.
enum class ReplayMethod : uint8_t {
  kArtc,            // ROOT resource-oriented ordering (this paper)
  kSingleThreaded,  // one replay thread, trace order (== program_seq)
  kTemporal,        // per-thread replay threads, global issue order preserved
  kUnconstrained,   // per-thread replay threads, no cross-thread ordering
};

// The methods' names, indexed by ReplayMethod value.
inline constexpr const char* kReplayMethodNames[] = {
    "artc", "single", "temporal", "unconstrained"};

const char* ReplayMethodName(ReplayMethod m);

// The method named `name`, or nullopt for a name not in kReplayMethodNames.
std::optional<ReplayMethod> FindReplayMethod(const std::string& name);

// FindReplayMethod for a name the caller knows is valid; aborts otherwise.
ReplayMethod ReplayMethodFromName(const std::string& name);

// Which ROOT rules ARTC applies to which resources. Defaults follow the
// paper (all supported constraints except program_seq are on by default;
// thread_seq is structural and always enforced).
struct ReplayModes {
  bool file_seq = true;         // sequential ordering on file resources
  bool path_stage_name = true;  // joint stage+name ordering on paths
  bool fd_stage = true;         // stage ordering on file descriptors
  bool fd_seq = false;          // sequential ordering on file descriptors
  bool aio_stage = true;        // stage ordering on AIO control blocks
  bool sync_rules = true;       // ordering on mutex/barrier/cond/join
};

// Rule tags used for dependency-edge statistics (Fig. 8).
enum class RuleTag : uint8_t {
  kThreadSeq,
  kFileSeq,
  kPathStage,
  kPathName,
  kFdStage,
  kFdSeq,
  kAioStage,
  kMutex,    // unlock -> next lock, lock -> foreign unlock
  kBarrier,  // fan-in to the pivot, fan-out to continuations
  kCond,     // signal/broadcast -> woken wait
  kJoin,     // joined thread's last action -> join
  kTemporal,
  kCount,
};

const char* RuleTagName(RuleTag t);

}  // namespace artc::core

#endif  // SRC_CORE_MODES_H_
