// Trace model: a trace is a totally-ordered series of actions (Sec. 3.1).
// TraceEvent records exactly the information the ARTC compiler requires for
// each call: entry/return timestamps, issuing thread, call type, parameters,
// and return value (Sec. 4.3.1).
#ifndef SRC_TRACE_EVENT_H_
#define SRC_TRACE_EVENT_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/trace/string_table.h"
#include "src/trace/syscalls.h"
#include "src/util/time.h"

namespace artc::trace {

// Return value convention: ret >= 0 is the call's success return; ret < 0 is
// -errno. Portable errno values (host values differ across platforms):
inline constexpr int kEPERM = 1;
inline constexpr int kENOENT = 2;
inline constexpr int kEBADF = 9;
inline constexpr int kEACCES = 13;
inline constexpr int kEEXIST = 17;
inline constexpr int kEXDEV = 18;
inline constexpr int kENOTDIR = 20;
inline constexpr int kEISDIR = 21;
inline constexpr int kEINVAL = 22;
inline constexpr int kENOSPC = 28;
inline constexpr int kEROFS = 30;
inline constexpr int kERANGE = 34;
inline constexpr int kENOTEMPTY = 39;
inline constexpr int kELOOP = 40;
inline constexpr int kENODATA = 61;
inline constexpr int kENOATTR = kENODATA;
inline constexpr int kENOTSUP = 95;

const char* ErrnoName(int err);

// A trivially copyable 104-byte record: eight 64-bit fields, six 32-bit
// fields, three string ids and the call. Strings are Str handles into the
// process-wide string table (string_table.h), so copying or moving an
// event never allocates and a million-event trace is one flat block.
struct TraceEvent {
  uint64_t index = 0;     // position in the trace (dense, from 0)
  TimeNs enter = 0;       // entry timestamp
  TimeNs ret_time = 0;    // return timestamp
  int64_t ret = 0;        // return value or -errno

  // Parameters. Unused fields keep their defaults; which fields are
  // meaningful depends on `call`.
  int64_t offset = -1;    // pread/pwrite/lseek offset
  uint64_t size = 0;      // byte count / truncate length
  uint64_t aio_id = 0;    // identity of the aiocb for aio_* calls
  uint64_t sync_id = 0;   // identity of the sync object for sync calls;
                          // for thread_join, the joined thread's id
  uint32_t tid = 0;       // numeric id of the issuing thread
  Str path;               // primary path argument
  Str path2;              // second path (rename/link/symlink target)
  Str name;               // xattr name
  int32_t fd = -1;        // primary fd argument
  int32_t fd2 = -1;       // dup2's new fd
  uint32_t flags = 0;     // portable open flags / call-specific flags
  uint32_t mode = 0;      // creation mode
  int32_t whence = 0;     // lseek whence
  Sys call = Sys::kCount;

  TimeNs Duration() const { return ret_time - enter; }
  bool Failed() const { return ret < 0; }
  int Errno() const { return ret < 0 ? static_cast<int>(-ret) : 0; }
};
static_assert(std::is_trivially_copyable_v<TraceEvent> && sizeof(TraceEvent) <= 104,
              "TraceEvent must stay a compact POD");

struct Trace {
  std::vector<TraceEvent> events;
  // Thread ids appearing in the trace, in order of first appearance.
  std::vector<uint32_t> ThreadIds() const;
  size_t size() const { return events.size(); }
  // Re-sorts events by entry timestamp (stable) and reindexes densely.
  // Recorders append an event when its call *returns*, so a freshly captured
  // trace is in completion order; all trace consumers expect issue order.
  void SortByEnterTime();
};

// Renders one event as a single line of the native trace format (also used
// in logs and error messages).
std::string FormatEvent(const TraceEvent& ev);

}  // namespace artc::trace

#endif  // SRC_TRACE_EVENT_H_
