// Compiler-side resource model (paper Sec. 3.1 and Sec. 4.2).
//
// AnnotateTrace() replays a trace *logically* against a shadow file tree
// built from the initial snapshot, and reports for every event the set of
// resources it touches and how (create / use / delete). The model tracks:
//
//  * file resources — node identities, found by resolving path and fd
//    arguments through a tree that understands symlinks, hard links, and
//    directory renames (so actions on "/a/b/c" and "/alias/c" hit the same
//    file resource, and a rename of "/a" touches every referenced path
//    beneath it);
//  * path resources — the literal names used by the program, with
//    generation numbers: the binding of a name changes whenever a create /
//    delete / rename alters what the name points to. Spans during which a
//    name is *unbound* get their own generations, so expected-ENOENT
//    accesses order correctly between a delete and the next create;
//  * fd resources — numeric names with generations on reuse;
//  * aiocb resources — asynchronous-I/O control blocks, staged between
//    submission and aio_return;
//  * sync-object resources — mutexes, barriers, and condition variables as
//    generation chains (sync_model.h), so lock handoffs, barrier phases and
//    condvar wakeups become ordinary create/use/delete ordering;
//  * thread and program resources.
#ifndef SRC_FSMODEL_RESOURCE_MODEL_H_
#define SRC_FSMODEL_RESOURCE_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/util/interner.h"

namespace artc::fsmodel {

enum class ResourceKind : uint8_t {
  kProgram,
  kThread,
  kFile,   // node identity (regular file, directory, or symlink)
  kPath,
  kFd,
  kAiocb,
  kMutex,    // one generation per critical section (lock..unlock)
  kBarrier,  // phase / release resources of a barrier generation
  kCond,     // one resource per signal/broadcast wakeup token
};

enum class Access : uint8_t { kUse, kCreate, kDelete };

inline constexpr uint32_t kNoResource = UINT32_MAX;

struct ResourceInfo {
  ResourceKind kind = ResourceKind::kFile;
  std::string label;                     // debug name, e.g. "path:/a/b@2"
  uint32_t prev_generation = kNoResource;  // same-name previous generation
  bool initially_bound = false;          // paths: bound at snapshot time
  // Stable name key shared by every generation of the same underlying name,
  // set even when labels are not materialized (the compiler's attribution
  // tables are built from it). Meaning depends on kind:
  //   kPath  — interned normalized path id (AnnotatedTrace::path_names)
  //   kFd    — the fd number; kThread — the trace tid;
  //   kFile  — shadow-tree node id; kAiocb — the traced aiocb id.
  uint32_t name_id = kNoResource;
};

struct Touch {
  uint32_t resource;
  Access access;
};

struct AnnotatedTrace {
  std::vector<ResourceInfo> resources;
  // Every event's touches, in event order, as one flat table: event i's
  // are touches[touch_offsets[i], touch_offsets[i + 1]) (TouchesFor). The
  // thread resource is included; the program resource (index 0) is
  // implicit.
  std::vector<Touch> touches;
  std::vector<uint32_t> touch_offsets;  // one per event, plus the end

  std::span<const Touch> TouchesFor(size_t event) const {
    return std::span<const Touch>(touches).subspan(
        touch_offsets[event], touch_offsets[event + 1] - touch_offsets[event]);
  }
  // Model inconsistencies encountered (e.g., a successful open of a path
  // the model believes absent — the paper saw these in the iTunes traces).
  uint64_t warnings = 0;
  std::string first_warning;

  uint32_t ThreadResource(uint32_t tid) const;
  std::vector<uint32_t> thread_resources;  // resource id per tid (sparse map)
  std::vector<uint32_t> thread_ids;        // parallel array

  // The annotator's path interner: resolves ResourceInfo::name_id for kPath
  // resources back to the normalized path string. Shared so the annotation
  // stays cheap to move and the views outlive the annotator.
  std::shared_ptr<const util::StringInterner> path_names;
};

struct AnnotateOptions {
  // Materialize human-readable ResourceInfo::label strings ("path:/a/b@2").
  // Labels exist for tests and debug dumps only; the compiler runs with
  // them off, which removes a StrFormat per resource from the hot path.
  bool materialize_labels = true;
};

// Scans the trace once against the snapshot and annotates every event.
AnnotatedTrace AnnotateTrace(const trace::Trace& t, const trace::FsSnapshot& snapshot,
                             const AnnotateOptions& options = {});

// Incremental annotator: the same logical scan as AnnotateTrace, but driven
// one event at a time so a streaming pipeline can annotate a trace it never
// materializes. State is the live resource tables (shadow tree, path/fd/aio
// generations) — memory is proportional to the resources the trace touches,
// not to the number of events annotated.
class Annotator {
 public:
  explicit Annotator(const trace::FsSnapshot& snapshot,
                     const AnnotateOptions& options = {});
  ~Annotator();
  Annotator(const Annotator&) = delete;
  Annotator& operator=(const Annotator&) = delete;

  // Annotates the next event. Events MUST be presented in trace (issue)
  // order. Appends this event's touches to *touches; intra-event dedup
  // considers only the entries this call appends, so *touches may be a
  // cleared scratch vector or a table holding earlier events' touches.
  void AnnotateEvent(const trace::TraceEvent& ev, std::vector<Touch>* touches);

  // The resource table so far. Grows monotonically; ids are stable, so a
  // consumer may hold indexes across AnnotateEvent calls.
  const std::vector<ResourceInfo>& resources() const;
  uint64_t warnings() const;
  const std::string& first_warning() const;
  std::shared_ptr<const util::StringInterner> path_names() const;

  // Moves the accumulated tables (resources, thread maps, warnings — NOT
  // touches, which the caller owns) into an AnnotatedTrace shell. The
  // annotator must not be used afterwards.
  AnnotatedTrace Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

const char* ResourceKindName(ResourceKind k);
const char* AccessName(Access a);

}  // namespace artc::fsmodel

#endif  // SRC_FSMODEL_RESOURCE_MODEL_H_
