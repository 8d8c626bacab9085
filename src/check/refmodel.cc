#include "src/check/refmodel.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/trace/syscalls.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::check {
namespace {

using trace::Sys;
using trace::TraceEvent;

constexpr uint32_t kNoEvent = UINT32_MAX;

enum class NodeKind : uint8_t { kFile, kDir, kSymlink, kSpecial };

struct Node {
  NodeKind kind = NodeKind::kFile;
  uint64_t size = 0;
  uint32_t nlink = 1;
  uint32_t last_event = kNoEvent;            // sequential-rule chain
  std::map<std::string, uint64_t> children;  // dirs only
};

// One generation of a literal path name: the event that bound (or unbound)
// it plus every event that has used it since.
struct PathGen {
  uint32_t creator = kNoEvent;  // kNoEvent: binding predates the trace
  std::vector<uint32_t> events;
};

struct FdGen {
  bool open = false;
  uint32_t open_event = kNoEvent;
  std::vector<uint32_t> events;
  uint64_t node = 0;
  int64_t offset = 0;
  uint32_t flags = 0;
};

struct Resolution {
  int err = 0;
  uint64_t node = 0;    // 0 when unresolved
  uint64_t parent = 0;  // 0 when even the parent is missing
  std::string final_name;
  bool via_symlink = false;  // hit a symlink anywhere: outside the model
  // Normalized path of the prefix that killed resolution (missing
  // intermediate, or intermediate bound to a non-directory). The call's
  // outcome depends on that name's binding, so the op must be ordered
  // against whatever (un)bound it — same rule the annotator applies.
  std::string missing_prefix;
};

class Model {
 public:
  explicit Model(const trace::TraceBundle& bundle) : bundle_(bundle) {
    root_ = NewNode(NodeKind::kDir);
    nodes_[root_].nlink = 2;
    for (const trace::SnapshotEntry& entry : bundle.snapshot.entries) {
      AddSnapshotEntry(entry);
    }
  }

  RefModel Build() {
    for (uint32_t i = 0; i < bundle_.trace.events.size(); ++i) {
      const TraceEvent& ev = bundle_.trace.events[i];
      auto it = last_by_thread_.find(ev.tid);
      if (it != last_by_thread_.end()) {
        Edge(it->second, i, HbRule::kThread);
        it->second = i;
      } else {
        last_by_thread_.emplace(ev.tid, i);
      }
      // Barrier releases bind to each participant's next action (the wait
      // itself precedes the pivot in trace order, so the release edge must
      // land one event later).
      auto pending = pending_after_.find(ev.tid);
      if (pending != pending_after_.end()) {
        for (uint32_t before : pending->second) {
          Edge(before, i, HbRule::kBarrier);
        }
        pending_after_.erase(pending);
      }
      Apply(i, ev);
    }
    std::sort(out_.edges.begin(), out_.edges.end(), [](const HbEdge& a, const HbEdge& b) {
      if (a.after != b.after) {
        return a.after < b.after;
      }
      if (a.before != b.before) {
        return a.before < b.before;
      }
      return static_cast<int>(a.rule) < static_cast<int>(b.rule);
    });
    out_.edges.erase(std::unique(out_.edges.begin(), out_.edges.end(),
                                 [](const HbEdge& a, const HbEdge& b) {
                                   return a.before == b.before && a.after == b.after;
                                 }),
                     out_.edges.end());
    return std::move(out_);
  }

 private:
  uint64_t NewNode(NodeKind kind) {
    uint64_t id = next_node_++;
    Node& n = nodes_[id];
    n.kind = kind;
    n.nlink = kind == NodeKind::kDir ? 2 : 1;
    return id;
  }

  void AddSnapshotEntry(const trace::SnapshotEntry& entry) {
    std::string norm = NormalizePath(entry.path);
    Resolution parent = ResolveParent(norm);
    if (parent.parent == 0 || parent.err != 0) {
      return;  // snapshots are canonicalized parents-first; skip strays
    }
    NodeKind kind = NodeKind::kFile;
    switch (entry.type) {
      case trace::SnapshotEntryType::kDir:
        kind = NodeKind::kDir;
        break;
      case trace::SnapshotEntryType::kFile:
        kind = NodeKind::kFile;
        break;
      case trace::SnapshotEntryType::kSymlink:
        kind = NodeKind::kSymlink;
        break;
      case trace::SnapshotEntryType::kSpecial:
        kind = NodeKind::kSpecial;
        break;
    }
    uint64_t id = NewNode(kind);
    nodes_[id].size = entry.size;
    nodes_[parent.parent].children[parent.final_name] = id;
  }

  // Resolves all components but the last; fills parent + final_name.
  Resolution ResolveParent(const std::string& norm) {
    Resolution out;
    std::vector<std::string> parts;
    for (std::string_view p : SplitPath(norm)) {
      parts.emplace_back(p);
    }
    if (parts.empty()) {
      out.node = root_;
      out.parent = root_;
      out.final_name = '/';
      return out;
    }
    uint64_t dir = root_;
    std::string prefix;  // normalized path of `dir` ("" = root)
    for (size_t i = 0; i + 1 < parts.size(); ++i) {
      Node& d = nodes_[dir];
      if (d.kind == NodeKind::kSymlink) {
        out.via_symlink = true;
        return out;
      }
      if (d.kind != NodeKind::kDir) {
        out.err = trace::kENOTDIR;
        out.missing_prefix = prefix;
        return out;
      }
      auto it = d.children.find(parts[i]);
      if (it == d.children.end()) {
        out.err = trace::kENOENT;
        out.missing_prefix = prefix + "/" + parts[i];
        return out;
      }
      prefix += "/";
      prefix += parts[i];
      dir = it->second;
    }
    if (nodes_[dir].kind == NodeKind::kSymlink) {
      out.via_symlink = true;
      return out;
    }
    if (nodes_[dir].kind != NodeKind::kDir) {
      out.err = trace::kENOTDIR;
      out.missing_prefix = prefix;
      return out;
    }
    out.parent = dir;
    out.final_name = parts.back();
    return out;
  }

  Resolution Resolve(const std::string& path) {
    std::string norm = NormalizePath(path);
    Resolution out = ResolveParent(norm);
    if (out.err != 0 || out.via_symlink || out.node == root_) {
      return out;
    }
    Node& d = nodes_[out.parent];
    auto it = d.children.find(out.final_name);
    if (it == d.children.end()) {
      out.err = trace::kENOENT;
      return out;
    }
    out.node = it->second;
    if (nodes_[out.node].kind == NodeKind::kSymlink) {
      out.via_symlink = true;  // the modelled subset never makes symlinks
    }
    return out;
  }

  void Edge(uint32_t before, uint32_t after, HbRule rule) {
    if (before == after || before == kNoEvent) {
      return;
    }
    out_.edges.push_back({before, after, rule});
  }

  // Marks event e as a plain access of path's current generation.
  void TouchPath(const std::string& path, uint32_t e) {
    PathGen& gen = paths_[NormalizePath(path)];
    Edge(gen.creator, e, HbRule::kPathStage);
    gen.events.push_back(e);
  }

  // A failed resolution depends on the binding of the prefix that stopped
  // it: replaying the op before that prefix was (un)bound changes its
  // return, so it joins the prefix's current generation.
  void TouchMissingPrefix(const Resolution& r, uint32_t e) {
    if (!r.missing_prefix.empty()) {
      TouchPath(r.missing_prefix, e);
    }
  }

  // Marks event e as changing what `path` names: orders e after the whole
  // outgoing generation (stage-delete + name rule) and starts a fresh
  // generation created by e.
  void RebindPath(const std::string& path, uint32_t e) {
    PathGen& gen = paths_[NormalizePath(path)];
    for (uint32_t prev : gen.events) {
      Edge(prev, e, prev == gen.creator ? HbRule::kPathStage : HbRule::kPathName);
    }
    Edge(gen.creator, e, HbRule::kPathStage);
    gen.creator = e;
    gen.events.assign(1, e);
  }

  // Directory renames change what every name beneath either endpoint
  // resolves to; retire the generations of all referenced paths below.
  void RebindSubtree(const std::string& dir_path, uint32_t e) {
    std::string prefix = NormalizePath(dir_path);
    if (prefix.empty() || prefix.back() != '/') {
      prefix.push_back('/');
    }
    std::vector<std::string> hits;
    for (const auto& [name, gen] : paths_) {
      (void)gen;
      if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
        hits.push_back(name);
      }
    }
    for (const std::string& name : hits) {
      RebindPath(name, e);
    }
  }

  void TouchNode(uint64_t node, uint32_t e) {
    if (node == 0) {
      return;
    }
    Node& n = nodes_[node];
    Edge(n.last_event, e, HbRule::kFileSeq);
    n.last_event = e;
  }

  void Mismatch(uint32_t i, const TraceEvent& ev, const std::string& why) {
    out_.mismatched_returns++;
    if (out_.first_mismatch.empty()) {
      out_.first_mismatch =
          StrFormat("event %u: %s (%s)", i, why.c_str(), trace::FormatEvent(ev).c_str());
    }
  }

  // Compares the traced return against the model's predicted errno (and,
  // when exact >= 0, the exact success value).
  void CheckRet(uint32_t i, const TraceEvent& ev, int predicted_err,
                int64_t exact = -1) {
    int traced_err = ev.Failed() ? static_cast<int>(-ev.ret) : 0;
    if (traced_err != predicted_err) {
      Mismatch(i, ev,
               StrFormat("model predicts errno %d, trace has %d", predicted_err,
                         traced_err));
      return;
    }
    if (predicted_err == 0 && exact >= 0 && ev.ret != exact) {
      Mismatch(i, ev,
               StrFormat("model predicts ret %lld, trace has %lld",
                         static_cast<long long>(exact), static_cast<long long>(ev.ret)));
    }
  }

  void Apply(uint32_t i, const TraceEvent& ev) {
    switch (ev.call) {
      case Sys::kOpen:
        ApplyOpen(i, ev);
        return;
      case Sys::kClose:
        ApplyClose(i, ev);
        return;
      case Sys::kRead:
        ApplyRead(i, ev, /*positional=*/false);
        return;
      case Sys::kPRead:
        ApplyRead(i, ev, /*positional=*/true);
        return;
      case Sys::kWrite:
        ApplyWrite(i, ev, /*positional=*/false);
        return;
      case Sys::kPWrite:
        ApplyWrite(i, ev, /*positional=*/true);
        return;
      case Sys::kFsync:
      case Sys::kFdatasync:
        ApplyFsync(i, ev);
        return;
      case Sys::kMkdir:
        ApplyMkdir(i, ev);
        return;
      case Sys::kRmdir:
        ApplyRmdir(i, ev);
        return;
      case Sys::kUnlink:
        ApplyUnlink(i, ev);
        return;
      case Sys::kRename:
        ApplyRename(i, ev);
        return;
      case Sys::kLink:
        ApplyLink(i, ev);
        return;
      case Sys::kStat:
        ApplyStat(i, ev);
        return;
      case Sys::kMutexLock:
        ApplyMutexLock(i, ev);
        return;
      case Sys::kMutexUnlock:
        ApplyMutexUnlock(i, ev);
        return;
      case Sys::kBarrierInit:
        ApplyBarrierInit(i, ev);
        return;
      case Sys::kBarrierWait:
        ApplyBarrierWait(i, ev);
        return;
      case Sys::kCondWait:
        ApplyCondWait(i, ev);
        return;
      case Sys::kCondSignal:
        ApplyCondWake(i, ev, /*broadcast=*/false);
        return;
      case Sys::kCondBroadcast:
        ApplyCondWake(i, ev, /*broadcast=*/true);
        return;
      case Sys::kThreadJoin:
        ApplyJoin(i, ev);
        return;
      default:
        out_.unsupported_events++;
        return;
    }
  }

  // ---- synchronization happens-before ----
  // Recording convention (syscalls.h): a blocking call's enter is its grant
  // instant, except barrier_wait whose enter is the arrival. So a lock
  // appears after the unlock that released it, a woken wait after its
  // signal, a join after the target's exit — and the model orders each
  // against the event that granted it.

  void ApplyMutexLock(uint32_t i, const TraceEvent& ev) {
    MutexRef& m = mutexes_[ev.sync_id];
    if (m.locked) {
      Mismatch(i, ev, "lock of a mutex the model believes locked");
    }
    Edge(m.last_unlock, i, HbRule::kMutex);
    m.locked = true;
    m.lock_event = i;
    CheckRet(i, ev, 0);
  }

  void ApplyMutexUnlock(uint32_t i, const TraceEvent& ev) {
    auto it = mutexes_.find(ev.sync_id);
    if (it == mutexes_.end() || !it->second.locked) {
      Mismatch(i, ev, "unlock of a mutex the model believes unlocked");
      return;
    }
    // Cross-thread handoff: the unlocker must see the critical section
    // open. Same-thread unlocks are already ordered by the thread rule.
    Edge(it->second.lock_event, i, HbRule::kMutex);
    it->second.locked = false;
    it->second.last_unlock = i;
    CheckRet(i, ev, 0);
  }

  void ApplyBarrierInit(uint32_t i, const TraceEvent& ev) {
    BarrierRef& b = barriers_[ev.sync_id];
    if (!b.arrivals.empty()) {
      Mismatch(i, ev, "barrier re-initialized with waiters inside");
      b.arrivals.clear();
    }
    b.count = static_cast<uint32_t>(ev.size);
    b.opener = i;
    CheckRet(i, ev, 0);
  }

  void ApplyBarrierWait(uint32_t i, const TraceEvent& ev) {
    auto it = barriers_.find(ev.sync_id);
    if (it == barriers_.end() || it->second.count == 0) {
      Mismatch(i, ev, "wait on uninitialized barrier");
      return;
    }
    BarrierRef& b = it->second;
    Edge(b.opener, i, HbRule::kBarrier);
    b.arrivals.push_back({i, ev.tid});
    CheckRet(i, ev, 0);
    if (b.arrivals.size() < b.count) {
      return;
    }
    // This arrival trips the barrier: it happens after every earlier
    // arrival, and every participant's next action happens after it.
    for (const auto& [arrival, tid] : b.arrivals) {
      Edge(arrival, i, HbRule::kBarrier);
      pending_after_[tid].push_back(i);
    }
    b.arrivals.clear();
    b.opener = i;
  }

  void ApplyCondWait(uint32_t i, const TraceEvent& ev) {
    auto it = conds_.find(ev.sync_id);
    if (it == conds_.end() || it->second.tokens.empty()) {
      // Spurious wakeup: nothing woke it, so nothing orders it.
      CheckRet(i, ev, 0);
      return;
    }
    // Latest-signal-first, mirroring how the recorded wakeup instant sits
    // after the signal that actually released it.
    CondTokenRef& tok = it->second.tokens.back();
    Edge(tok.event, i, HbRule::kCond);
    if (tok.wakeups != UINT64_MAX && --tok.wakeups == 0) {
      it->second.tokens.pop_back();
    }
    CheckRet(i, ev, 0);
  }

  void ApplyCondWake(uint32_t i, const TraceEvent& ev, bool broadcast) {
    conds_[ev.sync_id].tokens.push_back(
        {i, broadcast ? UINT64_MAX : uint64_t{1}});
    CheckRet(i, ev, 0);
  }

  void ApplyJoin(uint32_t i, const TraceEvent& ev) {
    auto it = last_by_thread_.find(static_cast<uint32_t>(ev.sync_id));
    if (it == last_by_thread_.end()) {
      Mismatch(i, ev, "join of a thread with no trace events");
      return;
    }
    Edge(it->second, i, HbRule::kJoin);
    CheckRet(i, ev, 0);
  }

  void ApplyOpen(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    Resolution r = Resolve(ev.path.str());
    TouchMissingPrefix(r, i);
    if (r.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    const uint32_t flags = ev.flags;
    if (r.err == trace::kENOENT && (flags & trace::kOpenCreate) && r.parent != 0) {
      uint64_t node = NewNode(NodeKind::kFile);
      nodes_[r.parent].children[r.final_name] = node;
      RebindPath(ev.path.str(), i);
      TouchNode(node, i);
      CheckRet(i, ev, 0);
      if (!ev.Failed()) {
        RegisterFd(static_cast<int32_t>(ev.ret), i, node, flags);
      }
      return;
    }
    if (r.err != 0) {
      CheckRet(i, ev, r.err);
      return;
    }
    Node& node = nodes_[r.node];
    if ((flags & trace::kOpenCreate) && (flags & trace::kOpenExcl)) {
      CheckRet(i, ev, trace::kEEXIST);
      return;
    }
    if (node.kind == NodeKind::kDir && (flags & trace::kOpenWrite)) {
      CheckRet(i, ev, trace::kEISDIR);
      return;
    }
    if ((flags & trace::kOpenDirectory) && node.kind != NodeKind::kDir) {
      CheckRet(i, ev, trace::kENOTDIR);
      return;
    }
    if ((flags & trace::kOpenTrunc) && node.kind == NodeKind::kFile) {
      node.size = 0;
    }
    TouchNode(r.node, i);
    CheckRet(i, ev, 0);
    if (!ev.Failed()) {
      RegisterFd(static_cast<int32_t>(ev.ret), i, r.node, flags);
    }
  }

  void RegisterFd(int32_t fd, uint32_t open_event, uint64_t node, uint32_t flags) {
    FdGen& g = fds_[fd];
    g.open = true;
    g.open_event = open_event;
    g.events.assign(1, open_event);
    g.node = node;
    g.flags = flags;
    g.offset = (flags & trace::kOpenAppend) != 0
                   ? static_cast<int64_t>(nodes_[node].size)
                   : 0;
  }

  // Returns the fd generation if the fd is open in the model, else null.
  FdGen* UseFd(int32_t fd, uint32_t e) {
    auto it = fds_.find(fd);
    if (it == fds_.end() || !it->second.open) {
      return nullptr;
    }
    Edge(it->second.open_event, e, HbRule::kFdStage);
    it->second.events.push_back(e);
    return &it->second;
  }

  void ApplyClose(uint32_t i, const TraceEvent& ev) {
    auto it = fds_.find(ev.fd);
    if (it == fds_.end() || !it->second.open) {
      CheckRet(i, ev, trace::kEBADF);
      return;
    }
    for (uint32_t prev : it->second.events) {
      Edge(prev, i, HbRule::kFdStage);
    }
    it->second.open = false;
    it->second.events.clear();
    CheckRet(i, ev, 0);
  }

  void ApplyRead(uint32_t i, const TraceEvent& ev, bool positional) {
    FdGen* g = UseFd(ev.fd, i);
    if (g == nullptr || (g->flags & trace::kOpenRead) == 0) {
      CheckRet(i, ev, trace::kEBADF);
      return;
    }
    Node& node = nodes_[g->node];
    int64_t offset = positional ? ev.offset : g->offset;
    if (node.kind == NodeKind::kDir) {
      CheckRet(i, ev, trace::kEISDIR);
      return;
    }
    TouchNode(g->node, i);
    if (node.kind == NodeKind::kSpecial) {
      CheckRet(i, ev, 0, static_cast<int64_t>(ev.size));
      return;
    }
    if (offset < 0) {
      CheckRet(i, ev, trace::kEINVAL);
      return;
    }
    uint64_t n = static_cast<uint64_t>(offset) >= node.size
                     ? 0
                     : std::min<uint64_t>(ev.size, node.size - static_cast<uint64_t>(offset));
    CheckRet(i, ev, 0, static_cast<int64_t>(n));
    if (!positional && !ev.Failed()) {
      g->offset += static_cast<int64_t>(n);
    }
  }

  void ApplyWrite(uint32_t i, const TraceEvent& ev, bool positional) {
    FdGen* g = UseFd(ev.fd, i);
    if (g == nullptr || (g->flags & trace::kOpenWrite) == 0) {
      CheckRet(i, ev, trace::kEBADF);
      return;
    }
    Node& node = nodes_[g->node];
    TouchNode(g->node, i);
    if (node.kind == NodeKind::kSpecial) {
      CheckRet(i, ev, 0, static_cast<int64_t>(ev.size));
      return;
    }
    if (ev.size == 0) {
      CheckRet(i, ev, 0, 0);
      return;
    }
    bool append = !positional && (g->flags & trace::kOpenAppend) != 0;
    int64_t offset = positional ? ev.offset : g->offset;
    if (append) {
      offset = static_cast<int64_t>(node.size);
      node.size += ev.size;
    }
    if (offset < 0) {
      CheckRet(i, ev, trace::kEINVAL);
      return;
    }
    uint64_t end = static_cast<uint64_t>(offset) + ev.size;
    if (!append && end > node.size) {
      node.size = end;
    }
    CheckRet(i, ev, 0, static_cast<int64_t>(ev.size));
    if (!positional) {
      g->offset = append ? static_cast<int64_t>(node.size)
                         : offset + static_cast<int64_t>(ev.size);
    }
  }

  void ApplyFsync(uint32_t i, const TraceEvent& ev) {
    FdGen* g = UseFd(ev.fd, i);
    if (g == nullptr) {
      CheckRet(i, ev, trace::kEBADF);
      return;
    }
    TouchNode(g->node, i);
    CheckRet(i, ev, 0);
  }

  void ApplyMkdir(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    Resolution r = Resolve(ev.path.str());
    TouchMissingPrefix(r, i);
    if (r.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (r.err == 0) {
      CheckRet(i, ev, trace::kEEXIST);
      return;
    }
    if (r.err != trace::kENOENT || r.parent == 0) {
      CheckRet(i, ev, r.err);
      return;
    }
    uint64_t node = NewNode(NodeKind::kDir);
    nodes_[r.parent].children[r.final_name] = node;
    nodes_[r.parent].nlink++;
    RebindPath(ev.path.str(), i);
    TouchNode(node, i);
    CheckRet(i, ev, 0);
  }

  void ApplyRmdir(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    Resolution r = Resolve(ev.path.str());
    TouchMissingPrefix(r, i);
    if (r.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (r.err != 0) {
      CheckRet(i, ev, r.err);
      return;
    }
    Node& node = nodes_[r.node];
    if (node.kind != NodeKind::kDir) {
      CheckRet(i, ev, trace::kENOTDIR);
      return;
    }
    if (!node.children.empty()) {
      CheckRet(i, ev, trace::kENOTEMPTY);
      return;
    }
    if (r.node == root_) {
      CheckRet(i, ev, trace::kEPERM);
      return;
    }
    TouchNode(r.node, i);
    nodes_[r.parent].children.erase(r.final_name);
    nodes_[r.parent].nlink--;
    RebindPath(ev.path.str(), i);
    CheckRet(i, ev, 0);
  }

  void ApplyUnlink(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    Resolution r = Resolve(ev.path.str());
    TouchMissingPrefix(r, i);
    if (r.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (r.err != 0) {
      CheckRet(i, ev, r.err);
      return;
    }
    if (nodes_[r.node].kind == NodeKind::kDir) {
      CheckRet(i, ev, trace::kEISDIR);
      return;
    }
    TouchNode(r.node, i);
    nodes_[r.parent].children.erase(r.final_name);
    nodes_[r.node].nlink--;
    RebindPath(ev.path.str(), i);
    CheckRet(i, ev, 0);
  }

  void ApplyRename(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    TouchPath(ev.path2.str(), i);
    Resolution src = Resolve(ev.path.str());
    Resolution dst = Resolve(ev.path2.str());
    TouchMissingPrefix(src, i);
    TouchMissingPrefix(dst, i);
    if (src.via_symlink || dst.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (src.err != 0) {
      CheckRet(i, ev, src.err);
      return;
    }
    if (dst.err != 0 && !(dst.err == trace::kENOENT && dst.parent != 0)) {
      CheckRet(i, ev, dst.err);
      return;
    }
    bool src_dir = nodes_[src.node].kind == NodeKind::kDir;
    if (src_dir && dst.parent == src.node) {
      CheckRet(i, ev, trace::kEINVAL);
      return;
    }
    if (dst.node != 0) {
      if (dst.node == src.node) {
        TouchNode(src.node, i);
        CheckRet(i, ev, 0);
        return;
      }
      Node& dnode = nodes_[dst.node];
      if (dnode.kind == NodeKind::kDir) {
        if (!src_dir) {
          CheckRet(i, ev, trace::kEISDIR);
          return;
        }
        if (!dnode.children.empty()) {
          CheckRet(i, ev, trace::kENOTEMPTY);
          return;
        }
      } else if (src_dir) {
        CheckRet(i, ev, trace::kENOTDIR);
        return;
      }
      TouchNode(dst.node, i);
      dnode.nlink -= dnode.kind == NodeKind::kDir ? 2 : 1;
      nodes_[dst.parent].children.erase(dst.final_name);
    }
    TouchNode(src.node, i);
    nodes_[src.parent].children.erase(src.final_name);
    nodes_[dst.parent].children[dst.final_name] = src.node;
    RebindPath(ev.path.str(), i);
    RebindPath(ev.path2.str(), i);
    if (src_dir) {
      RebindSubtree(ev.path.str(), i);
      RebindSubtree(ev.path2.str(), i);
    }
    CheckRet(i, ev, 0);
  }

  void ApplyLink(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    TouchPath(ev.path2.str(), i);
    Resolution src = Resolve(ev.path.str());
    Resolution dst = Resolve(ev.path2.str());
    TouchMissingPrefix(src, i);
    TouchMissingPrefix(dst, i);
    if (src.via_symlink || dst.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (src.err != 0) {
      CheckRet(i, ev, src.err);
      return;
    }
    if (nodes_[src.node].kind == NodeKind::kDir) {
      CheckRet(i, ev, trace::kEPERM);
      return;
    }
    if (dst.err == 0) {
      CheckRet(i, ev, trace::kEEXIST);
      return;
    }
    if (dst.err != trace::kENOENT || dst.parent == 0) {
      CheckRet(i, ev, dst.err);
      return;
    }
    TouchNode(src.node, i);
    nodes_[dst.parent].children[dst.final_name] = src.node;
    nodes_[src.node].nlink++;
    RebindPath(ev.path2.str(), i);
    CheckRet(i, ev, 0);
  }

  void ApplyStat(uint32_t i, const TraceEvent& ev) {
    TouchPath(ev.path.str(), i);
    Resolution r = Resolve(ev.path.str());
    TouchMissingPrefix(r, i);
    if (r.via_symlink) {
      out_.unsupported_events++;
      return;
    }
    if (r.err != 0) {
      CheckRet(i, ev, r.err);
      return;
    }
    TouchNode(r.node, i);
    CheckRet(i, ev, 0);  // value (the size) is not class-checked
  }

  struct MutexRef {
    bool locked = false;
    uint32_t lock_event = kNoEvent;
    uint32_t last_unlock = kNoEvent;
  };
  struct BarrierRef {
    uint32_t count = 0;          // 0 = never initialized
    uint32_t opener = kNoEvent;  // init or the previous phase's pivot
    std::vector<std::pair<uint32_t, uint32_t>> arrivals;  // (event, tid)
  };
  struct CondTokenRef {
    uint32_t event;    // the signal/broadcast
    uint64_t wakeups;  // waits it may satisfy; UINT64_MAX for broadcast
  };
  struct CondRef {
    std::vector<CondTokenRef> tokens;  // outstanding, oldest first
  };

  const trace::TraceBundle& bundle_;
  RefModel out_;
  uint64_t root_ = 0;
  uint64_t next_node_ = 1;
  std::unordered_map<uint64_t, Node> nodes_;
  std::unordered_map<std::string, PathGen> paths_;
  std::unordered_map<int32_t, FdGen> fds_;
  std::unordered_map<uint32_t, uint32_t> last_by_thread_;
  std::unordered_map<uint64_t, MutexRef> mutexes_;
  std::unordered_map<uint64_t, BarrierRef> barriers_;
  std::unordered_map<uint64_t, CondRef> conds_;
  // tid -> barrier pivots whose release edge lands on that thread's next event
  std::unordered_map<uint32_t, std::vector<uint32_t>> pending_after_;
};

}  // namespace

const char* HbRuleName(HbRule rule) {
  switch (rule) {
    case HbRule::kThread:
      return "thread";
    case HbRule::kFileSeq:
      return "file-seq";
    case HbRule::kPathStage:
      return "path-stage";
    case HbRule::kPathName:
      return "path-name";
    case HbRule::kFdStage:
      return "fd-stage";
    case HbRule::kMutex:
      return "mutex";
    case HbRule::kBarrier:
      return "barrier";
    case HbRule::kCond:
      return "cond";
    case HbRule::kJoin:
      return "join";
  }
  return "?";
}

RefModel BuildRefModel(const trace::TraceBundle& bundle) {
  return Model(bundle).Build();
}

}  // namespace artc::check
