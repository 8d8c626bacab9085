#include "src/fsmodel/resource_model.h"

#include <algorithm>

#include "src/fsmodel/sync_model.h"
#include <map>
#include <memory>
#include <unordered_map>

#include "src/obs/obs.h"
#include "src/util/check.h"
#include "src/util/interner.h"
#include "src/util/strings.h"

namespace artc::fsmodel {

const char* ResourceKindName(ResourceKind k) {
  switch (k) {
    case ResourceKind::kProgram:
      return "program";
    case ResourceKind::kThread:
      return "thread";
    case ResourceKind::kFile:
      return "file";
    case ResourceKind::kPath:
      return "path";
    case ResourceKind::kFd:
      return "fd";
    case ResourceKind::kAiocb:
      return "aiocb";
    case ResourceKind::kMutex:
      return "mutex";
    case ResourceKind::kBarrier:
      return "barrier";
    case ResourceKind::kCond:
      return "cond";
  }
  return "?";
}

const char* AccessName(Access a) {
  switch (a) {
    case Access::kUse:
      return "use";
    case Access::kCreate:
      return "create";
    case Access::kDelete:
      return "delete";
  }
  return "?";
}

uint32_t AnnotatedTrace::ThreadResource(uint32_t tid) const {
  for (size_t i = 0; i < thread_ids.size(); ++i) {
    if (thread_ids[i] == tid) {
      return thread_resources[i];
    }
  }
  return kNoResource;
}

namespace {

using trace::Sys;
using trace::TraceEvent;

constexpr uint8_t kNodeFile = 0;
constexpr uint8_t kNodeDir = 1;
constexpr uint8_t kNodeSymlink = 2;

inline constexpr uint32_t kNoPathId = UINT32_MAX;

// Shadow tree node. Node identity *is* the file resource. Children are
// keyed by interned component id, so descending the tree hashes and
// compares 4-byte integers instead of string keys.
struct Node {
  uint64_t id = 0;
  uint8_t type = kNodeFile;
  std::map<uint32_t, uint64_t> children;  // dirs: interned name -> node id
  std::string symlink_target;
  uint32_t nlink = 1;
  uint32_t resource = kNoResource;  // lazily assigned
};

// Current binding state of a literal path name.
struct PathState {
  uint32_t resource = kNoResource;  // current generation's resource id
  bool bound = false;               // does the name currently resolve?
  uint64_t node = 0;                // node it binds to, when bound
  uint32_t generation = 0;
};

struct FdState {
  uint32_t resource = kNoResource;
  uint64_t node = 0;
  bool open = false;
  uint32_t generation = 0;
};

struct AioState {
  uint32_t resource = kNoResource;
  bool live = false;
  uint32_t generation = 0;
};

}  // namespace

// The annotation engine. One instance IS the live model state: the shadow
// tree, path/fd/aio generation tables, and the growing resource table. Both
// the batch AnnotateTrace and the public incremental Annotator drive it one
// event at a time.
struct Annotator::Impl : public SyncHost {
  Impl(const trace::FsSnapshot& snapshot, const AnnotateOptions& options)
      : opts_(options) {
    // Resource 0 is the program.
    NewResource(ResourceKind::kProgram, "program");
    BuildTree(snapshot);
  }

  // Appends ev's touches to *touches. Intra-event dedup scans only what
  // this event appended, so *touches may hold earlier events' touches.
  void Annotate(const TraceEvent& ev, std::vector<Touch>* touches) {
    cur_ = touches;
    cur_start_ = touches->size();
    TouchThread(ev.tid);
    // Touches deferred onto this thread by a sync rendezvous (barrier
    // fan-out) land on its first event past the rendezvous.
    auto pending = pending_use_.find(ev.tid);
    if (pending != pending_use_.end()) {
      for (uint32_t r : pending->second) {
        TouchRes(r, Access::kUse);
      }
      pending_use_.erase(pending);
    }
    Handle(ev);
    cur_ = nullptr;
  }

  // ---- SyncHost (services for the sync-object model) ----
  uint32_t SyncNewResource(ResourceKind kind, std::string label,
                           uint32_t prev_generation,
                           uint32_t name_id) override {
    return NewResource(kind, std::move(label), prev_generation,
                       /*initially_bound=*/false, name_id);
  }
  void SyncTouch(uint32_t resource, Access access) override {
    TouchRes(resource, access);
  }
  void SyncDeferUse(uint32_t tid, uint32_t resource) override {
    pending_use_[tid].push_back(resource);
  }
  void SyncWarn(const std::string& msg) override { Warn(msg); }
  bool SyncLabels() const override { return Labels(); }
  // ---- resource table ----
  uint32_t NewResource(ResourceKind kind, std::string label,
                       uint32_t prev = kNoResource, bool initially_bound = false,
                       uint32_t name_id = kNoResource) {
    ResourceInfo info;
    info.kind = kind;
    info.label = std::move(label);
    info.prev_generation = prev;
    info.initially_bound = initially_bound;
    info.name_id = name_id;
    out_.resources.push_back(std::move(info));
    return static_cast<uint32_t>(out_.resources.size() - 1);
  }

  void Warn(const std::string& msg) {
    out_.warnings++;
    if (out_.first_warning.empty()) {
      out_.first_warning = msg;
    }
  }

  void TouchRes(uint32_t resource, Access access) {
    if (resource == kNoResource) {
      return;
    }
    for (size_t i = cur_start_; i < cur_->size(); ++i) {
      const Touch& t = (*cur_)[i];
      if (t.resource == resource && t.access == access) {
        return;  // dedup within the event
      }
    }
    cur_->push_back({resource, access});
  }

  void TouchThread(uint32_t tid) {
    auto it = thread_res_.find(tid);
    uint32_t r;
    if (it == thread_res_.end()) {
      r = NewResource(ResourceKind::kThread,
                      Labels() ? StrFormat("thread:%u", tid) : std::string(),
                      kNoResource, /*initially_bound=*/false, /*name_id=*/tid);
      thread_res_[tid] = r;
      out_.thread_ids.push_back(tid);
      out_.thread_resources.push_back(r);
    } else {
      r = it->second;
    }
    TouchRes(r, Access::kUse);
  }

  // ---- shadow tree ----
  Node* GetNode(uint64_t id) { return id < nodes_.size() ? nodes_[id].get() : nullptr; }

  Node* NewNode(uint8_t type) {
    auto n = std::make_unique<Node>();
    n->id = nodes_.size();
    n->type = type;
    Node* raw = n.get();
    nodes_.push_back(std::move(n));
    return raw;
  }

  uint32_t NodeResource(Node* n) {
    if (n->resource == kNoResource) {
      n->resource = NewResource(
          ResourceKind::kFile,
          Labels() ? StrFormat("file:%llu", static_cast<unsigned long long>(n->id))
                   : std::string(),
          kNoResource, /*initially_bound=*/false,
          /*name_id=*/static_cast<uint32_t>(n->id));
    }
    return n->resource;
  }

  void BuildTree(const trace::FsSnapshot& snapshot) {
    Node* root = NewNode(kNodeDir);
    root_ = root->id;
    for (const trace::SnapshotEntry& e : snapshot.entries) {
      switch (e.type) {
        case trace::SnapshotEntryType::kDir:
          MkdirAll(e.path);
          break;
        case trace::SnapshotEntryType::kFile:
        case trace::SnapshotEntryType::kSpecial: {
          Node* dir = MkdirAll(DirName(e.path));
          Node* f = NewNode(kNodeFile);
          dir->children[Intern(BaseName(e.path))] = f->id;
          break;
        }
        case trace::SnapshotEntryType::kSymlink: {
          Node* dir = MkdirAll(DirName(e.path));
          Node* l = NewNode(kNodeSymlink);
          l->symlink_target = e.symlink_target;
          dir->children[Intern(BaseName(e.path))] = l->id;
          break;
        }
      }
    }
  }

  Node* MkdirAll(std::string_view path) {
    Node* dir = GetNode(root_);
    std::string norm = NormalizePath(path);  // keep alive: SplitPath returns views
    for (std::string_view comp : SplitPath(norm)) {
      uint32_t name = Intern(comp);
      auto it = dir->children.find(name);
      if (it != dir->children.end()) {
        Node* child = GetNode(it->second);
        if (child->type == kNodeDir) {
          dir = child;
          continue;
        }
        return child;  // degenerate; callers handle
      }
      Node* child = NewNode(kNodeDir);
      dir->children[name] = child->id;
      dir = child;
    }
    return dir;
  }

  // Resolves a path to (node, parent, leaf), following symlinks; the nodes
  // of traversed symlinks are appended to `via`. All name bookkeeping is on
  // interned ids; every intermediate path is a substring of the normalized
  // input, so no per-component strings are built.
  struct Resolved {
    Node* node = nullptr;    // nullptr if unbound
    Node* parent = nullptr;  // immediate parent dir, if it exists
    uint32_t leaf = kNoPathId;           // interned leaf component name
    uint32_t final_path_id = kNoPathId;  // interned normalized leaf path
    // When resolution dies before the leaf (missing intermediate, or an
    // intermediate bound to a non-directory), the interned path of the
    // prefix that failed. The outcome of the call depends on that name's
    // binding, so callers must touch its current generation — otherwise a
    // replay can reorder the call against the mkdir/rmdir/rename that
    // (un)bound the prefix and change its result.
    uint32_t missing_prefix_id = kNoPathId;
  };

  Resolved ResolvePath(std::string_view path, bool follow_last,
                       std::vector<Node*>* via, int depth = 0) {
    Resolved res;
    if (depth > 8) {
      return res;
    }
    // Per-depth normalization buffers, reused across calls. Recursion (only
    // through symlinks) gets its own slot, so the parent frame's component
    // views stay valid while it builds the retarget path.
    if (norm_stack_.size() <= static_cast<size_t>(depth)) {
      norm_stack_.resize(depth + 1);
    }
    std::string& norm = norm_stack_[depth];
    NormalizePathInto(path, &norm);
    std::string_view nview = norm;
    Node* dir = GetNode(root_);
    if (nview == "/") {
      res.node = dir;
      res.parent = dir;
      res.leaf = Intern("/");
      res.final_path_id = res.leaf;
      return res;
    }
    size_t start = 1;
    while (true) {
      if (dir->type != kNodeDir) {
        res.missing_prefix_id =
            Intern(start == 1 ? std::string_view("/") : nview.substr(0, start - 1));
        return res;
      }
      size_t pos = nview.find('/', start);
      size_t end = pos == std::string_view::npos ? nview.size() : pos;
      bool last = end == nview.size();
      uint32_t name = Intern(nview.substr(start, end - start));
      auto it = dir->children.find(name);
      if (it == dir->children.end()) {
        if (last) {
          res.parent = dir;
          res.leaf = name;
          res.final_path_id = Intern(nview);
        } else {
          res.missing_prefix_id = Intern(nview.substr(0, end));
        }
        return res;
      }
      Node* child = GetNode(it->second);
      if (child->type == kNodeSymlink && (!last || follow_last)) {
        if (via != nullptr) {
          via->push_back(child);
        }
        std::string_view parent_path = start == 1 ? "/" : nview.substr(0, start - 1);
        const std::string& target = child->symlink_target;
        std::string base = target.empty() || target[0] != '/'
                               ? JoinPath(parent_path, target)
                               : target;
        base.append(nview.substr(end));  // un-walked suffix, "/"-prefixed
        return ResolvePath(base, follow_last, via, depth + 1);
      }
      if (last) {
        res.node = child;
        res.parent = dir;
        res.leaf = name;
        res.final_path_id = Intern(nview);
        return res;
      }
      dir = child;
      start = end + 1;
    }
  }

  // ---- path generations ----
  // The table is keyed by interned normalized-path id; the path string is
  // only pulled back out of the interner for labels and rename prefix scans.

  PathState& PathFor(uint32_t path_id) {
    auto it = paths_.find(path_id);
    if (it != paths_.end()) {
      return it->second;
    }
    // First reference: bind lazily against the current tree.
    PathState st;
    std::vector<Node*> via;
    std::string_view norm_path = interner_->View(path_id);
    Resolved r = ResolvePath(norm_path, /*follow_last=*/false, &via);
    st.bound = r.node != nullptr;
    st.node = r.node != nullptr ? r.node->id : 0;
    st.generation = 1;
    st.resource = NewResource(ResourceKind::kPath,
                              Labels() ? StrFormat("path:%.*s@1%s",
                                                   static_cast<int>(norm_path.size()),
                                                   norm_path.data(),
                                                   st.bound ? "" : "(absent)")
                                       : std::string(),
                              kNoResource, /*initially_bound=*/st.bound,
                              /*name_id=*/path_id);
    return paths_.emplace(path_id, st).first->second;
  }

  // Declares that the binding of the path changed. The event receives a
  // kDelete touch on the old generation and a kCreate touch on the new one.
  void RebindPath(uint32_t path_id, bool now_bound, uint64_t node) {
    PathState& st = PathFor(path_id);
    TouchRes(st.resource, Access::kDelete);
    uint32_t prev = st.resource;
    st.generation++;
    st.bound = now_bound;
    st.node = node;
    std::string label;
    if (Labels()) {
      std::string_view norm_path = interner_->View(path_id);
      label = StrFormat("path:%.*s@%u%s", static_cast<int>(norm_path.size()),
                        norm_path.data(), st.generation, now_bound ? "" : "(absent)");
    }
    st.resource = NewResource(ResourceKind::kPath, std::move(label), prev,
                              /*initially_bound=*/false, /*name_id=*/path_id);
    TouchRes(st.resource, Access::kCreate);
  }

  // Touches the current generation of a path (plain use).
  void UsePath(uint32_t path_id) {
    TouchRes(PathFor(path_id).resource, Access::kUse);
  }

  // Normalizes a raw path into a reusable scratch buffer and interns it.
  uint32_t InternPathName(std::string_view raw) {
    NormalizePathInto(raw, &intern_scratch_);
    return Intern(intern_scratch_);
  }

  // Collects all *referenced* paths at or under `prefix` (for directory
  // renames: every name the program has used that the rename invalidates).
  // Sorted by path string so rename handling numbers resources in a
  // deterministic order regardless of hash-map iteration.
  std::vector<uint32_t> ReferencedPathsUnder(std::string_view prefix) {
    std::vector<uint32_t> out;
    std::string dir_prefix = prefix == "/" ? std::string(prefix) : std::string(prefix) + "/";
    for (const auto& [pid, st] : paths_) {
      std::string_view p = interner_->View(pid);
      if (p == prefix || StartsWith(p, dir_prefix)) {
        out.push_back(pid);
      }
    }
    std::sort(out.begin(), out.end(), [this](uint32_t a, uint32_t b) {
      return interner_->View(a) < interner_->View(b);
    });
    return out;
  }

  // ---- fd / aio generations ----

  void FdOpen(int32_t fd, uint64_t node) {
    if (fd < 0) {
      return;
    }
    FdState& st = fds_[fd];
    uint32_t prev = st.resource;
    st.generation++;
    st.open = true;
    st.node = node;
    st.resource = NewResource(
        ResourceKind::kFd,
        Labels() ? StrFormat("fd:%d@%u", fd, st.generation) : std::string(), prev,
        /*initially_bound=*/false, /*name_id=*/static_cast<uint32_t>(fd));
    TouchRes(st.resource, Access::kCreate);
  }

  // Returns the node the fd refers to, touching the fd resource.
  Node* FdUse(int32_t fd, Access access) {
    auto it = fds_.find(fd);
    if (it == fds_.end() || !it->second.open) {
      return nullptr;
    }
    TouchRes(it->second.resource, access);
    return GetNode(it->second.node);
  }

  void FdClose(int32_t fd) {
    auto it = fds_.find(fd);
    if (it == fds_.end() || !it->second.open) {
      return;
    }
    TouchRes(it->second.resource, Access::kDelete);
    it->second.open = false;
  }

  // ---- per-call handling ----

  // Touches for a path-addressed call that does not modify the namespace:
  // literal path (current gen), traversed symlinks, parent dir node, target
  // node. Returns the target node (nullptr if absent).
  Node* UsePathTarget(const std::string& raw_path, bool follow_last) {
    uint32_t pid = InternPathName(raw_path);
    std::vector<Node*> via;
    Resolved r = ResolvePath(interner_->View(pid), follow_last, &via);
    return UseResolvedPath(pid, r, via);
  }

  // UsePathTarget's touches for a path the caller already resolved.
  Node* UseResolvedPath(uint32_t pid, const Resolved& r, const std::vector<Node*>& via) {
    UsePath(pid);
    if (r.missing_prefix_id != kNoPathId) {
      UsePath(r.missing_prefix_id);
    }
    for (Node* link : via) {
      TouchRes(NodeResource(link), Access::kUse);
    }
    if (r.parent != nullptr) {
      TouchRes(NodeResource(r.parent), Access::kUse);
    }
    if (r.node != nullptr) {
      TouchRes(NodeResource(r.node), Access::kUse);
    }
    return r.node;
  }

  void HandleCreateAt(const TraceEvent& ev, uint8_t node_type) {
    // Shared by open(O_CREAT) when it creates, mkdir, symlink.
    std::string norm = NormalizePath(node_type == kNodeSymlink ? ev.path2.str() : ev.path.str());
    std::vector<Node*> via;
    Resolved r = ResolvePath(norm, /*follow_last=*/false, &via);
    for (Node* link : via) {
      TouchRes(NodeResource(link), Access::kUse);
    }
    if (r.node != nullptr) {
      Warn(StrFormat("event %llu: create of already-bound path %s",
                     static_cast<unsigned long long>(ev.index), norm.c_str()));
      // Trace inconsistency (the paper's iTunes O_EXCL case): rebind.
      Node* parent = r.parent;
      TouchRes(NodeResource(parent), Access::kUse);
      Node* fresh = NewNode(node_type);
      parent->children[r.leaf] = fresh->id;
      RebindPath(r.final_path_id, true, fresh->id);
      TouchRes(NodeResource(fresh), Access::kCreate);
      if (ev.call == Sys::kOpen) {
        FdOpen(static_cast<int32_t>(ev.ret), fresh->id);
      }
      return;
    }
    if (r.parent == nullptr) {
      Warn(StrFormat("event %llu: create under missing parent %s",
                     static_cast<unsigned long long>(ev.index), norm.c_str()));
      MkdirAll(DirName(norm));
      std::vector<Node*> via2;
      r = ResolvePath(norm, /*follow_last=*/false, &via2);
      if (r.parent == nullptr) {
        return;
      }
    }
    TouchRes(NodeResource(r.parent), Access::kUse);
    Node* fresh = NewNode(node_type);
    if (node_type == kNodeSymlink) {
      fresh->symlink_target = ev.path.str();  // symlink(target=path, link=path2)
    }
    r.parent->children[r.leaf] = fresh->id;
    RebindPath(r.final_path_id, true, fresh->id);
    TouchRes(NodeResource(fresh), Access::kCreate);
    if (ev.call == Sys::kOpen) {
      FdOpen(static_cast<int32_t>(ev.ret), fresh->id);
    }
  }

  void HandleUnlinkLike(const TraceEvent& ev, bool is_rmdir) {
    std::string norm = NormalizePath(ev.path.str());
    std::vector<Node*> via;
    Resolved r = ResolvePath(norm, /*follow_last=*/false, &via);
    for (Node* link : via) {
      TouchRes(NodeResource(link), Access::kUse);
    }
    if (ev.Failed() || r.node == nullptr) {
      UsePath(Intern(norm));
      if (r.missing_prefix_id != kNoPathId) {
        UsePath(r.missing_prefix_id);
      }
      if (r.parent != nullptr) {
        TouchRes(NodeResource(r.parent), Access::kUse);
      }
      if (r.node != nullptr) {
        TouchRes(NodeResource(r.node), Access::kUse);
      }
      return;
    }
    TouchRes(NodeResource(r.parent), Access::kUse);
    r.node->nlink--;
    bool gone = is_rmdir || r.node->nlink == 0;
    TouchRes(NodeResource(r.node), gone ? Access::kDelete : Access::kUse);
    r.parent->children.erase(r.leaf);
    RebindPath(r.final_path_id, false, 0);
  }

  void HandleRename(const TraceEvent& ev) {
    std::string src = NormalizePath(ev.path.str());
    std::string dst = NormalizePath(ev.path2.str());
    std::vector<Node*> via;
    Resolved rs = ResolvePath(src, /*follow_last=*/false, &via);
    Resolved rd = ResolvePath(dst, /*follow_last=*/false, &via);
    for (Node* link : via) {
      TouchRes(NodeResource(link), Access::kUse);
    }
    if (ev.Failed() || rs.node == nullptr || rd.parent == nullptr) {
      UsePath(Intern(src));
      UsePath(Intern(dst));
      if (rs.missing_prefix_id != kNoPathId) {
        UsePath(rs.missing_prefix_id);
      }
      if (rd.missing_prefix_id != kNoPathId) {
        UsePath(rd.missing_prefix_id);
      }
      if (rs.parent != nullptr) {
        TouchRes(NodeResource(rs.parent), Access::kUse);
      }
      if (rd.parent != nullptr) {
        TouchRes(NodeResource(rd.parent), Access::kUse);
      }
      return;
    }
    if (rs.node == rd.node) {
      // POSIX: renaming a name onto another hard link of the same node is a
      // no-op — the VFS returns 0 without unbinding the source. Model it as
      // plain uses; mutating the tree here would desynchronize the shadow
      // namespace from replay and drop every later edge through this node.
      UsePath(Intern(src));
      UsePath(Intern(dst));
      TouchRes(NodeResource(rs.parent), Access::kUse);
      TouchRes(NodeResource(rd.parent), Access::kUse);
      TouchRes(NodeResource(rs.node), Access::kUse);
      return;
    }
    TouchRes(NodeResource(rs.parent), Access::kUse);
    TouchRes(NodeResource(rd.parent), Access::kUse);
    TouchRes(NodeResource(rs.node), Access::kUse);
    bool is_dir = rs.node->type == kNodeDir;

    // Every referenced path under the source moves: old generations close.
    std::vector<uint32_t> moved = ReferencedPathsUnder(src);
    // The destination (and referenced paths under it, if replacing a dir)
    // also rebind.
    std::vector<uint32_t> clobbered = ReferencedPathsUnder(dst);

    if (rd.node != nullptr) {
      TouchRes(NodeResource(rd.node), Access::kDelete);  // replaced target dies
    }
    // Apply the tree mutation.
    rs.parent->children.erase(rs.leaf);
    rd.parent->children[rd.leaf] = rs.node->id;

    // Interned id of the destination-side name for each moved source path.
    auto moved_dest = [&](uint32_t pid) {
      std::string_view p = interner_->View(pid);
      std::string np = NormalizePath(dst + std::string(p.substr(src.size())));
      return Intern(np);
    };

    for (uint32_t pid : moved) {
      RebindPath(pid, false, 0);
      // The corresponding destination path becomes bound.
      uint32_t np = moved_dest(pid);
      std::vector<Node*> tmp;
      Resolved rr = ResolvePath(interner_->View(np), /*follow_last=*/false, &tmp);
      RebindPath(np, rr.node != nullptr, rr.node != nullptr ? rr.node->id : 0);
    }
    for (uint32_t pid : clobbered) {
      bool already = false;
      for (uint32_t m : moved) {
        if (moved_dest(m) == pid) {
          already = true;
          break;
        }
      }
      if (already) {
        continue;
      }
      std::vector<Node*> tmp;
      Resolved rr = ResolvePath(interner_->View(pid), /*follow_last=*/false, &tmp);
      RebindPath(pid, rr.node != nullptr, rr.node != nullptr ? rr.node->id : 0);
    }
    (void)is_dir;
  }

  void Handle(const TraceEvent& ev) {
    switch (ev.call) {
      case Sys::kOpen:
      case Sys::kCreat:
      case Sys::kShmOpen: {
        // Normalized into the InternPathName scratch, so `norm` is read only
        // before the next InternPathName call (HandleCreateAt).
        NormalizePathInto(ev.path.str(), &intern_scratch_);
        const std::string& norm = intern_scratch_;
        std::vector<Node*> via;
        bool follow = !(ev.flags & trace::kOpenNoFollow);
        Resolved r = ResolvePath(norm, follow, &via);
        bool creates = !ev.Failed() && (ev.flags & trace::kOpenCreate) && r.node == nullptr;
        if (creates) {
          UsePath(Intern(norm));
          HandleCreateAt(ev, kNodeFile);
          break;
        }
        if (!ev.Failed() && (ev.flags & trace::kOpenCreate) &&
            (ev.flags & trace::kOpenExcl) && r.node != nullptr) {
          // Successful exclusive create over a bound path: trace anomaly.
          UsePath(Intern(norm));
          HandleCreateAt(ev, kNodeFile);
          break;
        }
        // The tree has not changed since the resolve above.
        Node* node = UseResolvedPath(Intern(norm), r, via);
        if (!ev.Failed() && node != nullptr) {
          FdOpen(static_cast<int32_t>(ev.ret), node->id);
        } else if (!ev.Failed() && node == nullptr) {
          Warn(StrFormat("event %llu: successful open of unbound path %s",
                         static_cast<unsigned long long>(ev.index), ev.path.c_str()));
        }
        break;
      }
      case Sys::kClose: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
        }
        if (!ev.Failed()) {
          FdClose(ev.fd);
        }
        break;
      }
      case Sys::kDup: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
          if (!ev.Failed()) {
            FdOpen(static_cast<int32_t>(ev.ret), node->id);
          }
        }
        break;
      }
      case Sys::kDup2: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
          if (!ev.Failed()) {
            FdClose(ev.fd2);
            FdOpen(ev.fd2, node->id);
          }
        }
        break;
      }
      case Sys::kRead:
      case Sys::kReadV:
      case Sys::kPRead:
      case Sys::kPReadV:
      case Sys::kWrite:
      case Sys::kWriteV:
      case Sys::kPWrite:
      case Sys::kPWriteV:
      case Sys::kLSeek:
      case Sys::kFsync:
      case Sys::kFdatasync:
      case Sys::kFstat:
      case Sys::kFstatFs:
      case Sys::kFtruncate:
      case Sys::kFchmod:
      case Sys::kFchown:
      case Sys::kFutimes:
      case Sys::kFlock:
      case Sys::kFcntl:
      case Sys::kIoctl:
      case Sys::kGetDirEntries:
      case Sys::kGetDents:
      case Sys::kFGetXattr:
      case Sys::kFSetXattr:
      case Sys::kFRemoveXattr:
      case Sys::kFListXattr:
      case Sys::kFadvise:
      case Sys::kFallocate:
      case Sys::kSyncFileRange:
      case Sys::kMmap:
      case Sys::kSendFile:
      case Sys::kReadahead:
      case Sys::kFcntlFullFsync:
      case Sys::kFcntlRdAdvise:
      case Sys::kFcntlPreallocate:
      case Sys::kFcntlNoCache: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
        }
        break;
      }
      case Sys::kStat:
      case Sys::kAccess:
      case Sys::kStatFs:
      case Sys::kChmod:
      case Sys::kChown:
      case Sys::kUtimes:
      case Sys::kTruncate:
      case Sys::kGetXattr:
      case Sys::kSetXattr:
      case Sys::kListXattr:
      case Sys::kRemoveXattr:
      case Sys::kGetAttrList:
      case Sys::kSetAttrList:
      case Sys::kSearchFs:
      case Sys::kGetXattrOsx:
      case Sys::kSetXattrOsx:
      case Sys::kListXattrOsx:
      case Sys::kRemoveXattrOsx:
      case Sys::kOsxUndoc1:
      case Sys::kOsxUndoc2:
      case Sys::kOsxUndoc3:
        UsePathTarget(ev.path.str(), /*follow_last=*/true);
        break;
      case Sys::kLstat:
      case Sys::kLGetXattr:
      case Sys::kLSetXattr:
      case Sys::kLListXattr:
      case Sys::kLRemoveXattr:
      case Sys::kReadlink:
        UsePathTarget(ev.path.str(), /*follow_last=*/false);
        break;
      case Sys::kMkdir:
        if (!ev.Failed()) {
          UsePath(InternPathName(ev.path.str()));
          HandleCreateAt(ev, kNodeDir);
        } else {
          UsePathTarget(ev.path.str(), /*follow_last=*/false);
        }
        break;
      case Sys::kSymlink:
        // path = target (not touched: may not exist), path2 = link name.
        if (!ev.Failed()) {
          UsePath(InternPathName(ev.path2.str()));
          HandleCreateAt(ev, kNodeSymlink);
        } else {
          UsePathTarget(ev.path2.str(), /*follow_last=*/false);
        }
        break;
      case Sys::kLink: {
        Node* target = UsePathTarget(ev.path.str(), /*follow_last=*/true);
        if (ev.Failed() || target == nullptr) {
          UsePathTarget(ev.path2.str(), /*follow_last=*/false);
          break;
        }
        std::string norm = NormalizePath(ev.path2.str());
        std::vector<Node*> via;
        Resolved r = ResolvePath(norm, /*follow_last=*/false, &via);
        if (r.parent == nullptr || r.node != nullptr) {
          UsePathTarget(ev.path2.str(), /*follow_last=*/false);
          break;
        }
        UsePath(Intern(norm));
        TouchRes(NodeResource(r.parent), Access::kUse);
        target->nlink++;
        r.parent->children[r.leaf] = target->id;
        RebindPath(r.final_path_id, true, target->id);
        break;
      }
      case Sys::kUnlink:
      case Sys::kShmUnlink:
        HandleUnlinkLike(ev, /*is_rmdir=*/false);
        break;
      case Sys::kRmdir:
        HandleUnlinkLike(ev, /*is_rmdir=*/true);
        break;
      case Sys::kRename:
        HandleRename(ev);
        break;
      case Sys::kExchangeData: {
        // Atomic content swap: both files' data change; paths stay bound.
        Node* a = UsePathTarget(ev.path.str(), /*follow_last=*/true);
        Node* b = UsePathTarget(ev.path2.str(), /*follow_last=*/true);
        (void)a;
        (void)b;
        break;
      }
      case Sys::kAioRead:
      case Sys::kAioWrite: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
        }
        if (!ev.Failed() && ev.aio_id != 0) {
          AioState& st = aios_[ev.aio_id];
          uint32_t prev = st.resource;
          st.generation++;
          st.live = true;
          st.resource = NewResource(
              ResourceKind::kAiocb,
              Labels() ? StrFormat("aiocb:%llu@%u",
                                   static_cast<unsigned long long>(ev.aio_id),
                                   st.generation)
                       : std::string(),
              prev, /*initially_bound=*/false,
              /*name_id=*/static_cast<uint32_t>(ev.aio_id));
          TouchRes(st.resource, Access::kCreate);
        }
        break;
      }
      case Sys::kAioError:
      case Sys::kAioSuspend:
      case Sys::kAioCancel: {
        auto it = aios_.find(ev.aio_id);
        if (it != aios_.end() && it->second.live) {
          TouchRes(it->second.resource, Access::kUse);
        }
        break;
      }
      case Sys::kAioReturn: {
        auto it = aios_.find(ev.aio_id);
        if (it != aios_.end() && it->second.live) {
          TouchRes(it->second.resource, Access::kDelete);
          it->second.live = false;
        }
        break;
      }
      case Sys::kGetDirEntriesAttr: {
        Node* node = FdUse(ev.fd, Access::kUse);
        if (node != nullptr) {
          TouchRes(NodeResource(node), Access::kUse);
        }
        break;
      }
      case Sys::kMutexLock:
      case Sys::kMutexUnlock:
      case Sys::kBarrierInit:
      case Sys::kBarrierWait:
      case Sys::kCondWait:
      case Sys::kCondSignal:
      case Sys::kCondBroadcast:
        sync_.Handle(ev);
        break;
      case Sys::kThreadJoin: {
        // The joined thread's id rides in sync_id. Touching its thread
        // resource hands the dep builder a cross-thread edge from the
        // target's final action to this join.
        auto it = thread_res_.find(static_cast<uint32_t>(ev.sync_id));
        if (it == thread_res_.end()) {
          Warn(StrFormat("event %llu: join of never-seen thread %llu",
                         static_cast<unsigned long long>(ev.index),
                         static_cast<unsigned long long>(ev.sync_id)));
        } else {
          TouchRes(it->second, Access::kUse);
        }
        break;
      }
      default:
        // Calls with no file-system resources beyond the thread (umask,
        // getcwd, chdir, munmap, madvise, msync, lio_listio, ...).
        break;
    }
  }

  uint32_t Intern(std::string_view s) { return interner_->Intern(s); }
  bool Labels() const { return opts_.materialize_labels; }

  const AnnotateOptions opts_;
  AnnotatedTrace out_;
  std::vector<Touch>* cur_ = nullptr;
  size_t cur_start_ = 0;  // the current event's first entry in *cur_

  // Path names and components. Heap-allocated so the finished annotation can
  // keep a reference (AnnotatedTrace::path_names) after the annotator dies.
  std::shared_ptr<util::StringInterner> interner_ =
      std::make_shared<util::StringInterner>();
  std::vector<std::string> norm_stack_;  // ResolvePath per-depth buffers
  std::string intern_scratch_;           // InternPathName buffer

  // Indexed by node id; ids are dense and nodes are never removed. Id 0 is
  // unused.
  std::vector<std::unique_ptr<Node>> nodes_ = std::vector<std::unique_ptr<Node>>(1);
  uint64_t root_ = 0;
  std::unordered_map<uint32_t, PathState> paths_;  // interned path id -> state
  std::unordered_map<int32_t, FdState> fds_;
  std::unordered_map<uint64_t, AioState> aios_;
  std::unordered_map<uint32_t, uint32_t> thread_res_;
  SyncObjectModel sync_{this};
  // tid -> resources whose kUse lands on that thread's next event.
  std::unordered_map<uint32_t, std::vector<uint32_t>> pending_use_;
};

Annotator::Annotator(const trace::FsSnapshot& snapshot, const AnnotateOptions& options)
    : impl_(std::make_unique<Impl>(snapshot, options)) {}

Annotator::~Annotator() = default;

void Annotator::AnnotateEvent(const trace::TraceEvent& ev, std::vector<Touch>* touches) {
  impl_->Annotate(ev, touches);
}

const std::vector<ResourceInfo>& Annotator::resources() const {
  return impl_->out_.resources;
}

uint64_t Annotator::warnings() const { return impl_->out_.warnings; }

const std::string& Annotator::first_warning() const {
  return impl_->out_.first_warning;
}

std::shared_ptr<const util::StringInterner> Annotator::path_names() const {
  return impl_->interner_;
}

AnnotatedTrace Annotator::Finish() {
  impl_->out_.path_names = impl_->interner_;
  return std::move(impl_->out_);
}

AnnotatedTrace AnnotateTrace(const trace::Trace& t, const trace::FsSnapshot& snapshot,
                             const AnnotateOptions& options) {
  ARTC_OBS_SPAN("compiler", "annotate");
  Annotator a(snapshot, options);
  // Each event appends its touches to the end of one flat table.
  std::vector<Touch> touches;
  std::vector<uint32_t> offsets;
  offsets.reserve(t.events.size() + 1);
  offsets.push_back(0);
  for (const trace::TraceEvent& ev : t.events) {
    a.AnnotateEvent(ev, &touches);
    offsets.push_back(static_cast<uint32_t>(touches.size()));
  }
  AnnotatedTrace out = a.Finish();
  out.touches = std::move(touches);
  out.touch_offsets = std::move(offsets);
  return out;
}

}  // namespace artc::fsmodel
