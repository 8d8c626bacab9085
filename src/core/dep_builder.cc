#include "src/core/dep_builder.h"

#include <algorithm>
#include <string>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::core::internal {

using fsmodel::Access;
using fsmodel::kNoResource;
using fsmodel::ResourceKind;

void DepBuilder::ArtcTouch(const fsmodel::Touch& touch,
                           const ReplayModes& modes) {
  if (cursors_.size() <= touch.resource) {
    cursors_.resize(resources_.size());
  }
  const fsmodel::ResourceInfo& res = resources_[touch.resource];
  Cursor& c = cursors_[touch.resource];
  cur_touch_res_ = touch.resource;
  switch (res.kind) {
    case ResourceKind::kFile:
      if (modes.file_seq) {
        Sequential(c, RuleTag::kFileSeq);
      }
      break;
    case ResourceKind::kPath:
      if (modes.path_stage_name) {
        NameOrdering(res, c, RuleTag::kPathName);
        Stage(c, touch.access, RuleTag::kPathStage);
      }
      break;
    case ResourceKind::kFd:
      if (modes.fd_seq) {
        Sequential(c, RuleTag::kFdSeq);
      } else if (modes.fd_stage) {
        Stage(c, touch.access, RuleTag::kFdStage);
      }
      break;
    case ResourceKind::kAiocb:
      if (modes.aio_stage) {
        Stage(c, touch.access, RuleTag::kAioStage);
      }
      break;
    case ResourceKind::kThread:
      if (c.touched && c.last_event != kNoEvent) {
        if (ThreadOf(c.last_event) == ThreadOf(cur_event_)) {
          // Structural (each replay thread plays its actions in order);
          // counted for edge statistics without materialising a dep.
          CountEdge(RuleTag::kThreadSeq, c.last_event);
        } else if (modes.sync_rules) {
          // A cross-thread touch of a thread resource is a join (or an
          // action following one): the toucher waits for the thread's
          // last recorded action to complete.
          AddDep(c.last_event, DepKind::kCompletion, RuleTag::kJoin);
        }
      }
      break;
    case ResourceKind::kMutex:
      if (modes.sync_rules) {
        // Name ordering chains critical sections (unlock -> next lock);
        // stage covers a generation retired by a different thread
        // (unlock-from-elsewhere waits on the lock).
        NameOrdering(res, c, RuleTag::kMutex);
        Stage(c, touch.access, RuleTag::kMutex);
      }
      break;
    case ResourceKind::kBarrier:
      if (modes.sync_rules) {
        // Stage gives arrivals a dep on the phase opener and the pivot a
        // fan-in over every earlier arrival; name ordering chains phase
        // generations (pivot -> next phase's first arrival).
        NameOrdering(res, c, RuleTag::kBarrier);
        Stage(c, touch.access, RuleTag::kBarrier);
      }
      break;
    case ResourceKind::kCond:
      if (modes.sync_rules) {
        // Wakeup tokens carry no name ordering on purpose: concurrent
        // signals must not serialize against each other.
        Stage(c, touch.access, RuleTag::kCond);
      }
      break;
    case ResourceKind::kProgram:
      break;
  }
  Update(c, touch.access);
}

void DepBuilder::Sequential(Cursor& c, RuleTag rule) {
  if (c.touched && c.last_event != kNoEvent && c.last_event != cur_event_) {
    AddDep(c.last_event, DepKind::kCompletion, rule);
  }
}

void DepBuilder::Stage(Cursor& c, Access access, RuleTag rule) {
  if (access != Access::kCreate && c.create_event != kNoEvent &&
      c.create_event != cur_event_) {
    uint32_t thread = ThreadOf(cur_event_);
    bool seen = false;
    for (uint32_t t : c.create_waiters) {
      if (t == thread) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      AddDep(c.create_event, DepKind::kCompletion, rule);
      c.create_waiters.push_back(thread);
    }
  }
  if (access == Access::kDelete) {
    for (const auto& [thread, use] : c.last_use_by_thread) {
      if (use != cur_event_) {
        AddDep(use, DepKind::kCompletion, rule);
      }
    }
  }
}

void DepBuilder::NameOrdering(const fsmodel::ResourceInfo& res,
                              const Cursor& c, RuleTag rule) {
  if (c.touched || res.prev_generation == kNoResource) {
    return;  // only the first action of a generation gets the edge
  }
  const Cursor& prev = cursors_[res.prev_generation];
  if (prev.last_event != kNoEvent && prev.last_event != cur_event_) {
    AddDep(prev.last_event, DepKind::kCompletion, rule);
  }
}

void DepBuilder::Update(Cursor& c, Access access) {
  c.touched = true;
  switch (access) {
    case Access::kCreate:
      c.create_event = cur_event_;
      c.last_use_by_thread.clear();
      c.create_waiters.clear();
      break;
    case Access::kUse: {
      uint32_t thread = ThreadOf(cur_event_);
      bool found = false;
      for (auto& [t, use] : c.last_use_by_thread) {
        if (t == thread) {
          use = cur_event_;
          found = true;
          break;
        }
      }
      if (!found) {
        c.last_use_by_thread.push_back({thread, cur_event_});
      }
      break;
    }
    case Access::kDelete:
      break;
  }
  c.last_event = cur_event_;
}

std::vector<Dep>::iterator DepBuilder::LowerBound(uint32_t dep_event) {
  return std::lower_bound(scratch_.begin(), scratch_.end(), dep_event,
                          [](const Dep& d, uint32_t e) { return d.event < e; });
}

void DepBuilder::AddDep(uint32_t dep_event, DepKind kind, RuleTag rule) {
  ARTC_CHECK(dep_event < cur_event_);
  // A completion-dep on an earlier action of the same replay thread is
  // enforced structurally (threads play their actions in order): skip it.
  // Temporal issue-order deps are kept as-is.
  if (kind == DepKind::kCompletion && rule != RuleTag::kTemporal &&
      ThreadOf(dep_event) == ThreadOf(cur_event_)) {
    return;
  }
  // Scratch stays sorted by event, so dedup is an insertion-point check
  // instead of a scan over every dep added so far. Keep the stronger
  // kind on collision.
  auto it = LowerBound(dep_event);
  if (it != scratch_.end() && it->event == dep_event) {
    if (kind == DepKind::kCompletion && it->kind == DepKind::kIssue) {
      it->kind = kind;
    }
    return;
  }
  scratch_.insert(it, {dep_event, kind, rule, CompactRes(cur_touch_res_)});
  CountEdge(rule, dep_event);
}

uint32_t DepBuilder::CompactRes(uint32_t raw) {
  if (raw == kNoResource) {
    return kNoDepResource;
  }
  // Maps the annotator's per-generation resource id to a compact
  // attribution id shared by every generation of the same underlying name
  // (keyed by kind + ResourceInfo::name_id), materialising a human-readable
  // name on first use. Only resources that produce a materialised edge get
  // an entry, so the table stays proportional to the edge set.
  if (res_compact_.size() < resources_.size()) {
    res_compact_.resize(resources_.size(), 0);
  }
  if (res_compact_[raw] != 0) {
    return res_compact_[raw] - 1;
  }
  const fsmodel::ResourceInfo& info = resources_[raw];
  uint32_t compact;
  if (info.name_id != kNoResource) {
    // Share one id across generations of the same name.
    uint64_t key = (static_cast<uint64_t>(info.kind) << 32) | info.name_id;
    auto [it, inserted] = key_to_compact_.try_emplace(key, 0);
    if (inserted) {
      it->second = NewCompactName(info, raw);
    }
    compact = it->second;
  } else {
    compact = NewCompactName(info, raw);
  }
  res_compact_[raw] = compact + 1;
  return compact;
}

uint32_t DepBuilder::NewCompactName(const fsmodel::ResourceInfo& info,
                                    uint32_t raw) {
  std::string name;
  switch (info.kind) {
    case ResourceKind::kPath:
      if (path_names_ != nullptr && info.name_id != kNoResource) {
        name = std::string(path_names_->View(info.name_id));
      } else {
        name = StrFormat("path#%u", raw);
      }
      break;
    case ResourceKind::kFd:
      name = StrFormat("fd:%u", info.name_id);
      break;
    case ResourceKind::kFile:
      name = StrFormat("file#%u", info.name_id);
      break;
    case ResourceKind::kThread:
      name = StrFormat("thread:%u", info.name_id);
      break;
    case ResourceKind::kAiocb:
      name = StrFormat("aio:%u", info.name_id);
      break;
    case ResourceKind::kMutex:
      name = StrFormat("mutex:%u", info.name_id);
      break;
    case ResourceKind::kBarrier:
      name = StrFormat("barrier:%u", info.name_id);
      break;
    case ResourceKind::kCond:
      name = StrFormat("cond:%u", info.name_id);
      break;
    case ResourceKind::kProgram:
      name = "program";
      break;
  }
  if (name.empty()) {
    name = StrFormat("res#%u", raw);
  }
  names_->push_back(std::move(name));
  return static_cast<uint32_t>(names_->size() - 1);
}

void DepBuilder::AddInfraDep(uint32_t def_event) {
  if (def_event == kNoEvent || def_event >= cur_event_ ||
      ThreadOf(def_event) == ThreadOf(cur_event_)) {
    return;
  }
  auto it = LowerBound(def_event);
  if (it != scratch_.end() && it->event == def_event) {
    it->kind = DepKind::kCompletion;
    return;
  }
  scratch_.insert(it, {def_event, DepKind::kCompletion, RuleTag::kTemporal});
}

void DepBuilder::CountEdge(RuleTag rule, uint32_t dep_event) {
  size_t idx = static_cast<size_t>(rule);
  stats_->count_by_rule[idx]++;
  // Edge length: time between the two actions in the original trace.
  TimeNs len = meta_.enter[cur_event_] - meta_.enter[dep_event];
  stats_->total_length_ns[idx] += static_cast<double>(len);
}

uint32_t DepPruner::PruneEvent(uint32_t i, uint32_t ti, Dep* deps,
                               uint32_t count) {
  ARTC_CHECK(row_of_.size() == i);
  if (cur_row_.size() <= ti) {
    cur_row_.resize(ti + 1, 0);
  }
  bool merges = false;
  for (uint32_t j = 0; j < count && !merges; ++j) {
    merges = deps[j].kind == DepKind::kCompletion;
  }
  if (!merges) {
    // Issue deps are never pruned (only completion deps can be implied)
    // and don't advance the completion clock: keep them and move on.
    row_of_.push_back(cur_row_[ti]);
    return count;
  }
  // cur_row_[ti] is the clock of i's same-thread predecessor p: cross-
  // thread entries only change at merge events, and the latest one on ti
  // is at or before p. If i is the first event on ti this is row 0 (all
  // zeros), which correctly implies nothing.
  const uint32_t pred = cur_row_[ti];
  const uint32_t width = static_cast<uint32_t>(cur_row_.size());
  const uint32_t nr_id = static_cast<uint32_t>(row_off_.size());
  const uint32_t nr_off = static_cast<uint32_t>(rows_.size());
  rows_.resize(rows_.size() + width);
  row_off_.push_back(nr_off);
  row_width_.push_back(width);
  for (uint32_t t = 0; t < width; ++t) {
    rows_[nr_off + t] = RowVal(pred, t);
  }
  uint32_t write = 0;
  for (uint32_t j = 0; j < count; ++j) {
    const Dep d = deps[j];
    if (d.kind != DepKind::kCompletion) {
      deps[write++] = d;
      continue;
    }
    // Materialised completion deps are always cross-thread (same-thread
    // ones are skipped at emission), so td != ti here. The implied-ness
    // test runs against the *pristine* predecessor clock, never the row
    // being accumulated: sibling deps must not imply each other.
    const uint32_t td = meta_.thread_index[d.event];
    if (RowVal(pred, td) >= d.event + 1) {
      stats_->pruned_by_rule[static_cast<size_t>(d.rule)]++;
    } else {
      deps[write++] = d;
    }
    // Whether kept or implied, d is complete before i issues: merge its
    // completion clock (row entries plus its implicit own entry).
    const uint32_t dr = row_of_[d.event];
    const uint32_t dw = row_width_[dr];
    const uint32_t dr_off = row_off_[dr];
    for (uint32_t t = 0; t < dw; ++t) {
      rows_[nr_off + t] = std::max(rows_[nr_off + t], rows_[dr_off + t]);
    }
    rows_[nr_off + td] = std::max(rows_[nr_off + td], d.event + 1);
  }
  cur_row_[ti] = nr_id;
  row_of_.push_back(nr_id);
  return write;
}

uint64_t DepBuilder::state_bytes() const {
  uint64_t n = cursors_.capacity() * sizeof(Cursor) +
               res_compact_.capacity() * sizeof(uint32_t) +
               key_to_compact_.size() * (sizeof(uint64_t) + sizeof(uint32_t)) +
               scratch_.capacity() * sizeof(Dep);
  for (const Cursor& c : cursors_) {
    n += c.last_use_by_thread.capacity() * sizeof(std::pair<uint32_t, uint32_t>) +
         c.create_waiters.capacity() * sizeof(uint32_t);
  }
  return n;
}

CompileStep::CompileStep(const CompileOptions& options,
                         const std::vector<fsmodel::ResourceInfo>& resources,
                         const util::StringInterner* path_names,
                         CompiledBenchmark* tables)
    : method_(options.method),
      modes_(options.modes),
      resources_(resources),
      tables_(tables),
      builder_(resources, path_names, meta_, &tables->dep_resource_names,
               &tables->edge_stats) {
  if (method_ == ReplayMethod::kSingleThreaded) {
    tables_->thread_ids.push_back(0);
  }
  if (method_ == ReplayMethod::kArtc && options.prune_redundant_deps) {
    pruner_.emplace(meta_, &tables->edge_stats);
  }
}

void CompileStep::Reserve(size_t events) {
  meta_.thread_index.reserve(events);
  meta_.enter.reserve(events);
  meta_.ret_time.reserve(events);
}

uint32_t CompileStep::ThreadIndex(uint32_t tid) {
  if (method_ == ReplayMethod::kSingleThreaded) {
    return 0;
  }
  uint32_t* slot = nullptr;
  if (tid < kFlatTidLimit) {
    if (tid_flat_.size() <= tid) {
      tid_flat_.resize(tid + 1, 0);
    }
    slot = &tid_flat_[tid];
  } else {
    slot = &tid_overflow_[tid];
  }
  if (*slot == 0) {
    *slot = static_cast<uint32_t>(tables_->thread_ids.size()) + 1;
    tables_->thread_ids.push_back(tid);
  }
  return *slot - 1;
}

// Numbers the resources that appeared since the last event. Ids are dense
// and assigned in order, so numbering [slots_assigned_, size) as they
// appear gives every fd/aio generation the slot an upfront id-order scan
// would.
void CompileStep::AssignSlots() {
  if (resources_.size() == slots_assigned_) {
    return;
  }
  fd_slots_.resize(resources_.size(), -1);
  aio_slots_.resize(resources_.size(), -1);
  for (size_t r = slots_assigned_; r < resources_.size(); ++r) {
    if (resources_[r].kind == ResourceKind::kFd) {
      fd_slots_[r] = static_cast<int32_t>(tables_->fd_slot_count++);
    } else if (resources_[r].kind == ResourceKind::kAiocb) {
      aio_slots_[r] = static_cast<int32_t>(tables_->aio_slot_count++);
    }
  }
  slots_assigned_ = resources_.size();
}

CompiledAction CompileStep::Push(const trace::TraceEvent& ev,
                                 const std::vector<fsmodel::Touch>& touches) {
  const uint32_t i = static_cast<uint32_t>(meta_.size());
  if (i == 0) {
    trace_start_ = ev.enter;
  }
  CompiledAction a;
  const uint32_t ti = ThreadIndex(ev.tid);
  a.thread_index = ti;
  meta_.Push(ti, ev);
  if (last_ret_by_thread_.size() <= ti) {
    last_ret_by_thread_.resize(ti + 1, trace_start_);
  }
  a.predelay = std::max<TimeNs>(0, ev.enter - last_ret_by_thread_[ti]);
  last_ret_by_thread_[ti] = ev.ret_time;

  AssignSlots();
  // Each touch yields at most one dep plus the create edge; a little
  // headroom avoids regrowth on delete events with many outstanding uses.
  builder_.BeginEvent(i, touches.size() + 2);
  for (const fsmodel::Touch& touch : touches) {
    const ResourceKind kind = resources_[touch.resource].kind;
    if (kind == ResourceKind::kFd) {
      if (touch.access == Access::kCreate) {
        a.fd_def_slot = fd_slots_[touch.resource];
      } else if (a.fd_use_slot < 0) {
        a.fd_use_slot = fd_slots_[touch.resource];
      }
    } else if (kind == ResourceKind::kAiocb) {
      if (touch.access == Access::kCreate) {
        a.aio_def_slot = aio_slots_[touch.resource];
      } else if (a.aio_use_slot < 0) {
        a.aio_use_slot = aio_slots_[touch.resource];
      }
    }
    if (method_ == ReplayMethod::kArtc) {
      builder_.ArtcTouch(touch, modes_);
    }
  }
  std::vector<Dep>& deps = builder_.deps();
  a.predelay = RefinePredelay(ev.enter, a.predelay, deps, meta_);
  if (pruner_) {
    deps.resize(pruner_->PruneEvent(i, ti, deps.data(),
                                    static_cast<uint32_t>(deps.size())));
  }
  return a;
}

uint64_t CompileStep::state_bytes() const {
  uint64_t bytes =
      meta_.thread_index.capacity() * sizeof(uint32_t) +
      (meta_.enter.capacity() + meta_.ret_time.capacity()) * sizeof(TimeNs);
  bytes += builder_.state_bytes();
  if (pruner_) {
    bytes += pruner_->state_bytes();
  }
  for (const std::string& s : tables_->dep_resource_names) {
    bytes += sizeof(std::string) + s.capacity();
  }
  bytes += (tid_flat_.capacity() + tables_->thread_ids.capacity()) *
               sizeof(uint32_t) +
           last_ret_by_thread_.capacity() * sizeof(TimeNs) +
           (fd_slots_.capacity() + aio_slots_.capacity()) * sizeof(int32_t);
  return bytes;
}

}  // namespace artc::core::internal
