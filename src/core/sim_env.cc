#include "src/core/sim_env.h"

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::core {

using trace::Sys;
using vfs::VfsResult;

namespace {
// Power of two so the per-wait / per-notify stripe lookup is a mask, not a
// division — this runs once per dependency edge and twice per action.
constexpr size_t kStripeCount = 512;
static_assert((kStripeCount & (kStripeCount - 1)) == 0);
}  // namespace

struct SimReplayEnv::AioOp {
  sim::SimThreadId thread = sim::kInvalidThread;
  int64_t result = 0;
  bool finished = false;
};

SimReplayEnv::SimReplayEnv(sim::Simulation* simulation, vfs::Vfs* fs,
                           EmulationPolicy policy)
    : sim_(simulation), fs_(fs), policy_(std::move(policy)) {
  stripes_.reserve(kStripeCount);  // the table's one allocation
  for (size_t i = 0; i < kStripeCount; ++i) {
    stripes_.emplace_back(sim_);
  }
  stripe_mask_ = static_cast<uint32_t>(kStripeCount - 1);
}

SimReplayEnv::~SimReplayEnv() = default;

void SimReplayEnv::RunThreads(size_t n, std::function<void(size_t)> body) {
  std::vector<sim::SimThreadId> tids;
  tids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tids.push_back(sim_->Spawn(StrFormat("replay-%zu", i), [body, i] { body(i); }));
  }
  for (sim::SimThreadId tid : tids) {
    sim_->Join(tid);
  }
}

void SimReplayEnv::Initialize(const trace::FsSnapshot& snapshot, bool delta) {
  if (!policy_.dev_random_symlink || policy_.target_os == "osx") {
    fs_->RestoreSnapshot(snapshot, delta);
    return;
  }
  // Replace /dev/random with a symlink to /dev/urandom so replays on Linux
  // are not throttled by the entropy pool (paper Sec. 5.1).
  trace::FsSnapshot patched = snapshot;
  bool saw_random = false;
  for (trace::SnapshotEntry& e : patched.entries) {
    if (e.path == "/dev/random" && e.type == trace::SnapshotEntryType::kSpecial) {
      e.type = trace::SnapshotEntryType::kSymlink;
      e.symlink_target = "/dev/urandom";
      saw_random = true;
    }
  }
  if (saw_random && patched.Find("/dev/urandom") == nullptr) {
    patched.AddSpecial("/dev/urandom", "urandom");
    patched.Canonicalize();
  }
  fs_->RestoreSnapshot(patched, delta);
}

int64_t SimReplayEnv::AioSubmit(const trace::TraceEvent& ev, const ExecContext& ctx,
                                bool is_write) {
  int64_t handle = next_aio_handle_++;
  auto op = std::make_unique<AioOp>();
  AioOp* raw = op.get();
  int32_t fd = ctx.fd;
  uint64_t size = ev.size;
  int64_t offset = ev.offset >= 0 ? ev.offset : 0;
  raw->thread = sim_->Spawn("aio", [this, raw, fd, size, offset, is_write] {
    VfsResult r = is_write ? fs_->Pwrite(fd, size, offset) : fs_->Pread(fd, size, offset);
    raw->result = r.TraceRet();
    raw->finished = true;
  });
  aio_ops_[handle] = std::move(op);
  sim_->Sleep(Us(2));  // submission cost
  return handle;
}

int64_t SimReplayEnv::AioWait(int64_t handle, bool consume) {
  auto it = aio_ops_.find(handle);
  if (it == aio_ops_.end()) {
    return -trace::kEINVAL;
  }
  AioOp* op = it->second.get();
  sim_->Join(op->thread);
  int64_t result = op->result;
  if (consume) {
    aio_ops_.erase(it);
  }
  return result;
}

int64_t SimReplayEnv::Execute(const trace::TraceEvent& ev, const ExecContext& ctx) {
  Sys call = ev.call;
  EmulationRule rule = GetEmulationRule(call, policy_.target_os);
  if (rule.action == EmulationAction::kIgnore) {
    sim_->Sleep(Us(1));
    return 0;
  }
  if (rule.action == EmulationAction::kSubstitute) {
    call = rule.substitute;
  }
  if (rule.action == EmulationAction::kSequence && call == Sys::kExchangeData) {
    // link(a, tmp); rename(b, a); rename(tmp, b) — the paper's emulation of
    // the atomic swap on platforms without exchangedata.
    std::string tmp = StrFormat("%s.artc_xchg.%llu", ev.path.c_str(),
                                static_cast<unsigned long long>(exchange_tmp_counter_++));
    VfsResult l = fs_->Link(ev.path.str(), tmp);
    if (!l.ok()) {
      return l.TraceRet();
    }
    VfsResult r1 = fs_->Rename(ev.path2.str(), ev.path.str());
    if (!r1.ok()) {
      fs_->Unlink(tmp);
      return r1.TraceRet();
    }
    VfsResult r2 = fs_->Rename(tmp, ev.path2.str());
    return r2.TraceRet();
  }

  uint32_t open_flags = ev.flags;
  switch (call) {
    case Sys::kOpen:
    case Sys::kOpenAt:
    case Sys::kShmOpen:
      if (policy_.relax_excl_on_anomaly && ev.ret >= 0 && (ev.flags & trace::kOpenExcl)) {
        // The compiler flagged successful O_EXCL creates over bound paths as
        // trace anomalies; replay them without O_EXCL so they succeed.
        open_flags &= ~trace::kOpenExcl;
      }
      return fs_->Open(ev.path.str(), open_flags, ev.mode != 0 ? ev.mode : 0644).TraceRet();
    case Sys::kCreat:
      return fs_->Open(ev.path.str(), trace::kOpenWrite | trace::kOpenCreate | trace::kOpenTrunc,
                       ev.mode != 0 ? ev.mode : 0644)
          .TraceRet();
    case Sys::kClose:
      return fs_->Close(ctx.fd).TraceRet();
    case Sys::kDup:
      return fs_->Dup(ctx.fd).TraceRet();
    case Sys::kDup2:
      // Replayed as dup: the engine's slot table does the number remapping.
      return fs_->Dup(ctx.fd).TraceRet();
    case Sys::kRead:
    case Sys::kReadV:
      return fs_->Read(ctx.fd, ev.size).TraceRet();
    case Sys::kPRead:
    case Sys::kPReadV:
      return fs_->Pread(ctx.fd, ev.size, ev.offset).TraceRet();
    case Sys::kWrite:
    case Sys::kWriteV:
      return fs_->Write(ctx.fd, ev.size).TraceRet();
    case Sys::kPWrite:
    case Sys::kPWriteV:
      return fs_->Pwrite(ctx.fd, ev.size, ev.offset).TraceRet();
    case Sys::kLSeek:
      return fs_->Lseek(ctx.fd, ev.offset, ev.whence).TraceRet();
    case Sys::kSendFile:
    case Sys::kCopyFileRange:
      return fs_->Read(ctx.fd, ev.size).TraceRet();
    case Sys::kMmap:
      // File-backed mmap: model as a read of the mapped range.
      if (ctx.fd >= 0 && ev.size > 0) {
        fs_->Pread(ctx.fd, ev.size, ev.offset >= 0 ? ev.offset : 0);
      }
      return 0;
    case Sys::kMunmap:
    case Sys::kMadvise:
    case Sys::kUmask:
    case Sys::kChdir:
    case Sys::kFchdir:
    case Sys::kGetCwd:
    case Sys::kFlock:
    case Sys::kFcntl:
    case Sys::kIoctl:
    case Sys::kMknod:
    case Sys::kLioListio:
      sim_->Sleep(Us(1));
      return 0;
    case Sys::kMsync:
    case Sys::kSyncFileRange:
    case Sys::kFdatasync:
      return fs_->Fdatasync(ctx.fd).TraceRet();
    case Sys::kFsync: {
      switch (policy_.fsync) {
        case FsyncEmulation::kDurable:
          return fs_->FullFsync(ctx.fd).TraceRet();
        case FsyncEmulation::kFlushOnly:
          return fs_->Fdatasync(ctx.fd).TraceRet();
        case FsyncEmulation::kTargetDefault:
          return fs_->Fsync(ctx.fd).TraceRet();
      }
      return fs_->Fsync(ctx.fd).TraceRet();
    }
    case Sys::kFcntlFullFsync:
      return fs_->FullFsync(ctx.fd).TraceRet();
    case Sys::kSync:
      return fs_->SyncAll().TraceRet();
    case Sys::kStat:
    case Sys::kFstatAt: {
      VfsResult r = fs_->Stat(ev.path.str());
      return r.ok() ? 0 : r.TraceRet();
    }
    case Sys::kLstat: {
      VfsResult r = fs_->Lstat(ev.path.str());
      return r.ok() ? 0 : r.TraceRet();
    }
    case Sys::kFstat: {
      VfsResult r = fs_->Fstat(ctx.fd);
      return r.ok() ? 0 : r.TraceRet();
    }
    case Sys::kAccess:
    case Sys::kFaccessAt:
      return fs_->Access(ev.path.str()).TraceRet();
    case Sys::kStatFs:
      return fs_->StatFs(ev.path.str()).TraceRet();
    case Sys::kFstatFs:
      return fs_->Fstat(ctx.fd).ok() ? 0 : -trace::kEBADF;
    case Sys::kChmod:
      return fs_->Chmod(ev.path.str(), ev.mode).TraceRet();
    case Sys::kFchmod:
      return fs_->Fstat(ctx.fd).ok() ? 0 : -trace::kEBADF;
    case Sys::kChown:
    case Sys::kLchown:
      return fs_->Chmod(ev.path.str(), 0).TraceRet();
    case Sys::kFchown:
    case Sys::kFutimes:
      return fs_->Fstat(ctx.fd).ok() ? 0 : -trace::kEBADF;
    case Sys::kUtimes:
      return fs_->Utimes(ev.path.str()).TraceRet();
    case Sys::kTruncate:
      return fs_->Truncate(ev.path.str(), ev.size).TraceRet();
    case Sys::kFtruncate:
      return fs_->Ftruncate(ctx.fd, ev.size).TraceRet();
    case Sys::kMkdir:
    case Sys::kMkdirAt:
      return fs_->Mkdir(ev.path.str(), ev.mode != 0 ? ev.mode : 0755).TraceRet();
    case Sys::kRmdir:
      return fs_->Rmdir(ev.path.str()).TraceRet();
    case Sys::kUnlink:
    case Sys::kUnlinkAt:
    case Sys::kShmUnlink:
      return fs_->Unlink(ev.path.str()).TraceRet();
    case Sys::kRename:
    case Sys::kRenameAt:
      return fs_->Rename(ev.path.str(), ev.path2.str()).TraceRet();
    case Sys::kLink:
    case Sys::kLinkAt:
      return fs_->Link(ev.path.str(), ev.path2.str()).TraceRet();
    case Sys::kSymlink:
    case Sys::kSymlinkAt:
      return fs_->Symlink(ev.path.str(), ev.path2.str()).TraceRet();
    case Sys::kReadlink:
    case Sys::kReadlinkAt:
      return fs_->Readlink(ev.path.str()).TraceRet();
    case Sys::kGetDirEntries:
    case Sys::kGetDents: {
      VfsResult r = fs_->GetDirEntries(ctx.fd, ev.size);
      return r.TraceRet();
    }
    case Sys::kGetXattr:
      return fs_->GetXattr(ev.path.str(), ev.name.str()).TraceRet();
    case Sys::kLGetXattr:
      return fs_->GetXattr(ev.path.str(), ev.name.str()).TraceRet();
    case Sys::kFGetXattr:
      return fs_->FGetXattr(ctx.fd, ev.name.str()).TraceRet();
    case Sys::kSetXattr:
    case Sys::kLSetXattr:
      return fs_->SetXattr(ev.path.str(), ev.name.str(), ev.size).TraceRet();
    case Sys::kFSetXattr:
      return fs_->FSetXattr(ctx.fd, ev.name.str(), ev.size).TraceRet();
    case Sys::kListXattr:
    case Sys::kLListXattr:
      return fs_->ListXattr(ev.path.str()).TraceRet();
    case Sys::kFListXattr:
      return fs_->Fstat(ctx.fd).ok() ? 0 : -trace::kEBADF;
    case Sys::kRemoveXattr:
    case Sys::kLRemoveXattr:
      return fs_->RemoveXattr(ev.path.str(), ev.name.str()).TraceRet();
    case Sys::kFRemoveXattr:
      return fs_->Fstat(ctx.fd).ok() ? 0 : -trace::kEBADF;
    case Sys::kFadvise:
    case Sys::kFcntlRdAdvise:
    case Sys::kReadahead:
      return fs_->Fadvise(ctx.fd, ev.offset >= 0 ? ev.offset : 0, ev.size).TraceRet();
    case Sys::kFallocate:
    case Sys::kFcntlPreallocate:
      return fs_->Fallocate(ctx.fd, ev.offset >= 0 ? ev.offset : 0, ev.size).TraceRet();
    case Sys::kFcntlNoCache:
      sim_->Sleep(Us(1));
      return 0;
    case Sys::kExchangeData:
      return fs_->ExchangeData(ev.path.str(), ev.path2.str()).TraceRet();
    case Sys::kAioRead:
      return AioSubmit(ev, ctx, /*is_write=*/false);
    case Sys::kAioWrite:
      return AioSubmit(ev, ctx, /*is_write=*/true);
    case Sys::kAioError: {
      auto it = aio_ops_.find(ctx.aio);
      sim_->Sleep(Us(1));
      if (it == aio_ops_.end()) {
        return -trace::kEINVAL;
      }
      return 0;  // 0 == completed or in progress; callers follow with return
    }
    case Sys::kAioSuspend:
      return AioWait(ctx.aio, /*consume=*/false) >= 0 ? 0 : -trace::kEINVAL;
    case Sys::kAioCancel:
      sim_->Sleep(Us(1));
      return 0;
    case Sys::kAioReturn:
      return AioWait(ctx.aio, /*consume=*/true);
    default:
      sim_->Sleep(Us(1));
      return 0;
  }
}

}  // namespace artc::core
