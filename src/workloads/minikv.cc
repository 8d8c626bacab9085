#include "src/workloads/minikv.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::workloads {

using trace::kOpenAppend;
using trace::kOpenCreate;
using trace::kOpenRead;
using trace::kOpenWrite;

MiniKv::MiniKv(AppContext* ctx, Options options)
    : ctx_(ctx), opt_(std::move(options)),
      value_size_padded_(((opt_.value_size + 16 + 63) / 64) * 64),
      mu_(std::make_unique<sim::SimMutex>(ctx->sim)),
      cv_(std::make_unique<sim::SimCondVar>(ctx->sim)) {}

MiniKv::~MiniKv() = default;

void MiniKv::Open() {
  vfs::Vfs& fs = *ctx_->fs;
  if (!fs.Exists(opt_.dir)) {
    fs.Mkdir(opt_.dir);
  }
  // Discover existing runs via the manifest directory scan.
  vfs::VfsResult d = fs.Open(opt_.dir, kOpenRead);
  if (d.ok()) {
    fs.GetDirEntries(static_cast<int32_t>(d.value), 4096);
    fs.Close(static_cast<int32_t>(d.value));
  }
  for (uint32_t i = 0;; ++i) {
    std::string path = StrFormat("%s/run_%u", opt_.dir.c_str(), i);
    vfs::VfsResult st = fs.Stat(path);
    if (!st.ok()) {
      break;
    }
    Run run;
    run.path = path;
    // Layout: one 4 KB index block, then fixed-size records.
    uint64_t size = static_cast<uint64_t>(st.value);
    run.records = size > 4096 ? (size - 4096) / RecordSize() : 0;
    vfs::VfsResult o = fs.Open(path, kOpenRead);
    ARTC_CHECK(o.ok());
    run.fd = static_cast<int32_t>(o.value);
    runs_.push_back(run);
  }
  for (size_t i = 0; i < runs_.size(); ++i) {
    runs_[i].modulus = static_cast<uint32_t>(runs_.size());
    runs_[i].index = static_cast<uint32_t>(i);
  }
  next_flush_id_ = static_cast<uint32_t>(runs_.size());
  // WAL.
  std::string wal = opt_.dir + "/wal.log";
  vfs::VfsResult w = fs.Open(wal, kOpenWrite | kOpenCreate | kOpenAppend);
  ARTC_CHECK(w.ok());
  wal_fd_ = static_cast<int32_t>(w.value);
  wal_offset_ = fs.FileSize(wal);
}

void MiniKv::Close() {
  vfs::Vfs& fs = *ctx_->fs;
  if (wal_fd_ >= 0) {
    fs.Fsync(wal_fd_);
    fs.Close(wal_fd_);
    wal_fd_ = -1;
  }
  for (Run& run : runs_) {
    if (run.fd >= 0) {
      fs.Close(run.fd);
      run.fd = -1;
    }
  }
}

void MiniKv::WriteBatch(std::vector<Waiter*>& batch) {
  vfs::Vfs& fs = *ctx_->fs;
  uint64_t bytes = batch.size() * RecordSize();
  fs.Write(wal_fd_, bytes);
  wal_offset_ += bytes;
  if (opt_.sync_writes) {
    fs.Fsync(wal_fd_);
  }
  for (Waiter* w : batch) {
    memtable_[w->key] = true;
    memtable_bytes_ += RecordSize();
    w->applied = true;
  }
  if (memtable_bytes_ >= opt_.memtable_limit_bytes) {
    FlushMemtable();
  }
}

void MiniKv::FlushMemtable() {
  // Called with mu_ held by the current writer.
  vfs::Vfs& fs = *ctx_->fs;
  std::string path = StrFormat("%s/flush_%u", opt_.dir.c_str(), next_flush_id_++);
  vfs::VfsResult o = fs.Open(path, kOpenWrite | kOpenCreate);
  if (!o.ok()) {
    return;
  }
  int32_t fd = static_cast<int32_t>(o.value);
  uint64_t bytes = memtable_.size() * RecordSize();
  // Sorted dump in large sequential writes.
  uint64_t written = 0;
  while (written < bytes) {
    uint64_t chunk = std::min<uint64_t>(bytes - written, 1 << 20);
    fs.Write(fd, chunk);
    written += chunk;
  }
  fs.Fsync(fd);
  fs.Close(fd);
  memtable_.clear();
  memtable_bytes_ = 0;
  // The WAL can be truncated once the memtable is durable.
  fs.Ftruncate(wal_fd_, 0);
  wal_offset_ = 0;
}

void MiniKv::Put(uint64_t key) {
  Waiter self;
  self.key = key;
  mu_->Lock();
  writers_.push_back(&self);
  // Wait until applied by some batch writer, or until we are the front.
  // SimCondVar has no attached mutex, so the monitor discipline is explicit:
  // unlock, wait, relock. Simulated threads only yield at blocking points,
  // so no wakeup can be lost between Unlock() and Wait(). writer_active_
  // goes first: the active writer took the whole queue, which may be empty.
  while (!self.applied && (writer_active_ || writers_.front() != &self)) {
    mu_->Unlock();
    cv_->Wait();
    mu_->Lock();
  }
  if (!self.applied) {
    // We are the designated writer: take the whole queue (everything that
    // accumulated while the previous writer was busy) as one batch. The
    // writer_active_ flag keeps the hand-off discipline: at most one thread
    // is in WriteBatch at a time, exactly like LevelDB's write queue.
    writer_active_ = true;
    std::vector<Waiter*> batch(writers_.begin(), writers_.end());
    writers_.clear();
    mu_->Unlock();
    WriteBatch(batch);
    mu_->Lock();
    writer_active_ = false;
    cv_->NotifyAll();
  }
  puts_++;
  mu_->Unlock();
}

bool MiniKv::Get(uint64_t key) {
  vfs::Vfs& fs = *ctx_->fs;
  mu_->Lock();
  bool in_mem = memtable_.count(key) != 0;
  size_t nruns = runs_.size();
  mu_->Unlock();
  gets_++;
  if (in_mem) {
    ctx_->Compute(Us(1));
    return true;
  }
  if (nruns == 0) {
    return false;
  }
  // Key k lives in run (k % nruns) at slot (k / nruns): one index probe
  // (usually cached) plus one data-block pread.
  Run& run = runs_[key % nruns];
  uint64_t slot = key / nruns;
  if (slot >= run.records) {
    return false;
  }
  // Index block at the head of the run file.
  fs.Pread(run.fd, 4096, 0);
  uint64_t offset = 4096 + slot * RecordSize();
  fs.Pread(run.fd, RecordSize(), static_cast<int64_t>(offset));
  return true;
}

void MiniKv::BuildDatabase(vfs::Vfs& fs, const std::string& dir, uint32_t tables,
                           uint64_t keys_per_table, uint32_t value_size) {
  uint32_t record = ((value_size + 16 + 63) / 64) * 64;
  fs.MustMkdirAll(dir);
  for (uint32_t r = 0; r < tables; ++r) {
    fs.MustCreateFile(StrFormat("%s/run_%u", dir.c_str(), r),
                      4096 + keys_per_table * record);
  }
}

void KvFillSync::Setup(vfs::Vfs& fs) { fs.MustMkdirAll("/db"); }

void KvFillSync::Run(AppContext& ctx) {
  MiniKv::Options kv_opt;
  kv_opt.value_size = opt_.value_size;
  kv_opt.sync_writes = true;
  MiniKv kv(&ctx, kv_opt);
  kv.Open();
  std::vector<sim::SimThreadId> threads;
  for (uint32_t t = 0; t < opt_.threads; ++t) {
    Rng rng = ctx.rng().Fork();
    threads.push_back(ctx.Spawn(StrFormat("fill-%u", t), [this, &ctx, &kv, rng]() mutable {
      for (uint32_t i = 0; i < opt_.puts_per_thread; ++i) {
        kv.Put(rng.Next());
        if (opt_.compute_per_op > 0) {
          ctx.Compute(opt_.compute_per_op);
        }
      }
    }));
  }
  for (sim::SimThreadId t : threads) {
    ctx.Join(t);
  }
  kv.Close();
}

void KvReadRandom::Setup(vfs::Vfs& fs) {
  MiniKv::BuildDatabase(fs, "/db", opt_.tables, opt_.keys_per_table, opt_.value_size);
}

void KvReadRandom::Run(AppContext& ctx) {
  MiniKv::Options kv_opt;
  kv_opt.value_size = opt_.value_size;
  MiniKv kv(&ctx, kv_opt);
  kv.Open();
  const uint64_t key_space = static_cast<uint64_t>(opt_.tables) * opt_.keys_per_table;
  std::vector<sim::SimThreadId> threads;
  for (uint32_t t = 0; t < opt_.threads; ++t) {
    Rng rng = ctx.rng().Fork();
    threads.push_back(
        ctx.Spawn(StrFormat("read-%u", t), [this, &ctx, &kv, key_space, rng]() mutable {
          for (uint32_t i = 0; i < opt_.gets_per_thread; ++i) {
            kv.Get(rng.NextBelow(key_space));
            if (opt_.compute_per_op > 0) {
              ctx.Compute(opt_.compute_per_op);
            }
          }
        }));
  }
  for (sim::SimThreadId t : threads) {
    ctx.Join(t);
  }
  kv.Close();
}

}  // namespace artc::workloads
