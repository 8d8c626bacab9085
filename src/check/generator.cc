#include "src/check/generator.h"

#include <utility>
#include <vector>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/syscalls.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/vfs/vfs.h"

namespace artc::check {
namespace {

using trace::kOpenAppend;
using trace::kOpenCreate;
using trace::kOpenExcl;
using trace::kOpenRead;
using trace::kOpenTrunc;
using trace::kOpenWrite;

constexpr uint32_t kFlagSets[] = {
    kOpenRead,
    kOpenWrite | kOpenCreate,
    kOpenRead | kOpenWrite | kOpenCreate,
    kOpenWrite | kOpenCreate | kOpenExcl,
    kOpenWrite | kOpenCreate | kOpenTrunc,
    kOpenWrite | kOpenCreate | kOpenAppend,
};

// The namespace: "/d0", "/d1", each holding "f0".."f2", half of all files
// pre-bound in the snapshot.
constexpr uint32_t kDirs = 2;
constexpr uint32_t kFilesPerDir = 3;

struct PathPools {
  std::vector<std::string> files;   // open/read/write/unlink/rename/link targets
  std::vector<std::string> dirish;  // mkdir/rmdir targets (collide with files)
};

struct OwnedFd {
  int32_t fd;
  uint32_t flags;
};

// Traced identities of the generator's sync objects. Arbitrary but stable:
// repro bundles and failure messages name them by these values.
constexpr uint64_t kMutexIdBase = 0x4d00;  // pool mutex i = base + i
constexpr uint64_t kBarrierId = 0xba00;
constexpr uint64_t kCondId = 0xc0d0;
constexpr uint64_t kCondMutexId = 0x4dff;  // guards the condvar queue

// Shared state of the sync workload; lives on the harness thread's stack
// for the duration of the worker threads.
struct SyncWorld {
  sim::Simulation* sim;
  vfs::TraceRecorder* recorder;
  std::vector<std::unique_ptr<sim::SimMutex>> pool;
  std::unique_ptr<sim::SimBarrier> barrier;
  std::unique_ptr<sim::SimMutex> q_mu;
  std::unique_ptr<sim::SimCondVar> q_cv;
  uint32_t queue = 0;  // condvar handoff: items produced, not yet consumed
  uint32_t producers_left = 0;
  bool done = false;

  // Records one sync event at the current instant (see generator.h on why
  // zero-width windows stay ordered).
  void Record(trace::Sys call, uint64_t sync_id, uint64_t size = 0) {
    trace::TraceEvent ev;
    ev.call = call;
    ev.tid = sim->CurrentThread();
    ev.enter = sim->Now();
    ev.ret_time = sim->Now();
    ev.ret = 0;
    ev.sync_id = sync_id;
    ev.size = size;
    recorder->Record(std::move(ev));
  }

  // Grant-time recording: the lock event's enter is the instant Lock()
  // returned; the unlock is recorded while still holding, so the next
  // grant's record can never sort ahead of it.
  void Lock(sim::SimMutex& m, uint64_t id) {
    m.Lock();
    Record(trace::Sys::kMutexLock, id);
  }
  void Unlock(sim::SimMutex& m, uint64_t id) {
    Record(trace::Sys::kMutexUnlock, id);
    m.Unlock();
  }
  void BarrierWait() {
    Record(trace::Sys::kBarrierWait, kBarrierId);  // enter = arrival
    barrier->Wait();
  }
};

// One worker's op stream. Every op body runs under `mu`, so recorded call
// windows never overlap across threads (see generator.h).
void WorkerBody(vfs::Vfs& fs, sim::Simulation& sim, sim::SimMutex& mu,
                const PathPools& pools, const GenOptions& opt, Rng rng,
                SyncWorld* sw, uint32_t worker_index) {
  std::vector<OwnedFd> fds;

  auto pick_fd = [&](uint32_t need_flags) -> int32_t {
    std::vector<size_t> eligible;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].flags & need_flags) == need_flags) {
        eligible.push_back(i);
      }
    }
    if (eligible.empty()) {
      return -1;
    }
    return fds[eligible[rng.NextBelow(eligible.size())]].fd;
  };
  auto file_path = [&] { return pools.files[rng.NextBelow(pools.files.size())]; };
  auto dir_path = [&] { return pools.dirish[rng.NextBelow(pools.dirish.size())]; };

  // Barrier rendezvous spots, identical for every worker so arrivals always
  // balance (a worker that stopped arriving would deadlock the rest).
  uint32_t phases_done = 0;
  const uint32_t barrier_every =
      sw != nullptr && opt.barrier_phases > 0
          ? std::max(1u, opt.ops_per_thread / opt.barrier_phases)
          : 0;

  for (uint32_t k = 0; k < opt.ops_per_thread; ++k) {
    sim.Sleep(Us(1 + rng.NextBelow(40)));
    if (sw != nullptr) {
      if (barrier_every != 0 && (k + 1) % barrier_every == 0 &&
          phases_done < opt.barrier_phases) {
        sw->BarrierWait();
        phases_done++;
      }
      uint32_t sync_dice = rng.NextBelow(100);
      if (sync_dice < 25 && !sw->pool.empty()) {
        // Contended critical section: a pool mutex held across virtual
        // time and one traced fs op. Acquired OUTSIDE the global op mutex
        // (lock order pool -> global, everywhere) so a holder parked in
        // virtual time never deadlocks the op stream.
        size_t mi = rng.NextBelow(sw->pool.size());
        sw->Lock(*sw->pool[mi], kMutexIdBase + mi);
        sim.Sleep(Us(1 + rng.NextBelow(20)));
        {
          sim::SimLockGuard guard(mu);
          fs.Stat(pools.files[rng.NextBelow(pools.files.size())]);
        }
        sw->Unlock(*sw->pool[mi], kMutexIdBase + mi);
        continue;
      }
      if (sync_dice < 31) {
        // Spawn a child that runs a couple of traced ops, then join it:
        // the join's grant instant is the child's exit.
        Rng child_rng = rng.Fork();
        sim::SimThreadId child = sim.Spawn(
            StrFormat("gen-%u-child-%u", worker_index, k), [&, child_rng]() mutable {
              sim.Sleep(Us(1 + child_rng.NextBelow(25)));
              {
                sim::SimLockGuard guard(mu);
                fs.Stat(pools.files[child_rng.NextBelow(pools.files.size())]);
              }
              sim.Sleep(Us(1 + child_rng.NextBelow(25)));
              {
                sim::SimLockGuard guard(mu);
                fs.Open(pools.files[child_rng.NextBelow(pools.files.size())],
                        kOpenRead);
              }
            });
        sim.Join(child);
        sw->Record(trace::Sys::kThreadJoin, child);
        continue;
      }
    }
    sim::SimLockGuard guard(mu);
    uint32_t dice = rng.NextBelow(100);
    uint64_t count = 1 + rng.NextBelow(8192);
    int64_t offset = static_cast<int64_t>(rng.NextBelow(16384));

    if (dice < 12 && !fds.empty()) {  // close
      size_t i = rng.NextBelow(fds.size());
      fs.Close(fds[i].fd);
      fds[i] = fds.back();
      fds.pop_back();
      continue;
    }
    if (dice < 22) {  // read / pread
      int32_t fd = pick_fd(kOpenRead);
      if (fd >= 0) {
        if (dice % 2 == 0) {
          fs.Read(fd, count);
        } else {
          fs.Pread(fd, count, offset);
        }
        continue;
      }
    }
    if (dice < 32) {  // write / pwrite
      int32_t fd = pick_fd(kOpenWrite);
      if (fd >= 0) {
        if (dice % 2 == 0) {
          fs.Write(fd, count);
        } else {
          fs.Pwrite(fd, count, offset);
        }
        continue;
      }
    }
    if (dice < 34) {  // fsync
      int32_t fd = pick_fd(0);
      if (fd >= 0) {
        fs.Fsync(fd);
        continue;
      }
    }
    if (dice < 42) {  // mkdir
      fs.Mkdir(dir_path());
      continue;
    }
    if (dice < 46) {  // rmdir
      fs.Rmdir(dir_path());
      continue;
    }
    if (dice < 54) {  // unlink
      fs.Unlink(file_path());
      continue;
    }
    if (dice < 60) {  // rename
      fs.Rename(file_path(), file_path());
      continue;
    }
    if (dice < 64) {  // link
      fs.Link(file_path(), file_path());
      continue;
    }
    if (dice < 67) {  // stat
      fs.Stat(file_path());
      continue;
    }
    // open (also the fallback when an fd-based op found no usable fd)
    uint32_t flags = kFlagSets[rng.NextBelow(std::size(kFlagSets))];
    vfs::VfsResult r = fs.Open(file_path(), flags);
    if (r.ok()) {
      fds.push_back({static_cast<int32_t>(r.value), flags});
    }
  }
  // Any barrier rounds the op mix didn't reach (short op streams): arrive
  // now so every worker's arrival count matches.
  if (sw != nullptr) {
    while (phases_done < opt.barrier_phases) {
      sim.Sleep(Us(1 + rng.NextBelow(5)));
      sw->BarrierWait();
      phases_done++;
    }
  }

  // Retire remaining fds, one op per lock hold like everything else.
  while (!fds.empty()) {
    sim.Sleep(Us(1 + rng.NextBelow(10)));
    sim::SimLockGuard guard(mu);
    fs.Close(fds.back().fd);
    fds.pop_back();
  }

  // Condvar producer/consumer handoff: the first half of the workers
  // produce cond_items items each, the rest consume until the queue is
  // drained and the last producer broadcasts done.
  if (sw != nullptr && opt.threads >= 2 && opt.cond_items > 0) {
    const uint32_t producer_count = opt.threads / 2;
    if (worker_index < producer_count) {
      for (uint32_t i = 0; i < opt.cond_items; ++i) {
        sim.Sleep(Us(1 + rng.NextBelow(15)));
        sw->Lock(*sw->q_mu, kCondMutexId);
        sw->queue++;
        sw->Record(trace::Sys::kCondSignal, kCondId);
        sw->q_cv->NotifyOne();
        sw->Unlock(*sw->q_mu, kCondMutexId);
      }
      sim.Sleep(Us(1 + rng.NextBelow(5)));
      sw->Lock(*sw->q_mu, kCondMutexId);
      if (--sw->producers_left == 0) {
        sw->done = true;
        sw->Record(trace::Sys::kCondBroadcast, kCondId);
        sw->q_cv->NotifyAll();
      }
      sw->Unlock(*sw->q_mu, kCondMutexId);
    } else {
      while (true) {
        sw->Lock(*sw->q_mu, kCondMutexId);
        while (sw->queue == 0 && !sw->done) {
          sw->Unlock(*sw->q_mu, kCondMutexId);
          // Unlock -> Wait is atomic here: nothing yields in between, so
          // a signal cannot slip into the gap.
          sw->q_cv->Wait();
          sw->Record(trace::Sys::kCondWait, kCondId);  // enter = wakeup
          sw->Lock(*sw->q_mu, kCondMutexId);
        }
        if (sw->queue > 0) {
          sw->queue--;
          sw->Unlock(*sw->q_mu, kCondMutexId);
          sim.Sleep(Us(1 + rng.NextBelow(8)));
          continue;
        }
        sw->Unlock(*sw->q_mu, kCondMutexId);  // done and drained
        break;
      }
    }
  }
}

}  // namespace

trace::TraceBundle GenerateTrace(const GenOptions& opt) {
  ARTC_CHECK(opt.threads > 0);
  sim::Simulation sim(opt.seed);
  storage::StorageStack stack(&sim, storage::MakeNamedConfig(opt.storage));
  vfs::Vfs fs(&sim, &stack, vfs::MakeFsProfile(opt.fs_profile));

  PathPools pools;
  for (uint32_t d = 0; d < kDirs; ++d) {
    std::string dir = StrFormat("/d%u", d);
    pools.dirish.push_back(dir);
    for (uint32_t f = 0; f < kFilesPerDir; ++f) {
      pools.files.push_back(StrFormat("%s/f%u", dir.c_str(), f));
    }
  }
  // Collision names: used as mkdir/rmdir AND open/unlink/rename targets, so
  // the same literal path flips between file and directory bindings.
  for (uint32_t d = 0; d < kDirs; ++d) {
    std::string both = StrFormat("/d%u/x", d);
    pools.files.push_back(both);
    pools.dirish.push_back(both);
  }

  trace::TraceBundle bundle;
  vfs::TraceRecorder recorder(&bundle.trace);

  sim.Spawn("gen-harness", [&] {
    for (uint32_t d = 0; d < kDirs; ++d) {
      fs.MustMkdirAll(StrFormat("/d%u", d));
    }
    for (size_t i = 0; i < pools.files.size(); i += 2) {
      fs.MustCreateFile(pools.files[i], (i + 1) * 3000);
    }
    bundle.snapshot = fs.CaptureSnapshot();
    stack.DropCaches();
    fs.StartTracing(&recorder);

    sim::SimMutex mu(&sim);
    SyncWorld sync_world;
    SyncWorld* sw = nullptr;
    if (opt.sync) {
      sync_world.sim = &sim;
      sync_world.recorder = &recorder;
      for (uint32_t i = 0; i < std::max(1u, opt.sync_mutexes); ++i) {
        sync_world.pool.push_back(std::make_unique<sim::SimMutex>(&sim));
      }
      sync_world.barrier =
          std::make_unique<sim::SimBarrier>(&sim, opt.threads);
      sync_world.q_mu = std::make_unique<sim::SimMutex>(&sim);
      sync_world.q_cv = std::make_unique<sim::SimCondVar>(&sim);
      sync_world.producers_left = opt.threads >= 2 ? opt.threads / 2 : 0;
      sw = &sync_world;
      // The barrier is born before any worker: its init event is the first
      // sync record and opens generation 0 for every arrival.
      sync_world.Record(trace::Sys::kBarrierInit, kBarrierId, opt.threads);
    }
    Rng master(opt.seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
    std::vector<sim::SimThreadId> workers;
    workers.reserve(opt.threads);
    for (uint32_t t = 0; t < opt.threads; ++t) {
      Rng worker_rng = master.Fork();
      workers.push_back(sim.Spawn(StrFormat("gen-%u", t), [&, worker_rng, t] {
        WorkerBody(fs, sim, mu, pools, opt, worker_rng, sw, t);
      }));
    }
    for (sim::SimThreadId w : workers) {
      sim.Join(w);
      if (sw != nullptr) {
        sync_world.Record(trace::Sys::kThreadJoin, w);
      }
    }
    fs.StopTracing();
  });
  sim.Run();
  ARTC_CHECK_MSG(sim.UnfinishedThreads() == 0, "trace generator deadlocked");
  bundle.trace.SortByEnterTime();
  return bundle;
}

}  // namespace artc::check
