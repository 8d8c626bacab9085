#include "src/workloads/synthetic_gen.h"

#include <algorithm>
#include <iterator>
#include <queue>
#include <vector>

#include "src/trace/binary_trace.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::workloads {
namespace {

using trace::Sys;
using trace::TraceEvent;

// splitmix64: tiny, seedable, and good enough for shaping a workload.
struct Rng {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n ? Next() % n : 0; }
};

// One worker thread's generator: refills a small buffer with the next
// request's events, stamped on the thread's private monotonic clock. The
// merge below consumes them one at a time.
class ThreadGen {
 public:
  ThreadGen(const SynthOptions& opt, uint32_t worker)
      : opt_(opt),
        worker_(worker),
        rng_{opt.seed * 0x9e3779b97f4a7c15ull + worker * 2654435761ull + 1},
        // Staggered starts so the merged stream interleaves from the top.
        clock_(1000 + worker * 137),
        fd_base_(10 + static_cast<int32_t>(worker) * 128) {}

  // The head event's enter time (the merge key). Refills on demand.
  TimeNs HeadEnter() {
    Refill();
    return buf_[pos_].enter;
  }

  TraceEvent Pop() {
    Refill();
    return buf_[pos_++];
  }

 private:
  void Refill() {
    if (pos_ < buf_.size()) {
      return;
    }
    buf_.clear();
    pos_ = 0;
    switch (opt_.scenario) {
      case SynthScenario::kWebServer:
        WebRequest();
        break;
      case SynthScenario::kParallelBuild:
        BuildUnit();
        break;
      case SynthScenario::kMailSpool:
        Delivery();
        break;
      case SynthScenario::kLockServer:
        ARTC_CHECK_MSG(false, "lockserver uses its own phase driver");
        break;
    }
    ARTC_CHECK(!buf_.empty());
  }

  // Appends one event, advancing the thread clock: a short think gap, then
  // the call's duration. Values are nanoseconds.
  TraceEvent& Emit(Sys call, TimeNs dur) {
    TraceEvent ev;
    ev.tid = 1000 + worker_;
    ev.call = call;
    ev.enter = clock_ + 50 + static_cast<TimeNs>(rng_.Below(400));
    ev.ret_time = ev.enter + dur;
    clock_ = ev.ret_time;
    buf_.push_back(ev);
    return buf_.back();
  }

  int32_t NextFd() {
    // Cycles through the worker-private range; every request closes what it
    // opens before the next request runs, so reuse is generation-safe. The
    // top of the range is reserved for the long-lived log fd.
    int32_t fd = fd_base_ + static_cast<int32_t>(fd_cycle_ % 100);
    ++fd_cycle_;
    return fd;
  }

  // -- web server: open doc, fstat, chunked preads, close, log append --
  void WebRequest() {
    if (!log_open_) {
      log_open_ = true;
      TraceEvent& open = Emit(Sys::kOpen, 2500);
      open.path = StrFormat("/logs/access_%u.log", worker_);
      open.flags = trace::kOpenWrite | trace::kOpenCreate | trace::kOpenAppend;
      open.mode = 0644;
      open.ret = fd_base_ + 127;
    }
    const uint32_t doc = static_cast<uint32_t>(rng_.Below(opt_.files));
    const uint64_t doc_size = DocSize(doc);
    const int32_t fd = NextFd();
    TraceEvent& open = Emit(Sys::kOpen, 1800 + rng_.Below(2000));
    open.path = StrFormat("/docs/doc_%u.html", doc);
    open.flags = trace::kOpenRead;
    open.ret = fd;
    TraceEvent& fstat = Emit(Sys::kFstat, 600);
    fstat.fd = fd;
    fstat.ret = 0;
    uint64_t off = 0;
    const uint64_t chunk = 16 * 1024;
    while (off < doc_size) {
      const uint64_t n = std::min(chunk, doc_size - off);
      TraceEvent& pread = Emit(Sys::kPRead, 3000 + n / 8);
      pread.fd = fd;
      pread.offset = static_cast<int64_t>(off);
      pread.size = n;
      pread.ret = static_cast<int64_t>(n);
      off += n;
    }
    TraceEvent& close = Emit(Sys::kClose, 500);
    close.fd = fd;
    close.ret = 0;
    const uint64_t line = 60 + rng_.Below(90);
    TraceEvent& log = Emit(Sys::kWrite, 1200);
    log.fd = fd_base_ + 127;
    log.size = line;
    log.ret = static_cast<int64_t>(line);
  }

  // -- parallel build: stat+read shared source and headers, write object --
  void BuildUnit() {
    const uint32_t unit = static_cast<uint32_t>(rng_.Below(opt_.files));
    const std::string src = StrFormat("/src/file_%u.c", unit);
    TraceEvent& stat = Emit(Sys::kStat, 900);
    stat.path = src;
    stat.ret = 0;
    const int32_t sfd = NextFd();
    TraceEvent& open = Emit(Sys::kOpen, 2000);
    open.path = src;
    open.flags = trace::kOpenRead;
    open.ret = sfd;
    const uint64_t ssize = 2048 + (unit % 61) * 512;
    TraceEvent& read = Emit(Sys::kRead, 2500 + ssize / 8);
    read.fd = sfd;
    read.size = ssize;
    read.ret = static_cast<int64_t>(ssize);
    TraceEvent& sclose = Emit(Sys::kClose, 400);
    sclose.fd = sfd;
    sclose.ret = 0;
    const uint32_t headers = static_cast<uint32_t>(rng_.Below(3));
    for (uint32_t h = 0; h < headers; ++h) {
      const int32_t hfd = NextFd();
      TraceEvent& hopen = Emit(Sys::kOpen, 1500);
      hopen.path =
          StrFormat("/src/hdr_%u.h", static_cast<unsigned>(rng_.Below(16)));
      hopen.flags = trace::kOpenRead;
      hopen.ret = hfd;
      TraceEvent& hread = Emit(Sys::kRead, 1800);
      hread.fd = hfd;
      hread.size = 1024;
      hread.ret = 1024;
      TraceEvent& hclose = Emit(Sys::kClose, 400);
      hclose.fd = hfd;
      hclose.ret = 0;
    }
    const int32_t ofd = NextFd();
    TraceEvent& oopen = Emit(Sys::kOpen, 2200);
    oopen.path = StrFormat("/build/w%u/obj_%u_%llu.o", worker_, unit,
                                 static_cast<unsigned long long>(unit_seq_++));
    oopen.flags = trace::kOpenWrite | trace::kOpenCreate | trace::kOpenTrunc;
    oopen.mode = 0644;
    oopen.ret = ofd;
    const uint64_t osize = ssize / 2;
    TraceEvent& write = Emit(Sys::kWrite, 3000 + osize / 8);
    write.fd = ofd;
    write.size = osize;
    write.ret = static_cast<int64_t>(osize);
    TraceEvent& oclose = Emit(Sys::kClose, 500);
    oclose.fd = ofd;
    oclose.ret = 0;
  }

  // -- mail spool: tmp write + fsync, rename into new/, expire old mail --
  void Delivery() {
    const uint64_t msg = msg_seq_++;
    const std::string tmp =
        StrFormat("/spool/w%u/tmp/msg_%llu", worker_,
                        static_cast<unsigned long long>(msg));
    const std::string fin =
        StrFormat("/spool/w%u/new/msg_%llu", worker_,
                        static_cast<unsigned long long>(msg));
    const int32_t fd = NextFd();
    TraceEvent& open = Emit(Sys::kOpen, 2400);
    open.path = tmp;
    open.flags = trace::kOpenWrite | trace::kOpenCreate | trace::kOpenExcl;
    open.mode = 0600;
    open.ret = fd;
    const uint64_t body = 1024 + rng_.Below(8 * 1024);
    TraceEvent& write = Emit(Sys::kWrite, 2800 + body / 8);
    write.fd = fd;
    write.size = body;
    write.ret = static_cast<int64_t>(body);
    TraceEvent& fsync = Emit(Sys::kFsync, 45000 + rng_.Below(30000));
    fsync.fd = fd;
    fsync.ret = 0;
    TraceEvent& close = Emit(Sys::kClose, 500);
    close.fd = fd;
    close.ret = 0;
    TraceEvent& rename = Emit(Sys::kRename, 3500);
    rename.path = tmp;
    rename.path2 = fin;
    rename.ret = 0;
    if (msg >= 16 && msg % 8 == 0) {
      TraceEvent& unlink = Emit(Sys::kUnlink, 2600);
      unlink.path = StrFormat("/spool/w%u/new/msg_%llu", worker_,
                                    static_cast<unsigned long long>(msg - 16));
      unlink.ret = 0;
    }
  }

  uint64_t DocSize(uint32_t doc) const {
    return 4096 + (doc % 29) * 2048;  // 4K..60K, matches SynthSnapshot
  }

  const SynthOptions& opt_;
  uint32_t worker_;
  Rng rng_;
  TimeNs clock_;
  int32_t fd_base_;
  uint64_t fd_cycle_ = 0;
  uint64_t unit_seq_ = 0;
  uint64_t msg_seq_ = 0;
  bool log_open_ = false;
  std::vector<TraceEvent> buf_;
  size_t pos_ = 0;
};

// -- lockserver: a contended mutex pool + barrier phases, emitted with
// first-class sync events. The lazy per-thread merge above cannot model
// cross-thread blocking, so this scenario generates phase by phase: every
// worker's requests for one phase are produced round-robin against shared
// per-mutex grant clocks (grant = max(request, previous unlock + 1), i.e.
// FIFO in request order with critical sections that never overlap), the
// phase's events are k-way merged and streamed, and a barrier arrival per
// worker closes the phase — the release instant (max arrival + 1) restarts
// every clock, so the merged stream stays globally nondecreasing. Memory is
// O(threads * phase length), independent of total trace length.

// Shards in the locked pool: intentionally far fewer than opt.files so the
// locks are actually contended.
uint32_t LockServerShards(const SynthOptions& opt) {
  return std::max(1u, std::min(opt.files, 8u));
}

constexpr uint64_t kLockSyncBase = 0x10000;   // mutex m = base + m
constexpr uint64_t kLockBarrierId = 0x20000;
constexpr uint64_t kShardBytes = 1ull << 20;

uint64_t GenerateLockServer(
    const SynthOptions& opt,
    const std::function<void(const trace::TraceEvent&)>& sink) {
  const uint32_t shards = LockServerShards(opt);
  const uint32_t reqs_per_phase = 32;

  struct Worker {
    Rng rng;
    TimeNs clock;
    int32_t fd_base;
    uint32_t tid;
    bool log_open = false;
    std::vector<int32_t> shard_fd;     // lazily opened, worker-private
    std::vector<TraceEvent> buf;       // this phase's events, local order
  };
  std::vector<Worker> ws(opt.threads);
  for (uint32_t w = 0; w < opt.threads; ++w) {
    ws[w].rng = Rng{opt.seed * 0x9e3779b97f4a7c15ull + w * 2654435761ull + 7};
    ws[w].clock = 1000 + w * 137;
    ws[w].fd_base = 10 + static_cast<int32_t>(w) * 128;
    ws[w].tid = 1000 + w;
    ws[w].shard_fd.assign(shards, -1);
  }
  std::vector<TimeNs> free_at(shards, 0);

  uint64_t emitted = 0;
  auto deliver = [&](TraceEvent ev) {
    ev.index = emitted++;
    sink(ev);
  };

  // The init event opens barrier generation 0; everything else follows it.
  {
    TraceEvent init;
    init.tid = 999;  // the accept loop / main thread
    init.call = Sys::kBarrierInit;
    init.enter = 10;
    init.ret_time = 10;
    init.sync_id = kLockBarrierId;
    init.size = opt.threads;
    deliver(init);
    if (emitted >= opt.events) {
      return emitted;
    }
  }

  auto emit = [](Worker& w, Sys call, TimeNs enter, TimeNs dur) -> TraceEvent& {
    TraceEvent ev;
    ev.tid = w.tid;
    ev.call = call;
    ev.enter = enter;
    ev.ret_time = enter + dur;
    w.clock = ev.ret_time;
    w.buf.push_back(ev);
    return w.buf.back();
  };

  auto one_request = [&](Worker& w) {
    if (!w.log_open) {
      w.log_open = true;
      TraceEvent& open = emit(w, Sys::kOpen, w.clock + 200, 2500);
      open.path = StrFormat("/logs/lock_%u.log", w.tid - 1000);
      open.flags = trace::kOpenWrite | trace::kOpenCreate | trace::kOpenAppend;
      open.mode = 0644;
      open.ret = w.fd_base + 127;
    }
    const uint32_t m = static_cast<uint32_t>(w.rng.Below(shards));
    if (w.shard_fd[m] < 0) {
      TraceEvent& open = emit(w, Sys::kOpen, w.clock + 150, 2000);
      open.path = StrFormat("/data/shard_%u.dat", m);
      open.flags = trace::kOpenRead | trace::kOpenWrite;
      open.ret = w.fd_base + static_cast<int32_t>(m);
      w.shard_fd[m] = static_cast<int32_t>(open.ret);
    }
    // Request instant -> FIFO grant against the shard's last unlock.
    const TimeNs request = w.clock + 100 + static_cast<TimeNs>(w.rng.Below(600));
    const TimeNs grant = std::max(request, free_at[m] + 1);
    TraceEvent& lock = emit(w, Sys::kMutexLock, grant, 0);
    lock.sync_id = kLockSyncBase + m;
    const uint64_t rn = 4096;
    TraceEvent& pread = emit(w, Sys::kPRead, w.clock + 300, 2500 + rn / 8);
    pread.fd = w.shard_fd[m];
    pread.offset = static_cast<int64_t>(w.rng.Below(kShardBytes - rn));
    pread.size = rn;
    pread.ret = static_cast<int64_t>(rn);
    const uint64_t wn = 1024;
    TraceEvent& pwrite = emit(w, Sys::kPWrite, w.clock + 200, 2800 + wn / 8);
    pwrite.fd = w.shard_fd[m];
    pwrite.offset = static_cast<int64_t>(w.rng.Below(kShardBytes - wn));
    pwrite.size = wn;
    pwrite.ret = static_cast<int64_t>(wn);
    TraceEvent& unlock = emit(w, Sys::kMutexUnlock, w.clock + 100, 0);
    unlock.sync_id = kLockSyncBase + m;
    free_at[m] = unlock.enter;
    if (w.rng.Below(4) == 0) {
      const uint64_t line = 40 + w.rng.Below(80);
      TraceEvent& log = emit(w, Sys::kWrite, w.clock + 250, 1200);
      log.fd = w.fd_base + 127;
      log.size = line;
      log.ret = static_cast<int64_t>(line);
    }
  };

  while (emitted < opt.events) {
    // Round-robin by request so grants interleave the way a shared lock
    // server actually admits clients.
    for (uint32_t r = 0; r < reqs_per_phase; ++r) {
      for (Worker& w : ws) {
        one_request(w);
      }
    }
    TimeNs release = 0;
    for (Worker& w : ws) {
      const TimeNs arrival = w.clock + 50 + static_cast<TimeNs>(w.rng.Below(400));
      TraceEvent& wait = emit(w, Sys::kBarrierWait, arrival, 0);
      wait.sync_id = kLockBarrierId;
      release = std::max(release, arrival);
    }
    release += 1;

    // Merge this phase's per-worker streams into global enter order.
    using Head = std::pair<TimeNs, uint32_t>;
    std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
    std::vector<size_t> pos(ws.size(), 0);
    for (uint32_t w = 0; w < ws.size(); ++w) {
      heap.push({ws[w].buf[0].enter, w});
    }
    while (!heap.empty() && emitted < opt.events) {
      const uint32_t w = heap.top().second;
      heap.pop();
      deliver(ws[w].buf[pos[w]++]);
      if (pos[w] < ws[w].buf.size()) {
        heap.push({ws[w].buf[pos[w]].enter, w});
      }
    }
    for (Worker& w : ws) {
      w.buf.clear();
      w.clock = release;
    }
  }
  return emitted;
}

}  // namespace

const char* SynthScenarioName(SynthScenario s) {
  return kSynthScenarioNames[static_cast<size_t>(s)];
}

bool SynthScenarioFromName(const std::string& name, SynthScenario* out) {
  for (size_t i = 0; i < std::size(kSynthScenarioNames); ++i) {
    if (name == kSynthScenarioNames[i]) {
      *out = static_cast<SynthScenario>(i);
      return true;
    }
  }
  return false;
}

trace::FsSnapshot SynthSnapshot(const SynthOptions& opt) {
  trace::FsSnapshot snap;
  switch (opt.scenario) {
    case SynthScenario::kWebServer:
      snap.AddDir("/docs");
      snap.AddDir("/logs");
      for (uint32_t d = 0; d < opt.files; ++d) {
        snap.AddFile(StrFormat("/docs/doc_%u.html", d),
                     4096 + (d % 29) * 2048);
      }
      break;
    case SynthScenario::kParallelBuild:
      snap.AddDir("/src");
      snap.AddDir("/build");
      for (uint32_t f = 0; f < opt.files; ++f) {
        snap.AddFile(StrFormat("/src/file_%u.c", f),
                     2048 + (f % 61) * 512);
      }
      for (uint32_t h = 0; h < 16; ++h) {
        snap.AddFile(StrFormat("/src/hdr_%u.h", h), 1024);
      }
      for (uint32_t w = 0; w < opt.threads; ++w) {
        snap.AddDir(StrFormat("/build/w%u", w));
      }
      break;
    case SynthScenario::kMailSpool:
      snap.AddDir("/spool");
      for (uint32_t w = 0; w < opt.threads; ++w) {
        snap.AddDir(StrFormat("/spool/w%u", w));
        snap.AddDir(StrFormat("/spool/w%u/tmp", w));
        snap.AddDir(StrFormat("/spool/w%u/new", w));
      }
      break;
    case SynthScenario::kLockServer:
      snap.AddDir("/data");
      snap.AddDir("/logs");
      for (uint32_t m = 0; m < LockServerShards(opt); ++m) {
        snap.AddFile(StrFormat("/data/shard_%u.dat", m), kShardBytes);
      }
      break;
  }
  snap.Canonicalize();
  return snap;
}

uint64_t GenerateSynthetic(
    const SynthOptions& opt,
    const std::function<void(const trace::TraceEvent&)>& sink) {
  ARTC_CHECK_MSG(opt.threads > 0, "synthetic trace needs at least one thread");
  if (opt.scenario == SynthScenario::kLockServer) {
    // Sync events need cross-thread grant/release coordination the lazy
    // per-thread merge can't express; the lockserver has its own driver.
    return GenerateLockServer(opt, sink);
  }
  std::vector<ThreadGen> gens;
  gens.reserve(opt.threads);
  for (uint32_t w = 0; w < opt.threads; ++w) {
    gens.emplace_back(opt, w);
  }
  // K-way merge on (head enter time, worker). Workers' clocks advance at
  // comparable rates, so the heap stays balanced and the merged stream
  // interleaves the way a real multithreaded capture does.
  using Head = std::pair<TimeNs, uint32_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (uint32_t w = 0; w < opt.threads; ++w) {
    heap.push({gens[w].HeadEnter(), w});
  }
  uint64_t emitted = 0;
  while (emitted < opt.events) {
    const uint32_t w = heap.top().second;
    heap.pop();
    trace::TraceEvent ev = gens[w].Pop();
    ev.index = emitted++;
    sink(ev);
    heap.push({gens[w].HeadEnter(), w});
  }
  return emitted;
}

bool GenerateSyntheticArtct(const SynthOptions& opt, const std::string& path,
                            std::string* error) {
  trace::ArtctWriter writer(path, SynthSnapshot(opt));
  GenerateSynthetic(opt, [&writer](const trace::TraceEvent& ev) {
    writer.Add(ev);
  });
  return writer.Finish(error);
}

trace::TraceBundle GenerateSyntheticBundle(const SynthOptions& opt) {
  trace::TraceBundle bundle;
  bundle.snapshot = SynthSnapshot(opt);
  bundle.trace.events.reserve(opt.events);
  GenerateSynthetic(opt, [&bundle](const trace::TraceEvent& ev) {
    bundle.trace.events.push_back(ev);
  });
  return bundle;
}

}  // namespace artc::workloads
