#include "src/storage/storage_stack.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/storage/raid0.h"
#include "src/util/check.h"

namespace artc::storage {

std::optional<StorageConfig> FindNamedConfig(const std::string& name) {
  StorageConfig c;
  c.name = name;
  if (name == "hdd") {
    return c;
  }
  if (name == "raid0") {
    c.raid_members = 2;
    return c;
  }
  if (name == "ssd") {
    c.device = DeviceKind::kSsd;
    return c;
  }
  if (name == "smallcache") {
    // 1.5 GB vs the default 1 GB is not much of a squeeze; the paper pinned
    // memory to shrink a 4 GB cache to 1.5 GB. We scale the same ~2.7x ratio
    // down so experiments stay fast: default 1 GB -> small 384 MB.
    c.cache.capacity_blocks = 98304;
    return c;
  }
  if (name == "bigcache") {
    c.cache.capacity_blocks = 1048576;  // 4 GB
    return c;
  }
  if (name == "cfq-1ms") {
    c.scheduler = SchedulerKind::kCfq;
    c.cfq.slice_sync = Ms(1);
    return c;
  }
  if (name == "cfq-100ms") {
    c.scheduler = SchedulerKind::kCfq;
    c.cfq.slice_sync = Ms(100);
    return c;
  }
  return std::nullopt;
}

StorageConfig MakeNamedConfig(const std::string& name) {
  std::optional<StorageConfig> c = FindNamedConfig(name);
  ARTC_CHECK_MSG(c.has_value(), "unknown storage config '%s'", name.c_str());
  return *c;
}

TimeNs MinDeviceLatencyNs(const StorageConfig& config) {
  // RAID-0 is as fast as its fastest member, and members are homogeneous, so
  // the member minimum is the array minimum.
  if (config.device == DeviceKind::kSsd) {
    return std::min(config.ssd.read_latency, config.ssd.write_latency);
  }
  return config.hdd.settle;
}

StorageStack::StorageStack(sim::Simulation* simulation, const StorageConfig& config)
    : sim_(simulation), config_(config), inflight_cv_(simulation) {
  auto make_device = [&]() -> std::unique_ptr<BlockDevice> {
    if (config_.device == DeviceKind::kSsd) {
      return std::make_unique<SsdModel>(sim_, config_.ssd);
    }
    return std::make_unique<HddModel>(sim_, config_.hdd);
  };
  if (config_.raid_members > 1) {
    std::vector<std::unique_ptr<BlockDevice>> members;
    members.reserve(config_.raid_members);
    for (uint32_t i = 0; i < config_.raid_members; ++i) {
      members.push_back(make_device());
    }
    top_device_ = std::make_unique<Raid0>(std::move(members), config_.raid_chunk_blocks);
  } else {
    top_device_ = make_device();
  }
  if (config_.scheduler == SchedulerKind::kCfq) {
    scheduler_ = std::make_unique<CfqScheduler>(sim_, top_device_.get(), config_.cfq);
  } else {
    scheduler_ = std::make_unique<NoopScheduler>(top_device_.get());
  }
  cache_ = std::make_unique<PageCache>(config_.cache);
}

StorageStack::~StorageStack() = default;

void StorageStack::AccountService(TimeNs dt, ServiceCat cat) {
  if (dt <= 0) {
    return;
  }
  const sim::SimThreadId t = sim_->CurrentThread();
  if (t != sim::kInvalidThread) {
    const uint32_t shard = sim::ShardOfThread(t);
    if (bound_shard_ == UINT32_MAX) {
      bound_shard_ = shard;
    }
    ARTC_CHECK_MSG(shard == bound_shard_,
                   "StorageStack used from shard %u but bound to shard %u",
                   shard, bound_shard_);
    const uint32_t local = sim::LocalIndexOfThread(t);
    if (service_ns_by_thread_.size() <= local) {
      service_ns_by_thread_.resize(local + 1, 0);
    }
    service_ns_by_thread_[local] += dt;
  }
  switch (cat) {
    case ServiceCat::kCache:
      service_cache_ns_ += dt;
      break;
    case ServiceCat::kMediaRead:
      service_media_read_ns_ += dt;
      break;
    case ServiceCat::kMediaWrite:
      service_media_write_ns_ += dt;
      break;
    case ServiceCat::kWriteback:
      service_writeback_ns_ += dt;
      break;
  }
}

TimeNs StorageStack::ServiceNsForCurrentThread() const {
  const sim::SimThreadId t = sim_->CurrentThread();
  if (t == sim::kInvalidThread) {
    return 0;
  }
  const uint32_t local = sim::LocalIndexOfThread(t);
  return local < service_ns_by_thread_.size() ? service_ns_by_thread_[local] : 0;
}

void StorageStack::BlockingIo(uint64_t lba, uint32_t nblocks, bool is_write,
                              uint32_t issuer, ServiceCat cat) {
  const TimeNs t0 = sim_->Now();
  // The completion wakes this thread directly: one captured pointer keeps
  // the closure inside std::function's small buffer, and a lone wake-up
  // draws no randomness, exactly like notifying a one-waiter condvar.
  struct Waiter {
    sim::Simulation* sim;
    sim::ThreadState* thread;
    bool done;
  } waiter{sim_, sim_->CurrentState(), false};
  BlockRequest req;
  req.lba = lba;
  req.nblocks = nblocks;
  req.is_write = is_write;
  req.issuer = issuer;
  req.done = [w = &waiter] {
    w->done = true;
    w->sim->WakeThread(w->thread);
  };
  ARTC_OBS_GAUGE_ADD("storage.inflight_requests", 1);
  ARTC_OBS_OBSERVE("storage.request_blocks", nblocks);
  scheduler_->Submit(std::move(req));
  while (!waiter.done) {
    sim_->BlockCurrent();
  }
  ARTC_OBS_GAUGE_ADD("storage.inflight_requests", -1);
  AccountService(sim_->Now() - t0, cat);
  if (is_write) {
    media_write_blocks_ += nblocks;
    ARTC_OBS_COUNT("storage.media_write_blocks", nblocks);
  } else {
    media_read_blocks_ += nblocks;
    ARTC_OBS_COUNT("storage.media_read_blocks", nblocks);
  }
}

uint64_t StorageStack::FirstInflight(uint64_t lba, uint64_t end) const {
  uint64_t first = end;
  for (const InflightRead& r : inflight_reads_) {
    if (r.begin < first && r.end > lba) {
      first = std::max(r.begin, lba);
    }
  }
  return first;
}

uint64_t StorageStack::MissingEnd(uint64_t lba, uint64_t end) const {
  return std::min(cache_->FirstResident(lba, end), FirstInflight(lba, end));
}

BlockRuns StorageStack::TakeRuns() {
  if (spare_runs_.empty()) {
    return {};
  }
  BlockRuns runs = std::move(spare_runs_.back());
  spare_runs_.pop_back();
  runs.clear();
  return runs;
}

void StorageStack::GiveBack(BlockRuns runs) { spare_runs_.push_back(std::move(runs)); }

void StorageStack::Read(uint64_t lba, uint32_t nblocks, bool sequential_hint) {
  const uint32_t issuer = sim_->CurrentThread();
  const uint64_t end = lba + nblocks;
  uint64_t b = lba;
  uint64_t hits = 0;
  while (b < end) {
    // Resident blocks are hits even while being fetched (a write landed
    // during the fetch), so residency is checked first.
    const uint64_t resident_end = cache_->TouchResident(b, end);
    hits += resident_end - b;
    b = resident_end;
    if (b == end) {
      break;
    }
    if (FirstInflight(b, b + 1) == b) {
      // Another thread is already fetching this block; waiting on its I/O
      // is still time the media serves this reader.
      const TimeNs w0 = sim_->Now();
      while (FirstInflight(b, b + 1) == b) {
        inflight_cv_.Wait();
      }
      AccountService(sim_->Now() - w0, ServiceCat::kMediaRead);
      continue;  // re-check residency
    }
    // The contiguous miss run within the request; a one-block miss, the
    // common case, needs no scan.
    const uint64_t miss_end = b + 1 < end ? MissingEnd(b + 1, end) : end;
    uint64_t fetch_end = miss_end;
    if (sequential_hint && miss_end == end) {
      // Extend with read-ahead past the request, stopping at resident or
      // already-inflight blocks and the device capacity.
      const uint64_t ra_end = std::min(end + cache_->params().readahead_blocks,
                                       top_device_->CapacityBlocks());
      fetch_end = std::max(end, MissingEnd(end, ra_end));
    }
    const auto fetch = static_cast<uint32_t>(fetch_end - b);
    cache_->CountMiss(fetch);
    // The scan above saw no block of the range in flight and nothing has
    // yielded since, so in-flight ranges never overlap.
    inflight_reads_.push_back(InflightRead{b, fetch_end});
    BlockingIo(b, fetch, /*is_write=*/false, issuer, ServiceCat::kMediaRead);
    cache_->InsertClean(b, fetch);
    std::erase_if(inflight_reads_, [b](const InflightRead& r) { return r.begin == b; });
    inflight_cv_.NotifyAll();
    EvictAndWriteOut(kAsyncIssuer);
    b = miss_end;
  }
  if (hits > 0) {
    const TimeNs cost = cache_->params().hit_cost * static_cast<TimeNs>(hits);
    cache_->CountHit(static_cast<uint32_t>(hits));
    sim_->Sleep(cost);
    AccountService(cost, ServiceCat::kCache);
  }
}

void StorageStack::Write(uint64_t lba, uint32_t nblocks) {
  cache_->InsertDirty(lba, nblocks);
  sim_->Sleep(cache_->params().hit_cost * nblocks);
  AccountService(cache_->params().hit_cost * nblocks, ServiceCat::kCache);
  EvictAndWriteOut(sim_->CurrentThread());
  ThrottleDirty();
}

void StorageStack::WriteSync(uint64_t lba, uint32_t nblocks) {
  uint32_t issuer = sim_->CurrentThread();
  cache_->InsertClean(lba, nblocks);  // resident, not dirty: it's on media
  BlockingIo(lba, nblocks, /*is_write=*/true, issuer, ServiceCat::kMediaWrite);
  EvictAndWriteOut(issuer);
}

void StorageStack::EvictAndWriteOut(uint32_t issuer) {
  if (cache_->ResidentCount() <= cache_->params().capacity_blocks) {
    return;
  }
  BlockRuns victims = TakeRuns();
  cache_->EvictToCapacity(&victims);
  WriteRunsOut(&victims, issuer, ServiceCat::kWriteback);
  GiveBack(std::move(victims));
}

void StorageStack::ThrottleDirty() {
  // Foreground throttling: writers over the dirty limit must clean pages.
  if (!cache_->OverDirtyLimit()) {
    return;
  }
  BlockRuns victims = TakeRuns();
  while (cache_->OverDirtyLimit()) {
    victims.clear();
    cache_->CollectOldestDirty(256, &victims);
    if (victims.empty()) {
      break;
    }
    WriteRunsOut(&victims, sim_->CurrentThread(), ServiceCat::kWriteback);
  }
  GiveBack(std::move(victims));
}

void StorageStack::WriteRunsOut(BlockRuns* runs, uint32_t issuer, ServiceCat cat) {
  std::sort(runs->begin(), runs->end(),
            [](const BlockRun& x, const BlockRun& y) { return x.lba < y.lba; });
  size_t i = 0;
  while (i < runs->size()) {
    const uint64_t lba = (*runs)[i].lba;
    uint32_t n = (*runs)[i].nblocks;
    while (++i < runs->size() && (*runs)[i].lba == lba + n) {
      n += (*runs)[i].nblocks;
    }
    BlockingIo(lba, n, /*is_write=*/true, issuer, cat);
  }
}

void StorageStack::Flush(const std::vector<std::pair<uint64_t, uint32_t>>& ranges) {
  BlockRuns dirty = TakeRuns();
  for (const auto& [lba, nblocks] : ranges) {
    cache_->CollectDirty(lba, nblocks, &dirty);
  }
  WriteRunsOut(&dirty, sim_->CurrentThread(), ServiceCat::kMediaWrite);
  GiveBack(std::move(dirty));
}

void StorageStack::FlushAllDirty() {
  BlockRuns victims = TakeRuns();
  while (cache_->DirtyCount() > 0) {
    victims.clear();
    cache_->CollectOldestDirty(1024, &victims);
    // A non-zero dirty count with an empty dirty list would loop forever.
    ARTC_CHECK(!victims.empty());
    // A sync leaves each written-back block most recently used, oldest
    // first.
    for (const BlockRun& r : victims) {
      cache_->TouchResident(r.lba, r.lba + r.nblocks);
    }
    WriteRunsOut(&victims, sim_->CurrentThread(), ServiceCat::kMediaWrite);
  }
  GiveBack(std::move(victims));
}

void StorageStack::Discard(uint64_t lba, uint32_t nblocks) {
  cache_->Invalidate(lba, nblocks);
}

StorageCounters StorageStack::Counters() const {
  StorageCounters c;
  c.cache_hit_blocks = cache_->HitBlocks();
  c.cache_miss_blocks = cache_->MissBlocks();
  c.cache_evicted_blocks = cache_->EvictedBlocks();
  c.cache_writeback_blocks = cache_->WritebackBlocks();
  c.media_read_blocks = media_read_blocks_;
  c.media_write_blocks = media_write_blocks_;
  if (config_.scheduler == SchedulerKind::kCfq) {
    c.cfq_context_switches =
        static_cast<const CfqScheduler&>(*scheduler_).ContextSwitches();
  }
  if (config_.raid_members > 1) {
    const auto& raid = static_cast<const Raid0&>(*top_device_);
    c.raid_member_read_blocks = raid.MemberReadBlocks();
    c.raid_member_write_blocks = raid.MemberWriteBlocks();
  }
  c.service_cache_ns = service_cache_ns_;
  c.service_media_read_ns = service_media_read_ns_;
  c.service_media_write_ns = service_media_write_ns_;
  c.service_writeback_ns = service_writeback_ns_;
  return c;
}

}  // namespace artc::storage
