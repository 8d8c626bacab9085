// Composes a block device, I/O scheduler, and page cache into the blocking
// storage interface the simulated VFS sits on. All methods must be called
// from a simulated thread; they advance virtual time (cache-hit CPU cost,
// device waits) and return when the operation is durably in cache (reads,
// buffered writes) or on media (Flush/direct writes).
#ifndef SRC_STORAGE_STORAGE_STACK_H_
#define SRC_STORAGE_STORAGE_STACK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/storage/block_device.h"
#include "src/storage/hdd_model.h"
#include "src/storage/io_scheduler.h"
#include "src/storage/page_cache.h"
#include "src/storage/ssd_model.h"

namespace artc::storage {

enum class DeviceKind { kHdd, kSsd };
enum class SchedulerKind { kNoop, kCfq };

// Everything needed to build a storage target. The paper's hardware
// configurations (HDD, RAID-0, small cache, SSD, CFQ slice settings) are all
// expressible as StorageConfig values; see MakeNamedConfig().
struct StorageConfig {
  std::string name = "hdd";
  DeviceKind device = DeviceKind::kHdd;
  uint32_t raid_members = 1;          // >1 builds RAID-0
  uint32_t raid_chunk_blocks = 128;   // 512 KB
  HddParams hdd;
  SsdParams ssd;
  SchedulerKind scheduler = SchedulerKind::kNoop;
  CfqParams cfq;
  PageCacheParams cache;
};

// The named configurations used by the benchmark harnesses and CLIs.
inline constexpr const char* kNamedConfigNames[] = {
    "hdd", "raid0", "ssd", "smallcache", "bigcache", "cfq-1ms", "cfq-100ms"};

// The named configuration, or nullopt for a name not in kNamedConfigNames.
std::optional<StorageConfig> FindNamedConfig(const std::string& name);

// FindNamedConfig for a name the caller knows is valid; aborts otherwise.
StorageConfig MakeNamedConfig(const std::string& name);

// Per-stack counter snapshot (this stack only, unlike the process-wide
// obs::MetricsRegistry): cache traffic, media traffic, scheduler switches,
// and — for RAID-0 targets — per-member block routing for stripe-balance
// diagnostics. The raid vectors are empty on single-device stacks.
struct StorageCounters {
  uint64_t cache_hit_blocks = 0;
  uint64_t cache_miss_blocks = 0;
  uint64_t cache_evicted_blocks = 0;
  uint64_t cache_writeback_blocks = 0;
  uint64_t media_read_blocks = 0;
  uint64_t media_write_blocks = 0;
  uint64_t cfq_context_switches = 0;
  std::vector<uint64_t> raid_member_read_blocks;
  std::vector<uint64_t> raid_member_write_blocks;
  // Virtual time simulated threads spent blocked inside the stack, split by
  // what served the wait (storage-layer attribution for the critical-path
  // analyzer). Queue wait and media seek/transfer both land in the media
  // buckets: the split below is by *purpose* of the request, the scheduler
  // spans in the tracer break down queueing within it.
  TimeNs service_cache_ns = 0;        // page-cache hit CPU cost
  TimeNs service_media_read_ns = 0;   // foreground read misses (incl. shared
                                      // inflight waits)
  TimeNs service_media_write_ns = 0;  // synchronous writes (journal, fsync)
  TimeNs service_writeback_ns = 0;    // eviction + dirty-throttle writeback
};

class StorageStack {
 public:
  StorageStack(sim::Simulation* simulation, const StorageConfig& config);
  ~StorageStack();
  StorageStack(const StorageStack&) = delete;
  StorageStack& operator=(const StorageStack&) = delete;

  // Blocking read of [lba, lba+n). sequential_hint enables read-ahead.
  void Read(uint64_t lba, uint32_t nblocks, bool sequential_hint);

  // Buffered write: dirties cache, may block for write-back throttling.
  void Write(uint64_t lba, uint32_t nblocks);

  // Write-through: blocks until the data is on media (journal commits).
  void WriteSync(uint64_t lba, uint32_t nblocks);

  // Flushes dirty blocks in the given ranges to media and blocks until
  // complete (fsync path). Ranges are (lba, nblocks) pairs.
  void Flush(const std::vector<std::pair<uint64_t, uint32_t>>& ranges);

  // Writes every dirty block to media, oldest first in batches of 1024, and
  // blocks until done (sync(2), and fsync on file systems that flush all
  // dirty data). Each block counts once as written back.
  void FlushAllDirty();

  // Drops cached copies of a range (file deletion).
  void Discard(uint64_t lba, uint32_t nblocks);

  // Drops the entire cache (between benchmark phases).
  void DropCaches() { cache_->DropAll(); }

  PageCache& cache() { return *cache_; }
  BlockDevice& device() { return *top_device_; }
  const StorageConfig& config() const { return config_; }
  sim::Simulation* simulation() { return sim_; }

  // Total blocks read from / written to media (not cache).
  uint64_t MediaReadBlocks() const { return media_read_blocks_; }
  uint64_t MediaWriteBlocks() const { return media_write_blocks_; }

  StorageCounters Counters() const;

  // Cumulative virtual time the *calling* simulated thread has spent being
  // served by this stack (all categories). The replay engine samples it
  // around Execute to tag each action's storage-service interval.
  TimeNs ServiceNsForCurrentThread() const;

 private:
  // What a blocking interval inside the stack was serving, for the
  // per-category service accounting above.
  enum class ServiceCat { kCache, kMediaRead, kMediaWrite, kWriteback };

  // Submits one device request on behalf of the current simulated thread and
  // blocks until it completes.
  void BlockingIo(uint64_t lba, uint32_t nblocks, bool is_write, uint32_t issuer,
                  ServiceCat cat);
  // Writes a set of disjoint runs in ascending LBA order, coalescing
  // contiguous ones, and waits for all. Sorts *runs.
  void WriteRunsOut(BlockRuns* runs, uint32_t issuer, ServiceCat cat);
  // Evicts down to the cache's capacity and writes the dirty victims out.
  void EvictAndWriteOut(uint32_t issuer);
  void ThrottleDirty();
  // The first block of [lba, end) that some thread is fetching from media
  // right now, or end.
  uint64_t FirstInflight(uint64_t lba, uint64_t end) const;
  // The end of the blocks at the start of [lba, end) that are neither
  // resident nor being fetched.
  uint64_t MissingEnd(uint64_t lba, uint64_t end) const;
  // An empty run buffer, reusing the storage of one given back earlier.
  // Write-outs block, so each caller takes its own and gives it back.
  BlockRuns TakeRuns();
  void GiveBack(BlockRuns runs);
  void AccountService(TimeNs dt, ServiceCat cat);

  sim::Simulation* sim_;
  StorageConfig config_;
  std::unique_ptr<BlockDevice> top_device_;
  std::unique_ptr<IoScheduler> scheduler_;
  std::unique_ptr<PageCache> cache_;

  // Block ranges [begin, end) currently being fetched, at most one per
  // reading thread; concurrent readers of the same block wait on
  // inflight_cv_ instead of duplicating the I/O.
  struct InflightRead {
    uint64_t begin;
    uint64_t end;
  };
  std::vector<InflightRead> inflight_reads_;
  sim::SimCondVar inflight_cv_;
  std::vector<BlockRuns> spare_runs_;

  uint64_t media_read_blocks_ = 0;
  uint64_t media_write_blocks_ = 0;

  // Per-sim-thread cumulative service time (indexed by the dense thread
  // id, grown on demand) plus the run-wide per-category breakdown.
  std::vector<TimeNs> service_ns_by_thread_;
  TimeNs service_cache_ns_ = 0;
  TimeNs service_media_read_ns_ = 0;
  TimeNs service_media_write_ns_ = 0;
  TimeNs service_writeback_ns_ = 0;
};

}  // namespace artc::storage

#endif  // SRC_STORAGE_STORAGE_STACK_H_
