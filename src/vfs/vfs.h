// Simulated POSIX file system at system-call granularity.
//
// This is the "kernel" that both the traced application models and the
// simulated replay backend execute against. It implements real UNIX
// namespace semantics (hard links, symlinks, rename over existing targets,
// orphaned-but-open files, lowest-free fd allocation) and charges virtual
// time through a StorageStack: directory and inode blocks are read through
// the page cache, data I/O maps file offsets to allocated extents, metadata
// mutations append to a journal whose commit policy depends on the
// file-system profile (ext4/ext3/jfs/xfs-like).
//
// All methods must be called from a simulated thread. Results use portable
// errno values from src/trace/event.h.
#ifndef SRC_VFS_VFS_H_
#define SRC_VFS_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/sim/simulation.h"
#include "src/storage/storage_stack.h"
#include "src/trace/event.h"
#include "src/trace/snapshot.h"
#include "src/util/small_vec.h"

namespace artc::vfs {

// Timing/layout personality of the file system. The four named profiles do
// not reimplement ext3/ext4/JFS/XFS; they differ in the cost dimensions that
// distinguish those file systems as replay targets (journaling policy,
// allocation contiguity, metadata CPU cost), which is what Fig. 7's 49
// source/target combinations need.
struct FsProfile {
  std::string name = "ext4";
  TimeNs meta_cpu = Us(3);        // CPU per metadata operation
  TimeNs lookup_cpu = Us(1);      // CPU per path component
  uint32_t journal_blocks_per_txn = 1;
  // ext3-ordered-mode-like behaviour: fsync flushes every dirty page in the
  // cache, not just the target file's.
  bool fsync_flushes_all_dirty = false;
  uint32_t alloc_chunk_blocks = 2048;  // delayed-allocation granularity
};

inline constexpr const char* kFsProfileNames[] = {"ext4", "ext3", "jfs", "xfs"};

// The named profile, or nullopt for a name not in kFsProfileNames.
std::optional<FsProfile> FindFsProfile(const std::string& name);

// FindFsProfile for a name the caller knows is valid; aborts otherwise.
FsProfile MakeFsProfile(const std::string& name);

// OS personality knobs that the paper's emulation section cares about.
struct PlatformProfile {
  std::string name = "linux";
  // On Linux /dev/random blocks while the entropy pool refills; on OS X it
  // behaves like /dev/urandom (paper Sec. 5.1 "Special files").
  TimeNs dev_random_read = Ms(20);
  TimeNs dev_urandom_read = Us(3);
  // On OS X fsync only flushes to the device (which may cache); full
  // durability needs fcntl(F_FULLFSYNC). On Linux fsync is durable.
  bool fsync_is_device_flush_only = false;
};

PlatformProfile MakePlatformProfile(const std::string& name);  // "linux", "osx"

struct VfsResult {
  int64_t value = 0;  // success return value
  int err = 0;        // portable errno, 0 on success
  bool ok() const { return err == 0; }
  // Encodes as the single trace return value (>=0 or -errno).
  int64_t TraceRet() const { return err == 0 ? value : -err; }
};

// Receives one record per completed syscall while tracing is enabled.
class TraceRecorder {
 public:
  explicit TraceRecorder(trace::Trace* out) : out_(out) {}
  void Record(trace::TraceEvent ev);
  trace::Trace* trace() { return out_; }

 private:
  trace::Trace* out_;
};

class Vfs {
 public:
  Vfs(sim::Simulation* simulation, storage::StorageStack* stack, FsProfile fs_profile,
      PlatformProfile platform = PlatformProfile{});
  ~Vfs();
  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // ---- namespace ----
  VfsResult Open(const std::string& path, uint32_t flags, uint32_t mode = 0644);
  VfsResult Close(int32_t fd);
  VfsResult Dup(int32_t fd);
  VfsResult Dup2(int32_t fd, int32_t newfd);
  VfsResult Mkdir(const std::string& path, uint32_t mode = 0755);
  VfsResult Rmdir(const std::string& path);
  VfsResult Unlink(const std::string& path);
  VfsResult Rename(const std::string& from, const std::string& to);
  VfsResult Link(const std::string& existing, const std::string& link);
  VfsResult Symlink(const std::string& target, const std::string& link);
  VfsResult Readlink(const std::string& path);

  // ---- data ----
  VfsResult Read(int32_t fd, uint64_t count);
  VfsResult Pread(int32_t fd, uint64_t count, int64_t offset);
  VfsResult Write(int32_t fd, uint64_t count);
  VfsResult Pwrite(int32_t fd, uint64_t count, int64_t offset);
  VfsResult Lseek(int32_t fd, int64_t offset, int whence);
  VfsResult Truncate(const std::string& path, uint64_t length);
  VfsResult Ftruncate(int32_t fd, uint64_t length);

  // ---- durability ----
  VfsResult Fsync(int32_t fd);
  VfsResult Fdatasync(int32_t fd);
  VfsResult FullFsync(int32_t fd);  // OS X fcntl(F_FULLFSYNC)
  VfsResult SyncAll();

  // ---- metadata ----
  VfsResult Stat(const std::string& path);   // value = file size
  VfsResult Lstat(const std::string& path);
  VfsResult Fstat(int32_t fd);
  VfsResult Access(const std::string& path);
  VfsResult StatFs(const std::string& path);
  VfsResult Chmod(const std::string& path, uint32_t mode);
  VfsResult Utimes(const std::string& path);
  VfsResult GetDirEntries(int32_t fd, uint64_t count);  // value = #entries

  // ---- extended attributes ----
  VfsResult GetXattr(const std::string& path, const std::string& name);
  VfsResult SetXattr(const std::string& path, const std::string& name, uint64_t size);
  VfsResult ListXattr(const std::string& path);
  VfsResult RemoveXattr(const std::string& path, const std::string& name);
  VfsResult FGetXattr(int32_t fd, const std::string& name);
  VfsResult FSetXattr(int32_t fd, const std::string& name, uint64_t size);

  // ---- hints ----
  VfsResult Fadvise(int32_t fd, int64_t offset, uint64_t len);     // read-ahead
  VfsResult Fallocate(int32_t fd, int64_t offset, uint64_t len);   // preallocate

  // ---- OS-X-native extras (available when simulating an OS X source) ----
  VfsResult ExchangeData(const std::string& a, const std::string& b);

  // ---- infrastructure ----

  // While enabled, every syscall above appends a TraceEvent to the recorder.
  void StartTracing(TraceRecorder* recorder) { recorder_ = recorder; }
  void StopTracing() { recorder_ = nullptr; }

  // Serialises the current tree (paths under root, sizes, symlinks, xattr
  // names) — what a tracing session would capture before the run.
  trace::FsSnapshot CaptureSnapshot() const;

  // Builds the tree described by the snapshot (initialization, Sec. 4.3.2).
  // Existing contents are discarded first unless delta is true, in which
  // case only differences are created/removed/resized (delta init).
  void RestoreSnapshot(const trace::FsSnapshot& snapshot, bool delta = false);

  // True if the path resolves to an existing node.
  bool Exists(const std::string& path);

  uint64_t FileSize(const std::string& path);

  // Direct (untimed) tree construction used by tests and workload setup.
  void MustMkdirAll(const std::string& path);
  void MustCreateFile(const std::string& path, uint64_t size);
  void MustCreateSymlink(const std::string& path, const std::string& target);
  void MustCreateSpecial(const std::string& path, const std::string& kind);
  void MustSetXattr(const std::string& path, const std::string& name, uint64_t size);

  storage::StorageStack& stack() { return *stack_; }
  const FsProfile& fs_profile() const { return fs_; }
  const PlatformProfile& platform() const { return platform_; }
  sim::Simulation* simulation() { return sim_; }

  // Journal blocks written since construction (diagnostics / tests).
  uint64_t JournalCommitBlocks() const { return journal_committed_blocks_; }

 private:
  struct Inode;
  struct OpenFile;
  struct ResolveOutcome;

  // Path walk. follow_last: dereference a trailing symlink. The budget
  // bounds total symlink hops across nested resolutions (ELOOP). A timed
  // walk sleeps per component and looks its directory up again after
  // each sleep, so a directory removed meanwhile gives ENOENT.
  ResolveOutcome Resolve(std::string_view path, bool follow_last, bool timed);
  ResolveOutcome ResolveWithBudget(std::string_view path, bool follow_last, bool timed,
                                   int* symlink_budget);

  Inode* GetInode(uint64_t ino);
  const Inode* GetInode(uint64_t ino) const;
  Inode* NewInode(uint8_t type);
  void UnrefInode(uint64_t ino);   // nlink/open bookkeeping; frees at zero
  void FreeInode(Inode* inode);

  void EnsureExtents(Inode* inode, uint64_t up_to_block);
  // The device extents behind file blocks [block, block + nblocks), copied
  // out: callers block on the device while iterating, and EnsureExtents
  // may reallocate the inode's extents meanwhile.
  struct Extent {
    uint64_t lba;
    uint32_t nblocks;
  };
  using ExtentList = util::SmallVec<Extent, 4>;
  ExtentList MapRange(const Inode* inode, uint64_t block, uint64_t nblocks) const;
  void ReadInodeBlock(const Inode* inode);   // metadata read through cache
  void DirtyInodeBlock(const Inode* inode);  // metadata write (cache)
  // Reads a directory's data blocks. The read can block, and a concurrent
  // rmdir may free the directory meanwhile, so it returns the directory
  // looked up again by inode number: nullptr means it is gone.
  Inode* ReadDirBlocks(Inode* dir);
  // The inode `name` in `dir` links to, if that is still `ino`; nullptr when
  // `dir` is gone or a concurrent operation unlinked or replaced the entry.
  Inode* LinkedChild(Inode* dir, const std::string& name, uint64_t ino);
  void TouchDirData(Inode* dir);
  void JournalAppend();            // buffer one metadata transaction
  void JournalCommit();            // write buffered txns + barrier
  void DeviceBarrier();

  int32_t AllocFd(std::shared_ptr<OpenFile> of);
  OpenFile* GetOpenFile(int32_t fd);

  // The event Traced() records, with its string arguments interned only
  // while a recorder is attached: an untraced replay never touches the
  // trace string table.
  trace::TraceEvent Proto(std::string_view path = {}, std::string_view path2 = {},
                          std::string_view name = {}) const;
  // Trace recording helper: wraps a syscall body, stamping enter/ret times.
  template <typename Fn>
  VfsResult Traced(trace::Sys call, Fn&& body, trace::TraceEvent proto);

  // Untraced bodies shared by the positional and offset-cursor entry points
  // (read() is pread() at the cursor; recording must happen once, in the
  // public wrapper, never via mutation of recorder_ — simulated threads
  // interleave at blocking points).
  VfsResult PreadBody(int32_t fd, uint64_t count, int64_t offset);
  // append: reserve the offset at current EOF and extend the size *before*
  // blocking on I/O, so concurrent O_APPEND writers never overlap (POSIX
  // append atomicity).
  VfsResult PwriteBody(int32_t fd, uint64_t count, int64_t offset, bool append = false);

  sim::Simulation* sim_;
  storage::StorageStack* stack_;
  FsProfile fs_;
  PlatformProfile platform_;
  TraceRecorder* recorder_ = nullptr;

  std::unordered_map<uint64_t, std::unique_ptr<Inode>> inodes_;
  uint64_t next_ino_ = 1;
  uint64_t root_ino_ = 0;
  std::vector<std::shared_ptr<OpenFile>> fd_table_;

  // Block layout: [journal][inode table][data...].
  uint64_t journal_start_ = 0;
  uint64_t journal_blocks_ = 32768;
  uint64_t journal_head_ = 0;
  uint64_t inode_region_start_ = 0;
  uint64_t inode_region_blocks_ = 65536;
  uint64_t data_start_ = 0;
  uint64_t alloc_cursor_ = 0;
  uint64_t pending_journal_blocks_ = 0;
  uint64_t journal_committed_blocks_ = 0;
};

}  // namespace artc::vfs

#endif  // SRC_VFS_VFS_H_
