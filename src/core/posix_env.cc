#include "src/core/posix_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <thread>

#include "src/util/check.h"
#include "src/util/strings.h"

#if defined(__linux__)
#include <sys/xattr.h>
#define ARTC_HAVE_XATTR 1
#else
#define ARTC_HAVE_XATTR 0
#endif

namespace artc::core {

using trace::Sys;

namespace {

// Maps a host errno to the portable errno values traces use.
int64_t PortableErr() {
  switch (errno) {
    case EPERM:
      return -trace::kEPERM;
    case ENOENT:
      return -trace::kENOENT;
    case EBADF:
      return -trace::kEBADF;
    case EACCES:
      return -trace::kEACCES;
    case EEXIST:
      return -trace::kEEXIST;
    case EXDEV:
      return -trace::kEXDEV;
    case ENOTDIR:
      return -trace::kENOTDIR;
    case EISDIR:
      return -trace::kEISDIR;
    case EINVAL:
      return -trace::kEINVAL;
    case ENOSPC:
      return -trace::kENOSPC;
    case EROFS:
      return -trace::kEROFS;
    case ERANGE:
      return -trace::kERANGE;
    case ENOTEMPTY:
      return -trace::kENOTEMPTY;
    case ELOOP:
      return -trace::kELOOP;
#ifdef ENODATA
    case ENODATA:
      return -trace::kENODATA;
#endif
#ifdef EOPNOTSUPP
    case EOPNOTSUPP:
      return -trace::kENOTSUP;
#endif
    default:
      return -trace::kEINVAL;
  }
}

int64_t RetOf(int64_t host_ret) { return host_ret >= 0 ? host_ret : PortableErr(); }

int HostOpenFlags(uint32_t flags) {
  int f = 0;
  bool r = flags & trace::kOpenRead;
  bool w = flags & trace::kOpenWrite;
  if (r && w) {
    f = O_RDWR;
  } else if (w) {
    f = O_WRONLY;
  } else {
    f = O_RDONLY;
  }
  if (flags & trace::kOpenCreate) {
    f |= O_CREAT;
  }
  if (flags & trace::kOpenExcl) {
    f |= O_EXCL;
  }
  if (flags & trace::kOpenTrunc) {
    f |= O_TRUNC;
  }
  if (flags & trace::kOpenAppend) {
    f |= O_APPEND;
  }
  if (flags & trace::kOpenDirectory) {
    f |= O_DIRECTORY;
  }
  if (flags & trace::kOpenNoFollow) {
    f |= O_NOFOLLOW;
  }
  return f;
}

// Linux only accepts extended attributes in specific namespaces ("user.",
// "trusted.", ...); OS X traces carry names like "com.apple.FinderInfo".
// Map every traced name into the user namespace for the sandbox replay.
std::string HostXattrName(const std::string& name) {
  if (name.rfind("user.", 0) == 0) {
    return name;
  }
  return "user.artc." + name;
}

// Scratch buffer for real read/write payloads, reused per thread.
thread_local std::vector<char> g_buffer;

char* Buffer(size_t n) {
  if (g_buffer.size() < n) {
    g_buffer.resize(n);
  }
  return g_buffer.data();
}

}  // namespace

PosixReplayEnv::PosixReplayEnv(std::string root, EmulationPolicy policy)
    : root_(std::move(root)), policy_(std::move(policy)) {
  while (!root_.empty() && root_.back() == '/') {
    root_.pop_back();
  }
  ARTC_CHECK_MSG(!root_.empty(), "sandbox root must be non-empty");
}

TimeNs PosixReplayEnv::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void PosixReplayEnv::SleepNs(TimeNs d) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

void PosixReplayEnv::RunThreads(size_t n, std::function<void(size_t)> body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([body, i] { body(i); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

std::string PosixReplayEnv::Translate(const std::string& trace_path) const {
  return root_ + NormalizePath(trace_path);
}

void PosixReplayEnv::Initialize(const trace::FsSnapshot& snapshot) {
  for (const trace::SnapshotEntry& e : snapshot.entries) {
    std::string host = Translate(e.path);
    switch (e.type) {
      case trace::SnapshotEntryType::kDir:
        ::mkdir(host.c_str(), 0755);
        break;
      case trace::SnapshotEntryType::kFile: {
        int fd = ::open(host.c_str(), O_CREAT | O_WRONLY, 0644);
        if (fd >= 0) {
          // Populate with arbitrary data by extending to the traced size
          // (sparse, so large initializations stay fast on tmpfs).
          if (e.size > 0) {
            ARTC_CHECK(::ftruncate(fd, static_cast<off_t>(e.size)) == 0);
          }
#if ARTC_HAVE_XATTR
          for (const std::string& x : e.xattr_names) {
            ::fsetxattr(fd, HostXattrName(x).c_str(), "artc", 4, 0);
          }
#endif
          ::close(fd);
        }
        break;
      }
      case trace::SnapshotEntryType::kSymlink: {
        std::string target = e.symlink_target;
        if (!target.empty() && target[0] == '/') {
          target = Translate(target);
        }
        ::symlink(target.c_str(), host.c_str());
        break;
      }
      case trace::SnapshotEntryType::kSpecial: {
        // Specials become symlinks to the host's equivalents; /dev/random
        // optionally degrades to /dev/urandom per the emulation policy.
        std::string target = "/dev/null";
        if (e.special_kind == "urandom" ||
            (e.special_kind == "random" && policy_.dev_random_symlink)) {
          target = "/dev/urandom";
        } else if (e.special_kind == "random") {
          target = "/dev/random";
        }
        ::symlink(target.c_str(), host.c_str());
        break;
      }
    }
  }
}

int64_t PosixReplayEnv::Execute(const trace::TraceEvent& ev, const ExecContext& ctx) {
  Sys call = ev.call;
  EmulationRule rule = GetEmulationRule(call, policy_.target_os);
  if (rule.action == EmulationAction::kIgnore) {
    return 0;
  }
  if (rule.action == EmulationAction::kSubstitute) {
    call = rule.substitute;
  }
  if (rule.action == EmulationAction::kSequence && ev.call == Sys::kExchangeData) {
    std::string pa = Translate(ev.path.str());
    std::string pb = Translate(ev.path2.str());
    std::string tmp = StrFormat("%s.artc_xchg.%llu", pa.c_str(),
                                static_cast<unsigned long long>(
                                    exchange_tmp_counter_.fetch_add(1)));
    if (::link(pa.c_str(), tmp.c_str()) != 0) {
      return PortableErr();
    }
    if (::rename(pb.c_str(), pa.c_str()) != 0) {
      int64_t e = PortableErr();
      ::unlink(tmp.c_str());
      return e;
    }
    return RetOf(::rename(tmp.c_str(), pb.c_str()));
  }

  switch (call) {
    case Sys::kOpen:
    case Sys::kOpenAt:
    case Sys::kShmOpen: {
      uint32_t flags = ev.flags;
      if (policy_.relax_excl_on_anomaly && ev.ret >= 0) {
        // Compile-time anomaly handling strips O_EXCL only when needed; be
        // permissive here for robustness.
      }
      return RetOf(::open(Translate(ev.path.str()).c_str(), HostOpenFlags(flags),
                          ev.mode != 0 ? ev.mode : 0644));
    }
    case Sys::kCreat:
      return RetOf(::open(Translate(ev.path.str()).c_str(), O_CREAT | O_WRONLY | O_TRUNC,
                          ev.mode != 0 ? ev.mode : 0644));
    case Sys::kClose:
      return RetOf(::close(ctx.fd));
    case Sys::kDup:
    case Sys::kDup2:  // remapped through the slot table; plain dup suffices
      return RetOf(::dup(ctx.fd));
    case Sys::kRead:
    case Sys::kReadV:
      return RetOf(::read(ctx.fd, Buffer(ev.size), ev.size));
    case Sys::kPRead:
    case Sys::kPReadV:
      return RetOf(::pread(ctx.fd, Buffer(ev.size), ev.size,
                           static_cast<off_t>(ev.offset)));
    case Sys::kWrite:
    case Sys::kWriteV:
      return RetOf(::write(ctx.fd, Buffer(ev.size), ev.size));
    case Sys::kPWrite:
    case Sys::kPWriteV:
      return RetOf(::pwrite(ctx.fd, Buffer(ev.size), ev.size,
                            static_cast<off_t>(ev.offset)));
    case Sys::kLSeek:
      return RetOf(::lseek(ctx.fd, static_cast<off_t>(ev.offset), ev.whence));
    case Sys::kFsync:
    case Sys::kFcntlFullFsync:
      return RetOf(::fsync(ctx.fd));
    case Sys::kFdatasync:
    case Sys::kMsync:
    case Sys::kSyncFileRange:
#if defined(__linux__)
      return RetOf(::fdatasync(ctx.fd));
#else
      return RetOf(::fsync(ctx.fd));
#endif
    case Sys::kSync:
      ::sync();
      return 0;
    case Sys::kStat:
    case Sys::kFstatAt: {
      struct stat st;
      return RetOf(::stat(Translate(ev.path.str()).c_str(), &st));
    }
    case Sys::kLstat: {
      struct stat st;
      return RetOf(::lstat(Translate(ev.path.str()).c_str(), &st));
    }
    case Sys::kFstat: {
      struct stat st;
      return RetOf(::fstat(ctx.fd, &st));
    }
    case Sys::kAccess:
    case Sys::kFaccessAt:
      return RetOf(::access(Translate(ev.path.str()).c_str(), F_OK));
    case Sys::kStatFs: {
      struct statvfs sv;
      return RetOf(::statvfs(Translate(ev.path.str()).c_str(), &sv));
    }
    case Sys::kFstatFs: {
      struct statvfs sv;
      return RetOf(::fstatvfs(ctx.fd, &sv));
    }
    case Sys::kChmod:
      return RetOf(::chmod(Translate(ev.path.str()).c_str(),
                           ev.mode != 0 ? ev.mode : 0644));
    case Sys::kFchmod:
      return RetOf(::fchmod(ctx.fd, ev.mode != 0 ? ev.mode : 0644));
    case Sys::kChown:
    case Sys::kLchown:
    case Sys::kFchown:
    case Sys::kUtimes:
    case Sys::kFutimes:
      return 0;  // ownership/times: no-ops in the sandbox
    case Sys::kTruncate:
      return RetOf(::truncate(Translate(ev.path.str()).c_str(), static_cast<off_t>(ev.size)));
    case Sys::kFtruncate:
      return RetOf(::ftruncate(ctx.fd, static_cast<off_t>(ev.size)));
    case Sys::kMkdir:
    case Sys::kMkdirAt:
      return RetOf(::mkdir(Translate(ev.path.str()).c_str(), ev.mode != 0 ? ev.mode : 0755));
    case Sys::kRmdir:
      return RetOf(::rmdir(Translate(ev.path.str()).c_str()));
    case Sys::kUnlink:
    case Sys::kUnlinkAt:
    case Sys::kShmUnlink:
      return RetOf(::unlink(Translate(ev.path.str()).c_str()));
    case Sys::kRename:
    case Sys::kRenameAt:
      return RetOf(::rename(Translate(ev.path.str()).c_str(), Translate(ev.path2.str()).c_str()));
    case Sys::kLink:
    case Sys::kLinkAt:
      return RetOf(::link(Translate(ev.path.str()).c_str(), Translate(ev.path2.str()).c_str()));
    case Sys::kSymlink:
    case Sys::kSymlinkAt: {
      std::string target = ev.path.str();
      if (!target.empty() && target[0] == '/') {
        target = Translate(target);
      }
      return RetOf(::symlink(target.c_str(), Translate(ev.path2.str()).c_str()));
    }
    case Sys::kReadlink:
    case Sys::kReadlinkAt: {
      char buf[4096];
      return RetOf(::readlink(Translate(ev.path.str()).c_str(), buf, sizeof(buf)));
    }
    case Sys::kGetDirEntries:
    case Sys::kGetDents: {
      // Portable emulation via readdir on a separately opened stream is
      // awkward with a raw fd; charge a directory stat instead.
      struct stat st;
      return RetOf(::fstat(ctx.fd, &st));
    }
#if ARTC_HAVE_XATTR
    case Sys::kGetXattr: {
      char buf[256];
      return RetOf(::getxattr(Translate(ev.path.str()).c_str(),
                              HostXattrName(ev.name.str()).c_str(), buf, sizeof(buf)));
    }
    case Sys::kLGetXattr: {
      char buf[256];
      return RetOf(::lgetxattr(Translate(ev.path.str()).c_str(),
                               HostXattrName(ev.name.str()).c_str(), buf, sizeof(buf)));
    }
    case Sys::kFGetXattr: {
      char buf[256];
      return RetOf(::fgetxattr(ctx.fd, HostXattrName(ev.name.str()).c_str(), buf, sizeof(buf)));
    }
    case Sys::kSetXattr:
    case Sys::kLSetXattr:
      return RetOf(::setxattr(Translate(ev.path.str()).c_str(), HostXattrName(ev.name.str()).c_str(),
                              "artc", 4, 0));
    case Sys::kFSetXattr:
      return RetOf(::fsetxattr(ctx.fd, HostXattrName(ev.name.str()).c_str(), "artc", 4, 0));
    case Sys::kListXattr:
    case Sys::kLListXattr: {
      char buf[1024];
      return RetOf(::listxattr(Translate(ev.path.str()).c_str(), buf, sizeof(buf)));
    }
    case Sys::kFListXattr: {
      char buf[1024];
      return RetOf(::flistxattr(ctx.fd, buf, sizeof(buf)));
    }
    case Sys::kRemoveXattr:
    case Sys::kLRemoveXattr:
      return RetOf(::removexattr(Translate(ev.path.str()).c_str(),
                                 HostXattrName(ev.name.str()).c_str()));
    case Sys::kFRemoveXattr:
      return RetOf(::fremovexattr(ctx.fd, HostXattrName(ev.name.str()).c_str()));
#endif
    case Sys::kFadvise:
    case Sys::kFcntlRdAdvise:
    case Sys::kReadahead:
#if defined(__linux__)
      return RetOf(::posix_fadvise(ctx.fd, static_cast<off_t>(std::max<int64_t>(0, ev.offset)),
                                   static_cast<off_t>(ev.size), POSIX_FADV_WILLNEED));
#else
      return 0;
#endif
    case Sys::kFallocate:
    case Sys::kFcntlPreallocate:
#if defined(__linux__)
      return RetOf(::posix_fallocate(ctx.fd, static_cast<off_t>(std::max<int64_t>(0, ev.offset)),
                                     static_cast<off_t>(std::max<uint64_t>(1, ev.size))));
#else
      return 0;
#endif
    case Sys::kAioRead:
    case Sys::kAioWrite:
      // Replayed synchronously on this backend; the handle is the byte
      // count result, consumed by aio_return.
      return call == Sys::kAioRead
                 ? RetOf(::pread(ctx.fd, Buffer(ev.size), ev.size,
                                 static_cast<off_t>(std::max<int64_t>(0, ev.offset))))
                 : RetOf(::pwrite(ctx.fd, Buffer(ev.size), ev.size,
                                  static_cast<off_t>(std::max<int64_t>(0, ev.offset))));
    case Sys::kAioError:
    case Sys::kAioSuspend:
    case Sys::kAioCancel:
      return 0;
    case Sys::kAioReturn:
      return ctx.aio >= 0 ? ctx.aio : -trace::kEINVAL;
    default:
      unsupported_.fetch_add(1, std::memory_order_relaxed);
      return 0;
  }
}

}  // namespace artc::core
