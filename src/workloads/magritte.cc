#include "src/workloads/magritte.h"

#include <deque>

#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::workloads {

using trace::kOpenCreate;
using trace::kOpenExcl;
using trace::kOpenRead;
using trace::kOpenTrunc;
using trace::kOpenWrite;

namespace {

// A hand-off channel for passing open file descriptors between application
// threads (the "one thread opens, a second writes, a third closes" pattern
// from the paper's introduction).
class FdChannel {
 public:
  explicit FdChannel(sim::Simulation* simulation) : mu_(simulation), cv_(simulation) {}

  void Send(int32_t fd) {
    mu_.Lock();
    queue_.push_back(fd);
    mu_.Unlock();
    cv_.NotifyAll();
  }

  int32_t Receive() {
    mu_.Lock();
    while (queue_.empty()) {
      mu_.Unlock();
      cv_.Wait();
      mu_.Lock();
    }
    int32_t fd = queue_.front();
    queue_.pop_front();
    mu_.Unlock();
    return fd;
  }

 private:
  sim::SimMutex mu_;
  sim::SimCondVar cv_;
  std::deque<int32_t> queue_;
};

class DesktopApp : public Workload {
 public:
  explicit DesktopApp(MagritteSpec spec) : spec_(std::move(spec)) {}

  std::string Name() const override { return spec_.FullName(); }

  void Setup(vfs::Vfs& fs) override {
    app_dir_ = "/Users/user/Library/" + spec_.app;
    media_dir_ = app_dir_ + "/media";
    fs.MustMkdirAll(app_dir_ + "/config");
    fs.MustMkdirAll(app_dir_ + "/cache");
    fs.MustMkdirAll(app_dir_ + "/tmp");
    fs.MustMkdirAll(media_dir_);
    fs.MustCreateSpecial("/dev/random", "random");
    fs.MustCreateSpecial("/dev/urandom", "urandom");
    // Preference plists and caches read at startup.
    for (uint32_t i = 0; i < 24; ++i) {
      std::string p = StrFormat("%s/config/pref%u.plist", app_dir_.c_str(), i);
      fs.MustCreateFile(p, 2048 + i * 512);
      fs.MustSetXattr(p, "com.apple.FinderInfo", 32);
    }
    // Library database + thumbnail cache.
    fs.MustCreateFile(app_dir_ + "/Library.db", 8ULL << 20);
    fs.MustCreateFile(app_dir_ + "/cache/thumbs.db", 16ULL << 20);
    // Existing media items (photos/songs/slides) for non-import scenarios.
    for (uint32_t i = 0; i < spec_.scale; ++i) {
      std::string p = ItemPath(i);
      fs.MustCreateFile(p, ItemBytes());
      fs.MustSetXattr(p, "com.apple.metadata:kMDItemWhereFroms", 64);
      fs.MustSetXattr(p, "com.apple.quarantine", 24);
    }
    // Import sources live outside the library.
    if (NeedsImportSources()) {
      fs.MustMkdirAll("/Volumes/camera");
      for (uint32_t i = 0; i < spec_.scale; ++i) {
        fs.MustCreateFile(StrFormat("/Volumes/camera/src%u", i), ItemBytes());
      }
    }
    // Document packages for the iWork apps.
    if (IsIwork()) {
      std::string doc = DocPackage();
      fs.MustMkdirAll(doc);
      fs.MustCreateFile(doc + "/index.xml", 200 << 10);
      fs.MustCreateFile(doc + "/preview.jpg", 1 << 20);
      for (uint32_t i = 0; i < spec_.scale; ++i) {
        fs.MustCreateFile(StrFormat("%s/part%u.bin", doc.c_str(), i), 64 << 10);
      }
    }
  }

  void Run(AppContext& ctx) override {
    ctx_ = &ctx;
    StartupPhase();
    const std::string& s = spec_.scenario;
    if (s == "start" || s == "startsmall") {
      LibraryScan(spec_.scale == 0 ? 16 : spec_.scale);
    } else if (s == "import" || s == "importsmall" || s == "importmovie" ||
               s == "createphoto" || s == "pdfphoto" || s == "docphoto" ||
               s == "playphoto" || s == "pptphoto") {
      ImportItems(PhotoCount());
      if (s == "createphoto") {
        SaveDocument(/*with_media=*/true);
      } else if (s == "pdfphoto" || s == "docphoto" || s == "pptphoto") {
        ExportDocument(s.substr(0, 3), /*with_media=*/true);
      } else if (s == "playphoto") {
        PlayItems(spec_.scale);
      }
    } else if (s == "duplicate") {
      DuplicateItems(spec_.scale);
    } else if (s == "edit") {
      EditItems(spec_.scale);
    } else if (s == "delete") {
      DeleteItems(spec_.scale);
    } else if (s == "view" || s == "album" || s == "movie" || s == "play") {
      PlayItems(spec_.scale);
    } else if (s == "add") {
      EditItems(spec_.scale == 0 ? 4 : spec_.scale);
      UpdateDatabase(32);
    } else if (s == "export") {
      ExportMovie();
    } else if (s == "create" || s == "createcol") {
      SaveDocument(/*with_media=*/false);
    } else if (s == "open") {
      OpenDocument();
    } else if (s == "pdf" || s == "doc" || s == "xls" || s == "ppt") {
      ExportDocument(s, /*with_media=*/false);
    } else {
      ARTC_CHECK_MSG(false, "unknown magritte scenario '%s'", s.c_str());
    }
    ShutdownPhase();
  }

 private:
  vfs::Vfs& fs() { return *ctx_->fs; }

  bool IsIwork() const {
    return spec_.app == "pages" || spec_.app == "numbers" || spec_.app == "keynote";
  }
  bool NeedsImportSources() const {
    const std::string& s = spec_.scenario;
    return s.find("import") == 0 || s.find("photo") != std::string::npos;
  }
  uint32_t PhotoCount() const {
    // Photo-augmented iWork scenarios import a fixed small set.
    return spec_.scenario.find("photo") != std::string::npos
               ? std::min<uint32_t>(spec_.scale, 20)
               : std::max<uint32_t>(spec_.scale, 1);
  }
  uint64_t ItemBytes() const {
    if (spec_.app == "itunes") {
      return spec_.scenario == "importmovie" || spec_.scenario == "movie" ? 96ULL << 20
                                                                          : 4ULL << 20;
    }
    if (spec_.app == "imovie") {
      return 48ULL << 20;
    }
    if (spec_.app == "iphoto") {
      return 2ULL << 20;
    }
    return 1ULL << 20;  // iWork media
  }
  std::string ItemPath(uint32_t i) const {
    return StrFormat("%s/item%u.dat", media_dir_.c_str(), i);
  }
  std::string DocPackage() const { return app_dir_ + "/Document." + spec_.app; }

  // -- building blocks ------------------------------------------------------

  // Startup: preference/plist storm + a few /dev/random reads + xattr reads.
  void StartupPhase() {
    vfs::Vfs& v = fs();
    int32_t rnd = static_cast<int32_t>(v.Open("/dev/random", kOpenRead).value);
    v.Read(rnd, 64);
    v.Close(rnd);
    for (uint32_t i = 0; i < 24; ++i) {
      std::string p = StrFormat("%s/config/pref%u.plist", app_dir_.c_str(), i);
      v.Stat(p);
      vfs::VfsResult o = v.Open(p, kOpenRead);
      if (o.ok()) {
        int32_t fd = static_cast<int32_t>(o.value);
        v.Fstat(fd);
        v.Read(fd, 4096);
        v.Close(fd);
      }
      v.GetXattr(p, "com.apple.FinderInfo");
      // A handful of these probe attributes that never existed — programs
      // routinely check for optional metadata.
      if (i % 6 == 0) {
        v.GetXattr(p, "com.apple.TextEncoding");
      }
    }
    v.Access(app_dir_ + "/Library.db");
  }

  // Concurrent library scan: main thread walks the directory while a worker
  // preads the library database.
  void LibraryScan(uint32_t reads) {
    vfs::Vfs& v = fs();
    Rng rng = ctx_->rng().Fork();
    sim::SimThreadId worker = ctx_->Spawn("db-scan", [this, reads, rng]() mutable {
      vfs::Vfs& vv = fs();
      vfs::VfsResult o = vv.Open(app_dir_ + "/Library.db", kOpenRead);
      if (!o.ok()) {
        return;
      }
      int32_t fd = static_cast<int32_t>(o.value);
      uint64_t db_blocks = (8ULL << 20) / 4096;
      for (uint32_t i = 0; i < reads * 4; ++i) {
        vv.Pread(fd, 4096, static_cast<int64_t>(rng.NextBelow(db_blocks) * 4096));
        ctx_->Compute(Us(10));
      }
      vv.Close(fd);
    });
    vfs::VfsResult d = v.Open(media_dir_, kOpenRead);
    if (d.ok()) {
      v.GetDirEntries(static_cast<int32_t>(d.value), 8192);
      v.Close(static_cast<int32_t>(d.value));
    }
    for (uint32_t i = 0; i < std::min<uint32_t>(reads, spec_.scale); ++i) {
      v.Stat(ItemPath(i));
      v.ListXattr(ItemPath(i));
      v.GetXattr(ItemPath(i), "com.apple.metadata:kMDItemWhereFroms");
      v.GetXattr(ItemPath(i), "com.apple.quarantine");
    }
    ctx_->Join(worker);
  }

  // Import pipeline with fd hand-off: the opener thread creates destination
  // files and hands fds to a writer pool; a cataloguer fsyncs and closes.
  void ImportItems(uint32_t count) {
    vfs::Vfs& v = fs();
    FdChannel to_writer(ctx_->sim);
    FdChannel to_closer(ctx_->sim);
    uint64_t bytes = ItemBytes();

    sim::SimThreadId writer = ctx_->Spawn("import-writer", [this, &to_writer, &to_closer,
                                                            count, bytes] {
      vfs::Vfs& vv = fs();
      for (uint32_t i = 0; i < count; ++i) {
        int32_t fd = to_writer.Receive();
        uint64_t written = 0;
        while (written < bytes) {
          uint64_t chunk = std::min<uint64_t>(bytes - written, 1 << 20);
          vv.Write(fd, chunk);
          written += chunk;
        }
        ctx_->Compute(Us(200));  // transcode
        to_closer.Send(fd);
      }
    });
    sim::SimThreadId closer = ctx_->Spawn("import-closer", [this, &to_closer, count] {
      vfs::Vfs& vv = fs();
      for (uint32_t i = 0; i < count; ++i) {
        int32_t fd = to_closer.Receive();
        vv.Fsync(fd);
        vv.Close(fd);
        UpdateDatabase(1);
      }
    });

    // Main thread: read each source item and open its destination.
    for (uint32_t i = 0; i < count; ++i) {
      std::string src = StrFormat("/Volumes/camera/src%u", i);
      vfs::VfsResult so = v.Open(src, kOpenRead);
      if (so.ok()) {
        int32_t sfd = static_cast<int32_t>(so.value);
        uint64_t read_bytes = 0;
        while (read_bytes < bytes) {
          uint64_t chunk = std::min<uint64_t>(bytes - read_bytes, 1 << 20);
          v.Read(sfd, chunk);
          read_bytes += chunk;
        }
        v.Close(sfd);
      }
      std::string dst = StrFormat("%s/import%u.dat", media_dir_.c_str(), i);
      vfs::VfsResult d = v.Open(dst, kOpenWrite | kOpenCreate | kOpenExcl);
      if (d.ok()) {
        v.SetXattr(dst, "com.apple.metadata:kMDItemWhereFroms", 64);
        to_writer.Send(static_cast<int32_t>(d.value));
      }
    }
    ctx_->Join(writer);
    ctx_->Join(closer);
  }

  // Read an item, copy it to a new file, fsync, register in the database.
  void DuplicateItems(uint32_t count) {
    vfs::Vfs& v = fs();
    sim::SimThreadId db = ctx_->Spawn("dup-db", [this, count] { UpdateDatabase(count); });
    uint64_t bytes = ItemBytes();
    for (uint32_t i = 0; i < count; ++i) {
      vfs::VfsResult in = v.Open(ItemPath(i), kOpenRead);
      std::string copy = StrFormat("%s/copy%u.dat", media_dir_.c_str(), i);
      vfs::VfsResult out = v.Open(copy, kOpenWrite | kOpenCreate);
      if (in.ok() && out.ok()) {
        int32_t ifd = static_cast<int32_t>(in.value);
        int32_t ofd = static_cast<int32_t>(out.value);
        uint64_t done = 0;
        while (done < bytes) {
          uint64_t chunk = std::min<uint64_t>(bytes - done, 1 << 20);
          v.Read(ifd, chunk);
          v.Write(ofd, chunk);
          done += chunk;
        }
        v.Fsync(ofd);
        v.Close(ofd);
        v.Close(ifd);
      }
    }
    ctx_->Join(db);
  }

  // Atomic-save edit loop with a save-writer worker: the worker creates the
  // (reused-name!) scratch file with O_EXCL, writes and fsyncs it, and the
  // main thread renames it over the original and refreshes xattrs. The
  // temp-name reuse creates path generations, and the cross-thread
  // create/rename interplay is exactly what breaks under unconstrained
  // replay (EEXIST on the scratch create, ENOENT on the rename).
  void EditItems(uint32_t count) {
    vfs::Vfs& v = fs();
    sim::SimThreadId db = ctx_->Spawn("edit-db", [this, count] { UpdateDatabase(count); });
    std::string tmp = app_dir_ + "/tmp/.edit_scratch";
    uint64_t bytes = std::min<uint64_t>(ItemBytes(), 2ULL << 20);
    FdChannel saved(ctx_->sim);   // worker -> main: scratch written
    FdChannel renamed(ctx_->sim); // main -> worker: scratch renamed away
    sim::SimThreadId writer = ctx_->Spawn("save-writer", [this, &saved, &renamed, tmp,
                                                          bytes, count] {
      vfs::Vfs& vv = fs();
      for (uint32_t i = 0; i < count; ++i) {
        vfs::VfsResult out = vv.Open(tmp, kOpenWrite | kOpenCreate | kOpenExcl);
        int32_t ofd = out.ok() ? static_cast<int32_t>(out.value) : -1;
        if (ofd >= 0) {
          vv.Write(ofd, bytes);
          vv.Fsync(ofd);
          vv.Close(ofd);
        }
        saved.Send(ofd);
        renamed.Receive();  // wait until the name is free again
      }
    });
    for (uint32_t i = 0; i < count; ++i) {
      std::string item = ItemPath(i);
      vfs::VfsResult in = v.Open(item, kOpenRead);
      if (in.ok()) {
        v.Read(static_cast<int32_t>(in.value), bytes);
        v.Close(static_cast<int32_t>(in.value));
      }
      ctx_->Compute(Us(300));  // apply the edit
      saved.Receive();
      v.Rename(tmp, item);
      v.SetXattr(item, "com.apple.metadata:kMDItemWhereFroms", 64);
      renamed.Send(0);
    }
    ctx_->Join(writer);
    ctx_->Join(db);
  }

  void DeleteItems(uint32_t count) {
    vfs::Vfs& v = fs();
    sim::SimThreadId db = ctx_->Spawn("del-db", [this, count] { UpdateDatabase(count); });
    for (uint32_t i = 0; i < count; ++i) {
      std::string item = ItemPath(i);
      v.Lstat(item);
      v.Unlink(item);
    }
    ctx_->Join(db);
  }

  // Browsing/playback: concurrent reads of items and the thumbnail cache.
  void PlayItems(uint32_t count) {
    vfs::Vfs& v = fs();
    Rng rng = ctx_->rng().Fork();
    sim::SimThreadId thumbs = ctx_->Spawn("thumbs", [this, count, rng]() mutable {
      vfs::Vfs& vv = fs();
      vfs::VfsResult o = vv.Open(app_dir_ + "/cache/thumbs.db", kOpenRead);
      if (!o.ok()) {
        return;
      }
      int32_t fd = static_cast<int32_t>(o.value);
      uint64_t blocks = (16ULL << 20) / 4096;
      for (uint32_t i = 0; i < count * 2; ++i) {
        vv.Pread(fd, 16384, static_cast<int64_t>(rng.NextBelow(blocks - 4) * 4096));
        ctx_->Compute(Us(50));
      }
      vv.Close(fd);
    });
    uint64_t bytes = std::min<uint64_t>(ItemBytes(), 4ULL << 20);
    for (uint32_t i = 0; i < count; ++i) {
      std::string item = ItemPath(i % std::max<uint32_t>(spec_.scale, 1));
      v.GetXattr(item, "com.apple.quarantine");
      vfs::VfsResult o = v.Open(item, kOpenRead);
      if (o.ok()) {
        int32_t fd = static_cast<int32_t>(o.value);
        uint64_t done = 0;
        while (done < bytes) {
          uint64_t chunk = std::min<uint64_t>(bytes - done, 512 << 10);
          v.Read(fd, chunk);
          done += chunk;
        }
        v.Close(fd);
      }
      ctx_->Compute(Us(500));  // render/play
    }
    ctx_->Join(thumbs);
  }

  // iMovie-style export: one big sequential output with periodic fsync.
  void ExportMovie() {
    vfs::Vfs& v = fs();
    // Source read thread feeds a writer thread through the fd channel.
    FdChannel chan(ctx_->sim);
    sim::SimThreadId writer = ctx_->Spawn("export-writer", [this, &chan] {
      vfs::Vfs& vv = fs();
      int32_t fd = chan.Receive();
      for (uint32_t i = 0; i < 192; ++i) {
        vv.Write(fd, 1 << 20);
        if (i % 32 == 31) {
          vv.Fsync(fd);
        }
        ctx_->Compute(Us(400));  // encode
      }
      vv.Fsync(fd);
      vv.Close(fd);
    });
    vfs::VfsResult in = v.Open(ItemPath(0), kOpenRead);
    vfs::VfsResult out =
        v.Open(app_dir_ + "/export.mov", kOpenWrite | kOpenCreate | kOpenTrunc);
    if (out.ok()) {
      chan.Send(static_cast<int32_t>(out.value));
    }
    if (in.ok()) {
      int32_t ifd = static_cast<int32_t>(in.value);
      for (uint32_t i = 0; i < 48; ++i) {
        v.Read(ifd, 1 << 20);
        ctx_->Compute(Us(100));
      }
      v.Close(ifd);
    }
    ctx_->Join(writer);
  }

  // iWork save: write a fresh package directory next to the document, then
  // atomically swap it in with a directory rename.
  void SaveDocument(bool with_media) {
    vfs::Vfs& v = fs();
    std::string doc = DocPackage();
    std::string tmp = doc + ".sb-save";
    v.Mkdir(tmp);
    vfs::VfsResult idx = v.Open(tmp + "/index.xml", kOpenWrite | kOpenCreate);
    if (idx.ok()) {
      int32_t fd = static_cast<int32_t>(idx.value);
      v.Write(fd, 256 << 10);
      v.Fsync(fd);
      v.Close(fd);
    }
    // Package parts are written by a worker pool: the main thread opens
    // each part and hands the fd off; the worker writes and closes it.
    uint32_t parts = std::max<uint32_t>(spec_.scale, 2);
    FdChannel to_part_writer(ctx_->sim);
    sim::SimThreadId part_writer =
        ctx_->Spawn("part-writer", [this, &to_part_writer, parts, with_media] {
          vfs::Vfs& vv = fs();
          for (uint32_t i = 0; i < parts; ++i) {
            int32_t fd = to_part_writer.Receive();
            if (fd >= 0) {
              vv.Write(fd, with_media ? (1 << 20) : (64 << 10));
              vv.Close(fd);
            }
            ctx_->Compute(Us(50));
          }
        });
    for (uint32_t i = 0; i < parts; ++i) {
      vfs::VfsResult p = v.Open(StrFormat("%s/part%u.bin", tmp.c_str(), i),
                                kOpenWrite | kOpenCreate);
      to_part_writer.Send(p.ok() ? static_cast<int32_t>(p.value) : -1);
      ctx_->Compute(Us(100));  // serialise the next part
    }
    ctx_->Join(part_writer);
    vfs::VfsResult prev = v.Open(tmp + "/preview.jpg", kOpenWrite | kOpenCreate);
    if (prev.ok()) {
      v.Write(static_cast<int32_t>(prev.value), 1 << 20);
      v.Fsync(static_cast<int32_t>(prev.value));
      v.Close(static_cast<int32_t>(prev.value));
    }
    // Swap: old package -> trash name, new -> live, then delete old.
    std::string old = doc + ".old";
    v.Rename(doc, old);
    v.Rename(tmp, doc);
    RemoveTree(old);
    v.SetXattr(doc + "/index.xml", "com.apple.lastuseddate#PS", 16);
  }

  void RemoveTree(const std::string& dir) {
    vfs::Vfs& v = fs();
    vfs::VfsResult d = v.Open(dir, kOpenRead);
    if (d.ok()) {
      v.GetDirEntries(static_cast<int32_t>(d.value), 8192);
      v.Close(static_cast<int32_t>(d.value));
    }
    v.Unlink(dir + "/index.xml");
    v.Unlink(dir + "/preview.jpg");
    for (uint32_t i = 0; i < spec_.scale; ++i) {
      v.Unlink(StrFormat("%s/part%u.bin", dir.c_str(), i));
    }
    v.Rmdir(dir);
  }

  void OpenDocument() {
    vfs::Vfs& v = fs();
    std::string doc = DocPackage();
    v.Stat(doc);
    vfs::VfsResult d = v.Open(doc, kOpenRead);
    if (d.ok()) {
      v.GetDirEntries(static_cast<int32_t>(d.value), 8192);
      v.Close(static_cast<int32_t>(d.value));
    }
    // Parts load on a worker while the main thread parses the index.
    sim::SimThreadId loader = ctx_->Spawn("part-loader", [this, doc] {
      vfs::Vfs& vv = fs();
      for (uint32_t i = 0; i < spec_.scale; ++i) {
        vfs::VfsResult p = vv.Open(StrFormat("%s/part%u.bin", doc.c_str(), i), kOpenRead);
        if (p.ok()) {
          vv.Read(static_cast<int32_t>(p.value), 64 << 10);
          vv.Close(static_cast<int32_t>(p.value));
        }
        ctx_->Compute(Us(100));
      }
    });
    vfs::VfsResult idx = v.Open(doc + "/index.xml", kOpenRead);
    if (idx.ok()) {
      int32_t fd = static_cast<int32_t>(idx.value);
      v.Read(fd, 200 << 10);
      v.Close(fd);
    }
    v.GetXattr(doc + "/index.xml", "com.apple.lastuseddate#PS");
    ctx_->Join(loader);
  }

  // Export to a foreign format: read the package, write one flat file.
  void ExportDocument(const std::string& format, bool with_media) {
    OpenDocument();
    vfs::Vfs& v = fs();
    std::string out_path = app_dir_ + "/export." + format;
    std::string tmp = out_path + ".tmp";
    vfs::VfsResult o = v.Open(tmp, kOpenWrite | kOpenCreate | kOpenExcl);
    if (o.ok()) {
      int32_t fd = static_cast<int32_t>(o.value);
      uint64_t bytes = (with_media ? 8ULL : 1ULL) << 20;
      uint64_t done = 0;
      while (done < bytes) {
        v.Write(fd, 256 << 10);
        done += 256 << 10;
        ctx_->Compute(Us(200));
      }
      v.Fsync(fd);
      v.Close(fd);
      v.Rename(tmp, out_path);
    }
  }

  // Library-database maintenance: small pwrites + periodic fsync.
  void UpdateDatabase(uint32_t updates) {
    vfs::Vfs& v = fs();
    vfs::VfsResult o = v.Open(app_dir_ + "/Library.db", kOpenRead | kOpenWrite);
    if (!o.ok()) {
      return;
    }
    int32_t fd = static_cast<int32_t>(o.value);
    Rng rng = ctx_->rng().Fork();
    uint64_t blocks = (8ULL << 20) / 4096;
    for (uint32_t i = 0; i < updates; ++i) {
      uint64_t block = rng.NextBelow(blocks);
      v.Pread(fd, 4096, static_cast<int64_t>(block * 4096));
      v.Pwrite(fd, 4096, static_cast<int64_t>(block * 4096));
      if (i % 8 == 7 || i + 1 == updates) {
        v.Fsync(fd);
      }
    }
    v.Close(fd);
  }

  void ShutdownPhase() {
    vfs::Vfs& v = fs();
    // Save preferences: the classic reused-temp-name atomic update.
    std::string pref = app_dir_ + "/config/pref0.plist";
    std::string tmp = app_dir_ + "/config/.pref0.plist.new";
    for (int round = 0; round < 2; ++round) {
      vfs::VfsResult o = v.Open(tmp, kOpenWrite | kOpenCreate | kOpenExcl);
      if (o.ok()) {
        int32_t fd = static_cast<int32_t>(o.value);
        v.Write(fd, 4096);
        v.Fsync(fd);
        v.Close(fd);
        v.Rename(tmp, pref);
      }
    }
  }

  MagritteSpec spec_;
  AppContext* ctx_ = nullptr;
  std::string app_dir_;
  std::string media_dir_;
};

std::vector<MagritteSpec> BuildSuite() {
  std::vector<MagritteSpec> suite;
  auto add = [&suite](const char* app, const char* scenario, uint32_t scale,
                      uint32_t gaps) {
    suite.push_back(MagritteSpec{app, scenario, scale, gaps});
  };
  // iPhoto (400 photos, as in the paper's trace names).
  add("iphoto", "start", 400, 1);
  add("iphoto", "import", 400, 2);
  add("iphoto", "duplicate", 400, 1);
  add("iphoto", "edit", 400, 1);
  add("iphoto", "delete", 400, 1);
  add("iphoto", "view", 400, 1);
  // iTunes.
  add("itunes", "startsmall", 24, 0);
  add("itunes", "importsmall", 16, 0);
  add("itunes", "importmovie", 1, 0);
  add("itunes", "album", 12, 0);
  add("itunes", "movie", 1, 0);
  // iMovie.
  add("imovie", "start", 4, 1);
  add("imovie", "import", 2, 1);
  add("imovie", "add", 4, 2);
  add("imovie", "export", 1, 2);
  // Pages (15 pages).
  add("pages", "start", 15, 2);
  add("pages", "create", 15, 2);
  add("pages", "createphoto", 15, 2);
  add("pages", "open", 15, 2);
  add("pages", "pdf", 15, 2);
  add("pages", "pdfphoto", 15, 2);
  add("pages", "doc", 15, 2);
  add("pages", "docphoto", 15, 2);
  // Numbers (5 sheets).
  add("numbers", "start", 5, 0);
  add("numbers", "createcol", 5, 0);
  add("numbers", "open", 5, 0);
  add("numbers", "xls", 5, 0);
  // Keynote (20 slides).
  add("keynote", "start", 20, 0);
  add("keynote", "create", 20, 0);
  add("keynote", "createphoto", 20, 1);
  add("keynote", "play", 20, 0);
  add("keynote", "playphoto", 20, 0);
  add("keynote", "ppt", 20, 0);
  add("keynote", "pptphoto", 20, 0);
  return suite;
}

}  // namespace

const std::vector<MagritteSpec>& MagritteSuite() {
  static const std::vector<MagritteSpec>* kSuite = new std::vector(BuildSuite());
  ARTC_CHECK(kSuite->size() == 34);
  return *kSuite;
}

const MagritteSpec* LookupMagritteSpec(const std::string& full_name) {
  for (const MagritteSpec& spec : MagritteSuite()) {
    if (spec.FullName() == full_name) {
      return &spec;
    }
  }
  return nullptr;
}

const MagritteSpec& FindMagritteSpec(const std::string& full_name) {
  const MagritteSpec* spec = LookupMagritteSpec(full_name);
  ARTC_CHECK_MSG(spec != nullptr, "unknown magritte workload '%s'", full_name.c_str());
  return *spec;
}

std::unique_ptr<Workload> MakeMagritteWorkload(const MagritteSpec& spec) {
  return std::make_unique<DesktopApp>(spec);
}

TracedRun TraceMagritte(const MagritteSpec& spec, const SourceConfig& config) {
  std::unique_ptr<Workload> w = MakeMagritteWorkload(spec);
  TracedRun run = TraceWorkload(*w, config);
  // Model the iBench traces' missing xattr-initialization information: strip
  // the recorded xattrs from the first `xattr_init_gaps` media items, so the
  // replay initializer cannot recreate them and the traced getxattr
  // successes fail during replay (in every constrained mode).
  uint32_t stripped = 0;
  for (trace::SnapshotEntry& e : run.snapshot.entries) {
    if (stripped >= spec.xattr_init_gaps) {
      break;
    }
    if (e.type == trace::SnapshotEntryType::kFile && !e.xattr_names.empty() &&
        e.path.find("/media/item") != std::string::npos) {
      e.xattr_names.clear();
      stripped++;
    }
  }
  return run;
}

}  // namespace artc::workloads
