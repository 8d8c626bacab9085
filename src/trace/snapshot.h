// Initial file-tree snapshot: the parts of the file system a traced program
// accesses, captured on the source machine and restored on the target before
// replay (paper Sec. 4.3.2). File contents are not recorded — only directory
// structure, file sizes, symlink targets, and extended-attribute names.
#ifndef SRC_TRACE_SNAPSHOT_H_
#define SRC_TRACE_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace artc::trace {

struct ParseDiag;  // trace_io.h

enum class SnapshotEntryType : uint8_t { kDir, kFile, kSymlink, kSpecial };

struct SnapshotEntry {
  SnapshotEntryType type = SnapshotEntryType::kFile;
  std::string path;               // absolute, normalized
  uint64_t size = 0;              // files: length in bytes
  std::string symlink_target;     // symlinks
  std::vector<std::string> xattr_names;  // xattrs present at snapshot time
  std::string special_kind;       // specials: "random", "urandom", "null"
};

struct FsSnapshot {
  std::vector<SnapshotEntry> entries;  // parents always precede children

  void AddDir(const std::string& path);
  void AddFile(const std::string& path, uint64_t size);
  void AddSymlink(const std::string& path, const std::string& target);
  void AddSpecial(const std::string& path, const std::string& kind);

  const SnapshotEntry* Find(const std::string& path) const;
  // Ensures every ancestor directory of every entry exists in the snapshot,
  // inserting missing ones; then sorts parents-before-children.
  void Canonicalize();

  // Returns a snapshot containing this one plus `other`, for overlaying
  // multiple benchmarks into one tree (paper Sec. 4.3.2, concurrent replay
  // of multiple traces). Conflicting entries keep the first snapshot's
  // definition; sizes take the max.
  FsSnapshot Overlay(const FsSnapshot& other) const;
};

// Parses one snapshot-format line, appending its entry to *snap (blank and
// '#' lines add nothing). Returns false with *error set on a malformed
// line. Bundle readers call it on each "#snapshot " line so a diagnostic
// names the line of the file it came from; callers Canonicalize() once the
// last line is in.
bool ParseSnapshotLine(std::string_view line, FsSnapshot* snap,
                       std::string* error);

// Diagnostic-returning readers: on success *out is replaced by the
// canonicalized snapshot; on an open failure or a malformed line, *diag is
// filled, *out is left as it was, and they return false.
bool ReadSnapshot(std::istream& in, FsSnapshot* out, ParseDiag* diag);
bool ReadSnapshotFile(const std::string& path, FsSnapshot* out,
                      ParseDiag* diag);

// Aborting wrappers over the above, for build inputs and fixtures.
FsSnapshot ReadSnapshot(std::istream& in);
FsSnapshot ReadSnapshotFile(const std::string& path);
void WriteSnapshot(const FsSnapshot& snapshot, std::ostream& out);
void WriteSnapshotFile(const FsSnapshot& snapshot, const std::string& path);

}  // namespace artc::trace

#endif  // SRC_TRACE_SNAPSHOT_H_
