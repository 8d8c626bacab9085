#include "src/trace/snapshot.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/trace/trace_io.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace artc::trace {

void FsSnapshot::AddDir(const std::string& path) {
  SnapshotEntry e;
  e.type = SnapshotEntryType::kDir;
  e.path = NormalizePath(path);
  entries.push_back(std::move(e));
}

void FsSnapshot::AddFile(const std::string& path, uint64_t size) {
  SnapshotEntry e;
  e.type = SnapshotEntryType::kFile;
  e.path = NormalizePath(path);
  e.size = size;
  entries.push_back(std::move(e));
}

void FsSnapshot::AddSymlink(const std::string& path, const std::string& target) {
  SnapshotEntry e;
  e.type = SnapshotEntryType::kSymlink;
  e.path = NormalizePath(path);
  e.symlink_target = target;
  entries.push_back(std::move(e));
}

void FsSnapshot::AddSpecial(const std::string& path, const std::string& kind) {
  SnapshotEntry e;
  e.type = SnapshotEntryType::kSpecial;
  e.path = NormalizePath(path);
  e.special_kind = kind;
  entries.push_back(std::move(e));
}

const SnapshotEntry* FsSnapshot::Find(const std::string& path) const {
  std::string norm = NormalizePath(path);
  for (const SnapshotEntry& e : entries) {
    if (e.path == norm) {
      return &e;
    }
  }
  return nullptr;
}

void FsSnapshot::Canonicalize() {
  std::set<std::string> have;
  for (const SnapshotEntry& e : entries) {
    have.insert(e.path);
  }
  std::vector<SnapshotEntry> missing;
  for (const SnapshotEntry& e : entries) {
    std::string_view dir = DirName(e.path);
    while (dir != "/" && have.insert(std::string(dir)).second) {
      SnapshotEntry d;
      d.type = SnapshotEntryType::kDir;
      d.path = std::string(dir);
      missing.push_back(std::move(d));
      dir = DirName(dir);
    }
  }
  entries.insert(entries.end(), missing.begin(), missing.end());
  std::stable_sort(entries.begin(), entries.end(),
                   [](const SnapshotEntry& a, const SnapshotEntry& b) {
                     // Shorter paths (ancestors) first, then lexicographic.
                     size_t da = std::count(a.path.begin(), a.path.end(), '/');
                     size_t db = std::count(b.path.begin(), b.path.end(), '/');
                     if (da != db) {
                       return da < db;
                     }
                     return a.path < b.path;
                   });
  // Drop duplicate paths, keeping the first definition.
  std::set<std::string> seen;
  std::vector<SnapshotEntry> unique;
  unique.reserve(entries.size());
  for (SnapshotEntry& e : entries) {
    if (seen.insert(e.path).second) {
      unique.push_back(std::move(e));
    }
  }
  entries = std::move(unique);
}

FsSnapshot FsSnapshot::Overlay(const FsSnapshot& other) const {
  FsSnapshot merged = *this;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < merged.entries.size(); ++i) {
    index[merged.entries[i].path] = i;
  }
  for (const SnapshotEntry& e : other.entries) {
    auto it = index.find(e.path);
    if (it == index.end()) {
      merged.entries.push_back(e);
      index[e.path] = merged.entries.size() - 1;
    } else {
      SnapshotEntry& mine = merged.entries[it->second];
      if (mine.type == e.type && e.type == SnapshotEntryType::kFile) {
        mine.size = std::max(mine.size, e.size);
      }
    }
  }
  merged.Canonicalize();
  return merged;
}

bool ParseSnapshotLine(std::string_view line, FsSnapshot* snap,
                       std::string* error) {
  if (line.empty() || line[0] == '#') {
    return true;
  }
  // Format: <type> <path> [extra]
  //   D /a/b
  //   F /a/b/c 4096 [xattr1,xattr2]
  //   L /a/b/link -> /target
  //   S /dev/random random
  std::istringstream ls{std::string(line)};
  std::string type;
  std::string path;
  ls >> type >> path;
  if (path.empty()) {
    *error = "snapshot entry has no path";
    return false;
  }
  if (type == "D") {
    snap->AddDir(path);
  } else if (type == "F") {
    uint64_t size = 0;
    ls >> size;
    snap->AddFile(path, size);
    std::string xattrs;
    ls >> xattrs;
    if (!xattrs.empty()) {
      for (std::string_view x : SplitString(xattrs, ',')) {
        if (!x.empty()) {
          snap->entries.back().xattr_names.emplace_back(x);
        }
      }
    }
  } else if (type == "L") {
    std::string arrow;
    std::string target;
    ls >> arrow >> target;
    if (arrow != "->") {
      *error = "snapshot symlink entry has no '->'";
      return false;
    }
    snap->AddSymlink(path, target);
  } else if (type == "S") {
    std::string kind;
    ls >> kind;
    snap->AddSpecial(path, kind);
  } else {
    *error = StrFormat("unknown snapshot entry type '%s'", type.c_str());
    return false;
  }
  return true;
}

bool ReadSnapshot(std::istream& in, FsSnapshot* out, ParseDiag* diag) {
  FsSnapshot snap;
  std::string line;
  size_t lineno = 0;
  uint64_t offset = 0;
  while (std::getline(in, line)) {
    lineno++;
    const uint64_t line_offset = offset;
    offset += line.size() + 1;
    std::string error;
    if (!ParseSnapshotLine(line, &snap, &error)) {
      diag->line = lineno;
      diag->byte_offset = line_offset;
      diag->message = std::move(error);
      return false;
    }
  }
  snap.Canonicalize();
  *out = std::move(snap);
  return true;
}

bool ReadSnapshotFile(const std::string& path, FsSnapshot* out,
                      ParseDiag* diag) {
  std::ifstream in(path);
  diag->file = path;
  if (!in.good()) {
    diag->message = "cannot open snapshot file";
    return false;
  }
  return ReadSnapshot(in, out, diag);
}

FsSnapshot ReadSnapshot(std::istream& in) {
  FsSnapshot snap;
  ParseDiag diag;
  ARTC_CHECK_MSG(ReadSnapshot(in, &snap, &diag), "snapshot parse error: %s",
                 diag.Format().c_str());
  return snap;
}

FsSnapshot ReadSnapshotFile(const std::string& path) {
  FsSnapshot snap;
  ParseDiag diag;
  ARTC_CHECK_MSG(ReadSnapshotFile(path, &snap, &diag), "%s",
                 diag.Format().c_str());
  return snap;
}

void WriteSnapshot(const FsSnapshot& snapshot, std::ostream& out) {
  out << "# artc file-tree snapshot, " << snapshot.entries.size() << " entries\n";
  for (const SnapshotEntry& e : snapshot.entries) {
    switch (e.type) {
      case SnapshotEntryType::kDir:
        out << "D " << e.path << "\n";
        break;
      case SnapshotEntryType::kFile: {
        out << "F " << e.path << " " << e.size;
        if (!e.xattr_names.empty()) {
          out << " ";
          for (size_t i = 0; i < e.xattr_names.size(); ++i) {
            if (i > 0) {
              out << ",";
            }
            out << e.xattr_names[i];
          }
        }
        out << "\n";
        break;
      }
      case SnapshotEntryType::kSymlink:
        out << "L " << e.path << " -> " << e.symlink_target << "\n";
        break;
      case SnapshotEntryType::kSpecial:
        out << "S " << e.path << " " << e.special_kind << "\n";
        break;
    }
  }
}

void WriteSnapshotFile(const FsSnapshot& snapshot, const std::string& path) {
  std::ofstream out(path);
  ARTC_CHECK_MSG(out.good(), "cannot write snapshot file %s", path.c_str());
  WriteSnapshot(snapshot, out);
}

}  // namespace artc::trace
