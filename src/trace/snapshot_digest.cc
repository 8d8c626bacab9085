// SnapshotDigest has its own object file so that a program which reads and
// writes snapshots but never digests them (perfbench_pipeline) links none of
// it, and its code layout does not move when the digest changes.

#include <sstream>

#include "src/trace/snapshot.h"

namespace artc::trace {

uint64_t SnapshotDigest(const FsSnapshot& snapshot) {
  std::ostringstream out;
  WriteSnapshot(snapshot, out);
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : out.view()) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace artc::trace
