// String interner: maps strings to dense 32-bit ids and back. The compile
// pipeline interns path names once and does all subsequent bookkeeping
// (shadow-tree children, path-generation tables) on the ids, so the hot
// annotation loops compare and hash 4-byte integers instead of rebuilding
// std::string keys per component. The process-wide trace string table
// (src/trace/string_table.h) is one of these.
//
// Interned strings never move: each lives in a std::string inside an
// append-only segment, and segment s holds kFirstSegment << s entries, so
// the 25 segment slots cover the whole 32-bit id space without ever
// reallocating one. Str()/View() references stay valid for the interner's
// lifetime.
//
// Thread safety: Intern/InternBatch take a mutex. Str/View/size take no
// lock: an entry is fully built before the release store that raises
// size(), and lookups acquire-load that count before reading the entry, so
// an id may be read on any thread while others keep interning. Parallel
// producers that intern in bulk (the ARTCT writer, the parallel text
// parser) should batch through InternBatch or a LocalBatch: one lock
// acquisition per batch instead of one per string (see
// bench_components_micro for the contended-vs-batched numbers).
#ifndef SRC_UTIL_INTERNER_H_
#define SRC_UTIL_INTERNER_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/util/check.h"

namespace artc::util {

class StringInterner {
 public:
  StringInterner() = default;
  ~StringInterner();
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Returns the id for `s`, assigning the next dense id on first sight.
  uint32_t Intern(std::string_view s);

  // Interns `count` strings under ONE lock acquisition, writing ids[i] for
  // strs[i]. Equivalent to count Intern() calls (same ids, same order of
  // first sight) at a fraction of the contention.
  void InternBatch(const std::string_view* strs, uint32_t* ids, size_t count);

  // The interned string for `id`. Lock-free; valid for the interner's
  // lifetime.
  const std::string& Str(uint32_t id) const {
    ARTC_CHECK_MSG(id < size_.load(std::memory_order_acquire),
                   "interner id %u out of range", id);
    const uint64_t x = (static_cast<uint64_t>(id) >> kFirstBits) + 1;
    const int seg = std::bit_width(x) - 1;
    return segments_[seg].load(std::memory_order_relaxed)
        [id - ((uint64_t{1} << seg) - 1) * kFirstSegment];
  }
  std::string_view View(uint32_t id) const { return Str(id); }

  // Number of distinct strings interned so far.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // Total bytes of string payload stored (diagnostics).
  size_t payload_bytes() const;

 private:
  static constexpr int kFirstBits = 8;
  static constexpr uint64_t kFirstSegment = uint64_t{1} << kFirstBits;
  static constexpr int kSegments = 25;  // kFirstSegment * (2^25 - 1) >= 2^32

  // Appends `s` as the next id; caller holds mu_.
  uint32_t Append(std::string_view s);

  mutable std::mutex mu_;
  std::unordered_map<std::string_view, uint32_t> ids_;  // keys view entries
  std::array<std::atomic<std::string*>, kSegments> segments_{};
  std::atomic<uint32_t> size_{0};
  size_t payload_ = 0;
};

// Worker-local interning cache over a shared StringInterner. Intern() hits
// the private map first — repeat strings (the common case: a trace touches
// the same paths over and over) never take the shared lock — and misses
// fall through to the shared interner. Ids are the SHARED interner's ids,
// so results from different workers compose. Not thread-safe itself: one
// LocalBatch per worker.
class LocalBatch {
 public:
  explicit LocalBatch(StringInterner* shared) : shared_(shared) {}

  uint32_t Intern(std::string_view s) {
    auto it = cache_.find(s);
    if (it != cache_.end()) {
      return it->second;
    }
    const uint32_t id = shared_->Intern(s);
    // Key the cache by the interner's stable copy, not the caller's buffer.
    cache_.emplace(shared_->View(id), id);
    return id;
  }

  size_t cache_size() const { return cache_.size(); }

 private:
  StringInterner* shared_;
  std::unordered_map<std::string_view, uint32_t> cache_;
};

}  // namespace artc::util

#endif  // SRC_UTIL_INTERNER_H_
