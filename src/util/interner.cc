#include "src/util/interner.h"

namespace artc::util {

StringInterner::~StringInterner() {
  for (std::atomic<std::string*>& seg : segments_) {
    delete[] seg.load(std::memory_order_relaxed);
  }
}

uint32_t StringInterner::Append(std::string_view s) {
  const uint32_t id = size_.load(std::memory_order_relaxed);
  ARTC_CHECK_MSG(id < UINT32_MAX, "interner id space exhausted");
  const uint64_t x = (static_cast<uint64_t>(id) >> kFirstBits) + 1;
  const int seg = std::bit_width(x) - 1;
  std::string* base = segments_[seg].load(std::memory_order_relaxed);
  if (base == nullptr) {
    base = new std::string[kFirstSegment << seg];
    segments_[seg].store(base, std::memory_order_relaxed);
  }
  std::string& entry = base[id - ((uint64_t{1} << seg) - 1) * kFirstSegment];
  entry.assign(s);
  ids_.emplace(entry, id);
  payload_ += s.size();
  // Publishes the entry (and its segment pointer) to lock-free readers.
  size_.store(id + 1, std::memory_order_release);
  return id;
}

uint32_t StringInterner::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(s);
  return it != ids_.end() ? it->second : Append(s);
}

void StringInterner::InternBatch(const std::string_view* strs, uint32_t* ids,
                                 size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < count; ++i) {
    auto it = ids_.find(strs[i]);
    ids[i] = it != ids_.end() ? it->second : Append(strs[i]);
  }
}

size_t StringInterner::payload_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return payload_;
}

}  // namespace artc::util
