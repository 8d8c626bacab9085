// FIFO queue over a power-of-two ring that keeps its storage. std::deque
// allocates a node as its tail crosses into a new one and frees a node as
// its head leaves one, so a steady push/pop stream allocates every few
// operations. RingQueue allocates only when it outgrows its high-water mark.
#ifndef SRC_UTIL_RING_QUEUE_H_
#define SRC_UTIL_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace artc::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return slots_[head_]; }
  // The i-th element from the front.
  const T& operator[](size_t i) const { return slots_[(head_ + i) & (slots_.size() - 1)]; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    size_++;
  }

  // Drops the front element; move it out through front() first to keep it.
  void pop_front() {
    slots_[head_] = T();
    head_ = (head_ + 1) & (slots_.size() - 1);
    size_--;
  }

 private:
  void Grow() {
    std::vector<T> grown(slots_.empty() ? 8 : slots_.size() * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two size, or empty
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace artc::util

#endif  // SRC_UTIL_RING_QUEUE_H_
