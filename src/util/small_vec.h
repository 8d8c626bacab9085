// Growable array of trivially copyable elements whose first N live inside
// the object. Per-event and per-resource lists are almost always short, so
// keeping them inline takes the allocator off the hot path; a list that
// outgrows N moves to the heap and grows geometrically from there.
#ifndef SRC_UTIL_SMALL_VEC_H_
#define SRC_UTIL_SMALL_VEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

namespace artc::util {

template <typename T, uint32_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);
  static_assert(N > 0);

 public:
  SmallVec() {}
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;
  SmallVec(SmallVec&& other) noexcept { Take(other); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      Release();
      Take(other);
    }
    return *this;
  }
  ~SmallVec() { Release(); }

  T* data() { return spilled() ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const { return spilled() ? heap_ : reinterpret_cast<const T*>(inline_); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Bytes held on the heap (0 while the elements fit inline).
  size_t heap_bytes() const { return spilled() ? cap_ * sizeof(T) : 0; }

  void push_back(const T& value) {
    if (size_ == cap_) {
      Grow();
    }
    new (data() + size_) T(value);
    size_++;
  }
  void pop_back() { size_--; }
  // Keeps a spilled list's heap block, as std::vector keeps its capacity.
  void clear() { size_ = 0; }

 private:
  bool spilled() const { return cap_ > N; }

  void Grow() {
    const uint32_t cap = cap_ * 2;
    T* grown = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(static_cast<void*>(grown), data(), size_ * sizeof(T));
    Release();
    heap_ = grown;
    cap_ = cap;
  }
  void Release() {
    if (spilled()) {
      ::operator delete(heap_);
    }
  }
  // Moves other's elements here and leaves it empty and inline.
  void Take(SmallVec& other) {
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.spilled()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    other.size_ = 0;
    other.cap_ = N;
  }

  uint32_t size_ = 0;
  uint32_t cap_ = N;
  union {
    alignas(T) unsigned char inline_[N * sizeof(T)];
    T* heap_;
  };
};

}  // namespace artc::util

#endif  // SRC_UTIL_SMALL_VEC_H_
