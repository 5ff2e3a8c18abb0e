// Cache-line / vector-register aligned storage.
//
// All hot arrays in the MI kernels (expression rows, B-spline weight tables,
// joint histograms) are allocated through AlignedBuffer so that 512-bit
// aligned loads/stores are always legal and rows never straddle cache lines
// shared with another thread's data (false-sharing avoidance).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "util/contracts.h"

namespace tinge {

/// Alignment used for all SIMD-visible allocations. 64 bytes covers both a
/// full cache line and a 512-bit vector register.
inline constexpr std::size_t kSimdAlignment = 64;

/// Rounds `n` up to the next multiple of `multiple` (a power of two or not).
constexpr std::size_t round_up(std::size_t n, std::size_t multiple) {
  return multiple == 0 ? n : ((n + multiple - 1) / multiple) * multiple;
}

/// Raw 64-byte-aligned allocation of `count` T, padded to a whole number of
/// cache lines. The memory is NOT initialized — no page of it is touched —
/// so the caller controls which thread (and therefore, under first-touch
/// NUMA policy, which node) faults each page in. Free with aligned_free.
template <typename T>
T* aligned_alloc_uninit(std::size_t count) {
  if (count == 0) return nullptr;
  const std::size_t bytes = round_up(count * sizeof(T), kSimdAlignment);
  T* data = static_cast<T*>(std::aligned_alloc(kSimdAlignment, bytes));
  if (data == nullptr) throw std::bad_alloc();
  return data;
}

inline void aligned_free(void* p) noexcept { std::free(p); }

/// Tag selecting AlignedBuffer's uninitialized (first-touch-deferred)
/// constructor.
struct Uninitialized {};
inline constexpr Uninitialized kUninitialized{};

/// A fixed-size, 64-byte-aligned, zero-initialized array of trivially
/// copyable T. Movable, non-copyable (hot buffers should not be copied by
/// accident; use explicit clone()).
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) : size_(count) {
    if (count == 0) return;
    data_ = aligned_alloc_uninit<T>(count);
    for (std::size_t i = 0; i < count; ++i) data_[i] = T{};
  }

  /// Allocates without touching the memory: pages fault in on first write,
  /// which under Linux's first-touch policy places them on the writing
  /// thread's NUMA node. Caller must initialize every element it reads.
  AlignedBuffer(std::size_t count, Uninitialized) : size_(count) {
    if (count == 0) return;
    data_ = aligned_alloc_uninit<T>(count);
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Deep copy; deliberately spelled out rather than a copy constructor.
  AlignedBuffer clone() const {
    AlignedBuffer copy(size_);
    for (std::size_t i = 0; i < size_; ++i) copy.data_[i] = data_[i];
    return copy;
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) {
    TINGE_EXPECTS(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    TINGE_EXPECTS(i < size_);
    return data_[i];
  }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

  void fill(const T& value) {
    for (std::size_t i = 0; i < size_; ++i) data_[i] = value;
  }

  /// The same allocation as a buffer of U, which has T's size: storage
  /// reuse once every element's bytes have been rewritten as a U with
  /// std::memcpy (the consuming rank transform turns float rows into uint32
  /// ranks in place).
  template <typename U>
  AlignedBuffer<U> reinterpret_as() && {
    static_assert(sizeof(U) == sizeof(T) && alignof(U) == alignof(T));
    AlignedBuffer<U> out;
    if (data_ != nullptr)
      out.data_ = std::launder(reinterpret_cast<U*>(data_));
    out.size_ = size_;
    data_ = nullptr;
    size_ = 0;
    return out;
  }

 private:
  template <typename>
  friend class AlignedBuffer;

  void release() noexcept {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tinge
