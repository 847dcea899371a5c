#ifndef FAIRCLIQUE_COMMON_BITSET_H_
#define FAIRCLIQUE_COMMON_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/bitset_simd.h"

namespace fairclique {

/// Minimal C++17 allocator that over-aligns every allocation, so Bitset word
/// storage starts on a cache line and the vector kernels never straddle one
/// more line than the data needs.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Alignment >= alignof(T), "alignment below natural");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };
  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

/// A fixed-size dynamic bitset: the candidate set of the bitset branch
/// engine. Faster and leaner than std::vector<bool> for its one bulk
/// operation, the fused AssignIntersectDual, which routes through the
/// runtime-dispatched kernel in common/bitset_simd.h (scalar, AVX2, or NEON
/// depending on build and CPU).
///
/// Invariant: bits at positions >= size() in the last word are always zero
/// ("tail-clean"). Every mutator here preserves it and the counting paths
/// assert it in debug builds, so popcounts can run word-parallel without
/// masking. Code writing through words() directly must uphold it too.
class Bitset {
 public:
  Bitset() : size_(0) {}

  /// Creates a bitset of `size` bits, all clear.
  explicit Bitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0ULL) {}

  size_t size() const { return size_; }

  /// Word-level access for kernels operating across Bitsets and arena rows.
  /// Writers must keep the tail-clean invariant (see class comment).
  size_t num_words() const { return words_.size(); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  void Set(size_t i) {
    assert(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void Reset(size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  /// Sets all bits in [0, size).
  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    if (!words_.empty()) words_.back() &= TailMask();
  }

  /// In-place difference: clears every bit that is set in `other`.
  Bitset& operator-=(const Bitset& other) {
    assert(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  /// Index of the first set bit at or after `from`, or `size()` if none.
  size_t NextSetBit(size_t from) const {
    if (from >= size_) return size_;
    const size_t last = words_.size() - 1;
    size_t wi = from >> 6;
    uint64_t w = words_[wi] & (~0ULL << (from & 63));
    while (true) {
      // Mask the final word explicitly rather than trusting the tail-clean
      // invariant: NextSetBit must be exact even mid-mutation.
      if (wi == last) w &= TailMask();
      if (w != 0) {
        return (wi << 6) + static_cast<size_t>(__builtin_ctzll(w));
      }
      if (++wi > last) return size_;
      w = words_[wi];
    }
  }

  /// Calls `fn(i)` for every set bit i in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    assert(TailClean());
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        size_t bit = static_cast<size_t>(__builtin_ctzll(w));
        fn((wi << 6) + bit);
        w &= w - 1;
      }
    }
  }

  /// Fused branch-kernel op: *this = a & b, returning {|a&b|, |a&b&mask|} in
  /// one pass. Replaces the materialize-then-count-twice sequence in the
  /// bitset search engine. `b` may be a raw arena row of the same width.
  simd::DualCount AssignIntersectDual(const Bitset& a, const uint64_t* b,
                                      const Bitset& mask) {
    assert(size_ == a.size_ && size_ == mask.size_);
    assert(a.TailClean() && mask.TailClean());
    return simd::IntersectIntoDual(words_.data(), a.words_.data(), b,
                                   mask.words_.data(), words_.size());
  }

  /// True when no bit beyond size() is set in the last word. Debug-only
  /// sanity hook; the counting paths assert it.
  bool TailClean() const {
    if (words_.empty()) return true;
    return (words_.back() & ~TailMask()) == 0;
  }

 private:
  // Valid-bit mask for the last word (all ones when size_ % 64 == 0).
  uint64_t TailMask() const {
    size_t tail = size_ & 63;
    return tail == 0 ? ~0ULL : (1ULL << tail) - 1;
  }

  size_t size_;
  std::vector<uint64_t, AlignedAllocator<uint64_t, 64>> words_;
};

/// Contiguous 64-byte-aligned block of fixed-width bit rows: the adjacency
/// layout of the bitset search engine. One allocation for all rows, each row
/// padded to a whole cache line, so successive candidate-row intersections
/// walk a dense arena instead of chasing per-row heap allocations.
class BitsetArena {
 public:
  BitsetArena() = default;

  /// `rows` rows of `bits` bits each, all clear.
  BitsetArena(size_t rows, size_t bits)
      : rows_(rows),
        bits_(bits),
        words_per_row_(BytesFor(1, bits) / sizeof(uint64_t)) {
    size_t total = rows_ * words_per_row_;
    if (total != 0) {
      data_ = static_cast<uint64_t*>(
          ::operator new(total * sizeof(uint64_t), std::align_val_t(64)));
      for (size_t i = 0; i < total; ++i) data_[i] = 0;
    }
  }

  /// Bytes an arena of `rows` rows of `bits` bits allocates: each row is
  /// rounded up to whole 64-byte cache lines (8 words).
  static uint64_t BytesFor(uint64_t rows, uint64_t bits) {
    uint64_t words_per_row = ((bits + 63) / 64 + 7) & ~uint64_t{7};
    return rows * words_per_row * sizeof(uint64_t);
  }

  BitsetArena(BitsetArena&& o) noexcept
      : rows_(o.rows_),
        bits_(o.bits_),
        words_per_row_(o.words_per_row_),
        data_(o.data_) {
    o.data_ = nullptr;
    o.rows_ = 0;
  }
  BitsetArena& operator=(BitsetArena&& o) noexcept {
    if (this != &o) {
      Free();
      rows_ = o.rows_;
      bits_ = o.bits_;
      words_per_row_ = o.words_per_row_;
      data_ = o.data_;
      o.data_ = nullptr;
      o.rows_ = 0;
    }
    return *this;
  }
  BitsetArena(const BitsetArena&) = delete;
  BitsetArena& operator=(const BitsetArena&) = delete;
  ~BitsetArena() { Free(); }

  uint64_t* row(size_t r) {
    assert(r < rows_);
    return data_ + r * words_per_row_;
  }
  const uint64_t* row(size_t r) const {
    assert(r < rows_);
    return data_ + r * words_per_row_;
  }

  void SetBit(size_t r, size_t i) {
    assert(i < bits_);
    row(r)[i >> 6] |= 1ULL << (i & 63);
  }

  /// Hints the row into cache ahead of its intersection. No-op on toolchains
  /// without __builtin_prefetch.
  void PrefetchRow(size_t r) const {
    if (r >= rows_) return;
#if defined(__GNUC__) || defined(__clang__)
    const uint64_t* p = data_ + r * words_per_row_;
    for (size_t w = 0; w < words_per_row_; w += 8) {
      __builtin_prefetch(p + w, 0 /*read*/, 1 /*low temporal locality*/);
    }
#endif
  }

 private:
  void Free() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(64));
      data_ = nullptr;
    }
  }

  size_t rows_ = 0;
  size_t bits_ = 0;
  size_t words_per_row_ = 0;
  uint64_t* data_ = nullptr;
};

}  // namespace fairclique

#endif  // FAIRCLIQUE_COMMON_BITSET_H_
