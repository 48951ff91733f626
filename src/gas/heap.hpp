// Per-thread shared-segment allocator.
//
// Each UPC thread owns one segment (a growable arena of real host memory).
// Allocation is bump-pointer with alignment; segments are stable in memory
// (deque of fixed chunks) so raw pointers never invalidate — a property the
// whole GlobalPtr design depends on.
//
// Zero contract: fresh shared memory is zero. Only the bytes handed out are
// zeroed, never the chunk: chunks are allocated uninitialised, so the OS
// commits a page only when an allocation first touches it, and a rank that
// allocates 8 B costs one page, not the 8 MiB chunk. This is stricter than
// UPC, which zero-initialises static shared arrays but not upc_alloc, and
// callers may rely on it. The zeroing is required: a recycled host chunk
// can carry an earlier heap's bytes. Under AddressSanitizer every byte of a
// chunk not yet handed out is poisoned, so an over-run past an allocation
// into its chunk's tail or alignment padding is reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fault/hooks.hpp"
#include "gas/global_ptr.hpp"
#include "gas/global_ptr2d.hpp"

namespace hupc::gas {

class Segment {
 public:
  explicit Segment(std::size_t chunk_bytes = kDefaultChunk);

  /// Allocate `bytes` zeroed bytes with `align` (a power of two, at most
  /// alignof(std::max_align_t)). Never returns nullptr.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align);

  /// Deterministic virtual offset of `p` inside this segment, or -1 when
  /// `p` does not point into it. Chunks occupy consecutive virtual ranges
  /// in allocation order, so the offset depends only on the allocation
  /// sequence — never on where the OS mapped a chunk (ASLR), which holds
  /// because no alignment exceeds the one every chunk has. Anything that
  /// must be run-stable (the comm::ReadCache line tags) keys on these
  /// offsets instead of raw addresses.
  [[nodiscard]] std::int64_t offset_of(const void* p) const noexcept;

  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return allocated_;
  }

  static constexpr std::size_t kDefaultChunk = 8u << 20;  // 8 MiB

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size;
    std::size_t used;
  };
  std::size_t chunk_bytes_;
  std::size_t allocated_ = 0;
  std::deque<Chunk> chunks_;
};

/// The whole partitioned heap: one Segment per UPC thread.
class SharedHeap {
 public:
  explicit SharedHeap(int threads);

  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(segments_.size());
  }

  /// upc_alloc analogue: `count` Ts with affinity to thread `owner`, all
  /// bytes zero (see the zero contract above).
  /// Under heap-pressure fault injection the allocation may throw
  /// std::bad_alloc instead (see set_fault); without a hook it never fails.
  template <class T>
  [[nodiscard]] GlobalPtr<T> alloc(int owner, std::size_t count) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types would make offset_of host-dependent");
    maybe_inject_failure(owner, count * sizeof(T));
    auto* p = static_cast<T*>(segment(owner).allocate(
        count * sizeof(T), alignof(T) < 8 ? 8 : alignof(T)));
    return GlobalPtr<T>{owner, p};
  }

  /// upc_all_alloc analogue for `shared [B] T a[N]`: every thread's blocks
  /// are carved from its own segment; returns the layout descriptor.
  template <class T>
  [[nodiscard]] SharedArray<T> all_alloc(std::size_t size, std::size_t block) {
    std::vector<T*> slices;
    slices.reserve(segments_.size());
    SharedArray<T> probe(size, block,
                         std::vector<T*>(segments_.size(), nullptr));
    for (int r = 0; r < threads(); ++r) {
      const std::size_t n = probe.local_size(r);
      slices.push_back(n == 0 ? nullptr : alloc<T>(r, n).raw);
    }
    return SharedArray<T>(size, block, std::move(slices));
  }

  /// 2-D tiled allocation: `shared [BR][BC] T a[R][C]` (multidimensional
  /// blocking). Edge tiles are padded to full BR*BC size.
  template <class T>
  [[nodiscard]] SharedArray2D<T> all_alloc_2d(std::size_t rows,
                                              std::size_t cols,
                                              std::size_t block_rows,
                                              std::size_t block_cols) {
    SharedArray2D<T> probe(rows, cols, block_rows, block_cols,
                           std::vector<T*>(segments_.size(), nullptr));
    std::vector<T*> slices;
    slices.reserve(segments_.size());
    for (int r = 0; r < threads(); ++r) {
      const std::size_t n = probe.tiles_of(r) * probe.tile_elems();
      slices.push_back(n == 0 ? nullptr : alloc<T>(r, n).raw);
    }
    return SharedArray2D<T>(rows, cols, block_rows, block_cols,
                            std::move(slices));
  }

  [[nodiscard]] Segment& segment(int owner) {
    return *segments_[static_cast<std::size_t>(owner)];
  }

  /// Virtual offset of `p` inside `owner`'s segment, or -1 when it does
  /// not point there (see Segment::offset_of for the determinism contract).
  [[nodiscard]] std::int64_t offset_of(int owner, const void* p) const noexcept {
    return segments_[static_cast<std::size_t>(owner)]->offset_of(p);
  }

  /// Total bytes handed out across all segments.
  [[nodiscard]] std::size_t bytes_allocated() const noexcept;

  /// Attach a heap-pressure fault hook (non-owning, may be null): each
  /// allocation consults it and throws std::bad_alloc when it fires.
  void set_fault(fault::AllocHook* hook) noexcept { fault_ = hook; }

 private:
  /// Throws std::bad_alloc when the installed hook injects a failure.
  void maybe_inject_failure(int owner, std::size_t bytes) const;

  std::vector<std::unique_ptr<Segment>> segments_;
  fault::AllocHook* fault_ = nullptr;
};

}  // namespace hupc::gas
