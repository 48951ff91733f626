#include "gas/heap.hpp"

#include <cassert>
#include <cstring>
#include <functional>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define HUPC_HEAP_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define HUPC_HEAP_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define HUPC_HEAP_POISON(p, n) ((void)(p), (void)(n))
#define HUPC_HEAP_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace hupc::gas {

Segment::Segment(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}

void* Segment::allocate(std::size_t bytes, std::size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0);
  // try_fit aligns from the chunk's host address; new[] guarantees only
  // this much, so a larger alignment would make offset_of host-dependent.
  assert(align <= alignof(std::max_align_t));
  if (bytes == 0) bytes = 1;
  allocated_ += bytes;

  auto try_fit = [&](Chunk& c) -> void* {
    auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
    const std::uintptr_t aligned = (base + c.used + align - 1) & ~(align - 1);
    const std::size_t end = static_cast<std::size_t>(aligned - base) + bytes;
    if (end > c.size) return nullptr;
    c.used = end;
    void* p = reinterpret_cast<void*>(aligned);
    HUPC_HEAP_UNPOISON(p, bytes);
    return std::memset(p, 0, bytes);  // the zero contract (heap.hpp)
  };

  if (!chunks_.empty()) {
    if (void* p = try_fit(chunks_.back())) return p;
  }
  const std::size_t size = bytes + align > chunk_bytes_ ? bytes + align
                                                        : chunk_bytes_;
  // Uninitialised on purpose: pages commit only when first touched.
  chunks_.push_back(
      Chunk{std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
  HUPC_HEAP_POISON(chunks_.back().data.get(), size);
  void* p = try_fit(chunks_.back());
  assert(p != nullptr);
  return p;
}

std::int64_t Segment::offset_of(const void* p) const noexcept {
  const auto* b = static_cast<const std::byte*>(p);
  std::int64_t vbase = 0;
  // std::less is a total order even over pointers into unrelated arrays,
  // which the built-in < does not guarantee.
  const std::less<const std::byte*> lt;
  for (const Chunk& c : chunks_) {
    const std::byte* lo = c.data.get();
    if (!lt(b, lo) && lt(b, lo + c.used)) return vbase + (b - lo);
    vbase += static_cast<std::int64_t>(c.size);
  }
  return -1;
}

SharedHeap::SharedHeap(int threads) {
  assert(threads >= 1);
  segments_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    segments_.push_back(std::make_unique<Segment>());
  }
}

std::size_t SharedHeap::bytes_allocated() const noexcept {
  std::size_t total = 0;
  for (const auto& s : segments_) total += s->bytes_allocated();
  return total;
}

void SharedHeap::maybe_inject_failure(int owner, std::size_t bytes) const {
  if (fault_ != nullptr &&
      fault_->fail_alloc(owner, bytes, bytes_allocated())) {
    throw std::bad_alloc();
  }
}

}  // namespace hupc::gas
