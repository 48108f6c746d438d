// Counting replacements of the global allocation functions, for the tests
// and benches that pin how often a code path allocates (DESIGN.md §14).
//
// Include this header from exactly one translation unit of an executable:
// it defines the replaceable operator new/delete family, which a program
// defines at most once. Every allocation through operator new, from any
// thread, adds one to allocations(); the storage itself comes from
// malloc/free, so sanitizers still see every block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace karma::util {

inline std::atomic<std::uint64_t> g_allocations{0};

/// operator new calls so far in this process.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

inline void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace karma::util

void* operator new(std::size_t size) {
  return karma::util::counted_alloc_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  return karma::util::counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return karma::util::counted_alloc_or_throw(size,
                                             static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return karma::util::counted_alloc_or_throw(size,
                                             static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return karma::util::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return karma::util::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return karma::util::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return karma::util::counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
