#pragma once

/// \file alloc_counter.hpp
/// \brief Process-wide heap-allocation counter for benches and budget tests.
///
/// Include from exactly one translation unit of an executable: outside the
/// sanitizers it replaces the global operator new.  Under AddressSanitizer
/// or ThreadSanitizer the sanitizer owns operator new, so the count comes
/// from its allocation hook instead (that hook also sees plain malloc
/// calls, which the counted paths do not make).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CLOUDWF_ALLOC_HOOK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CLOUDWF_ALLOC_HOOK 1
#endif
#endif

namespace cloudwf::alloc_counter {
inline std::atomic<std::size_t> g_allocations{0};
}  // namespace cloudwf::alloc_counter

#ifdef CLOUDWF_ALLOC_HOOK
// Declared here rather than through <sanitizer/allocator_interface.h>,
// which gcc does not ship; both runtimes export it.
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace cloudwf::alloc_counter {
inline void count_malloc(const volatile void* /*ptr*/, std::size_t /*size*/) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
}
inline void ignore_free(const volatile void* /*ptr*/) {}
[[maybe_unused]] inline const int g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(&count_malloc, &ignore_free);
}  // namespace cloudwf::alloc_counter
#else
// gcc pairs the free() calls below with the built-in operator new once it
// inlines a delete; the replacement allocates with malloc, so they match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  cloudwf::alloc_counter::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t /*size*/) noexcept { std::free(ptr); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace cloudwf::alloc_counter {

/// Heap allocations made while running \p fn.
template <class Fn>
std::size_t allocations_of(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace cloudwf::alloc_counter
