// The bench binaries' replacement global operator new/delete, counting
// every allocation into webdex::bench::AllocCounter() (alloc_counter.h).

#include "bench/alloc_counter.h"

#include <algorithm>
#include <cstdlib>
#include <new>

#if WEBDEX_BENCH_COUNT_ALLOCS
void* operator new(std::size_t size) {
  webdex::bench::AllocCounter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  webdex::bench::AllocCounter().fetch_add(1, std::memory_order_relaxed);
  // posix_memalign, not aligned_alloc: the latter demands size be a
  // multiple of the alignment, which operator new does not guarantee.
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align),
                                  sizeof(void*)),
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // WEBDEX_BENCH_COUNT_ALLOCS
