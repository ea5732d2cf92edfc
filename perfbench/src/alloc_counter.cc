#include "alloc_counter.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace webdex::perfbench {
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace webdex::perfbench

#if PERFBENCH_COUNT_ALLOCS
void* operator new(std::size_t size) {
  webdex::perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  webdex::perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p,
                     std::max(static_cast<std::size_t>(align), sizeof(void*)),
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
#endif  // PERFBENCH_COUNT_ALLOCS
