#ifndef WEBDEX_BENCH_ALLOC_COUNTER_H_
#define WEBDEX_BENCH_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>

// --- Allocation counting -------------------------------------------------
//
// Every bench binary links bench/alloc_counter.cc, whose replacement
// global operator new/delete count into AllocCounter(), so every bench
// gets an `allocs` column for free: heap allocations are the cost the
// arena-interned index core removes, and the counter makes regressions
// (a reintroduced per-key std::string, say) show up in BENCH_*.json
// trajectories.  The operators live in a translation unit of their own:
// defined in a header, GCC inlined malloc and free into the benches'
// new and delete expressions and warned about the pairing
// (-Wmismatched-new-delete).  Sanitizer builds intercept operator new
// themselves, so the counter is compiled out there and AllocCount()
// reports 0.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WEBDEX_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define WEBDEX_BENCH_COUNT_ALLOCS 0
#else
#define WEBDEX_BENCH_COUNT_ALLOCS 1
#endif
#else
#define WEBDEX_BENCH_COUNT_ALLOCS 1
#endif

namespace webdex::bench {

inline std::atomic<uint64_t>& AllocCounter() {
  static std::atomic<uint64_t> count{0};
  return count;
}

/// Heap allocations since process start (0 under ASan/TSan, where the
/// replacement operators are compiled out).
inline uint64_t AllocCount() {
  return AllocCounter().load(std::memory_order_relaxed);
}

}  // namespace webdex::bench

#endif  // WEBDEX_BENCH_ALLOC_COUNTER_H_
