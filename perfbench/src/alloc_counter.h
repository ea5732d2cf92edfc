#ifndef WEBDEX_PERFBENCH_ALLOC_COUNTER_H_
#define WEBDEX_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

// Counting replacement of the global operator new (alloc_counter.cc), the
// pattern of bench/harness.h.  Sanitizer builds intercept operator new
// themselves, so there the counter is compiled out and every allocation
// metric is reported as absent rather than as zero.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_COUNT_ALLOCS 0
#else
#define PERFBENCH_COUNT_ALLOCS 1
#endif
#else
#define PERFBENCH_COUNT_ALLOCS 1
#endif

namespace webdex::perfbench {

inline constexpr bool kCountsAllocs = PERFBENCH_COUNT_ALLOCS != 0;

/// `operator new` calls since process start, on every thread.
uint64_t AllocCount();

}  // namespace webdex::perfbench

#endif  // WEBDEX_PERFBENCH_ALLOC_COUNTER_H_
