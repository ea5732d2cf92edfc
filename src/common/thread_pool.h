#ifndef WEBDEX_COMMON_THREAD_POOL_H_
#define WEBDEX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace webdex::common {

/// Fixed-size pool of host worker threads draining a FIFO work queue.
///
/// This is *host* parallelism only: it spends real CPU cores, never
/// virtual time.  Simulated components (SimAgent clocks, the usage
/// meter, queue/store billing) must never be touched from pooled tasks;
/// see docs/PARALLELISM.md for the layering contract.
///
/// Tasks are arbitrary callables.  Submit() returns a std::future for
/// the task's result; an exception thrown by the task is captured and
/// rethrown from future::get() on the consuming thread, so worker
/// threads never terminate the process.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `fn` and returns the future of its result.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

  /// Runs `fn(i)` once for every i in [0, count) and returns when all
  /// have run.  The calling thread claims indexes from a shared atomic
  /// counter, and up to `count - 1` pool tasks claim beside it, so the
  /// caller waits only for indexes another thread has already started:
  /// a call from inside a task of this same pool, or with every worker
  /// busy, runs the rest itself instead of deadlocking.  Tasks that start
  /// after every index is claimed exit at once.  The first exception an
  /// `fn` throws is rethrown here once every started index has finished.
  template <typename Fn>
  void ParallelFor(size_t count, Fn&& fn) {
    auto call = [](void* context, size_t i) {
      (*static_cast<std::remove_reference_t<Fn>*>(context))(i);
    };
    ParallelFor(count, const_cast<void*>(static_cast<const void*>(&fn)),
                call);
  }

  /// The process-lifetime pool of `num_threads` workers (clamped to at
  /// least 1), created on first use and never destroyed: one per
  /// distinct size, so no run or query pays for thread start-up and the
  /// workers' thread-local scratch stays warm from one run to the next.
  static ThreadPool& Shared(int num_threads);

  /// Number of hardware threads, with a sane floor when the runtime
  /// cannot tell (hardware_concurrency() may return 0).
  static int HardwareThreads();

 private:
  void ParallelFor(size_t count, void* context,
                   void (*call)(void* context, size_t i));
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace webdex::common

#endif  // WEBDEX_COMMON_THREAD_POOL_H_
