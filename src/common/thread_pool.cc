#include "common/thread_pool.h"

#include <algorithm>
#include <map>

namespace webdex::common {
namespace {

/// One ParallelFor call, shared by the caller and its pool tasks; a task
/// that starts after the call returned still holds it alive.
struct ParallelForState {
  ParallelForState(size_t count, void* context, void (*call)(void*, size_t))
      : count(count), context(context), call(call) {}

  const size_t count;
  void* const context;
  void (*const call)(void*, size_t);
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable all_done;
  size_t done = 0;           // guarded by mu
  std::exception_ptr error;  // guarded by mu
};

/// Claims and runs indexes until none is left.  `context` is only
/// dereferenced for a claimed index, and the caller waits for every
/// claimed index, so a late task never touches it.
void Drain(ParallelForState& state) {
  for (;;) {
    const size_t i = state.next.fetch_add(1);
    if (i >= state.count) return;
    std::exception_ptr error;
    try {
      state.call(state.context, i);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(state.mu);
    if (error != nullptr && state.error == nullptr) state.error = error;
    if (++state.done == state.count) state.all_done.notify_all();
  }
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  threads_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      // Keep draining queued work during shutdown so every Submit()ed
      // future is eventually satisfied.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task catches exceptions and stores them in the future.
    task();
  }
}

void ThreadPool::ParallelFor(size_t count, void* context,
                             void (*call)(void*, size_t)) {
  if (count == 0) return;
  if (count == 1) {
    call(context, 0);
    return;
  }
  auto state = std::make_shared<ParallelForState>(count, context, call);
  const size_t helpers = std::min(count - 1, threads_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([state] { Drain(*state); });
    }
  }
  for (size_t h = 0; h < helpers; ++h) wake_.notify_one();
  Drain(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->all_done.wait(lock, [&] { return state->done == count; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared(int num_threads) {
  static std::mutex mu;
  // Never destroyed, so exit never waits to join a worker that is still
  // running a task.
  static auto* pools = new std::map<int, ThreadPool*>();
  const int size = std::max(1, num_threads);
  std::lock_guard<std::mutex> lock(mu);
  ThreadPool*& pool = (*pools)[size];
  if (pool == nullptr) pool = new ThreadPool(size);
  return *pool;
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 2 : static_cast<int>(n);
}

}  // namespace webdex::common
