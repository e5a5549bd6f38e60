#include "src/common/worker_pool.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/threading.h"
#include "src/common/trace_context.h"

namespace sand {

WorkerPool::WorkerPool(Options options) : options_(options) {
  options_.num_threads = std::max(1, options_.num_threads);
  options_.max_queued = std::max<size_t>(1, options_.max_queued);
  threads_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
    NameThread(threads_.back(), "sand-pool-" + std::to_string(i));
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

bool WorkerPool::TrySubmit(std::function<void()> task) {
  // Capture the submitter's trace context so the span recorded by the
  // worker parents under the span that submitted the task, not under
  // whatever the worker happened to run last.
  if (CurrentTraceContext().active()) {
    task = [ctx = CurrentTraceContext(), inner = std::move(task)] {
      ScopedTraceContext scope(ctx);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_ || tasks_.size() >= options_.max_queued) {
      return false;
    }
    tasks_.push_back(std::move(task));
  }
  wake_.notify_one();
  return true;
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
    if (tasks_.empty()) {
      return;  // shutdown with an empty queue
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    ++active_;
    lock.unlock();
    task();
    lock.lock();
    --active_;
    idle_.notify_all();
  }
}

void WorkerPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  threads_.clear();
}

}  // namespace sand
