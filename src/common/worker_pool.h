// WorkerPool: a bounded FIFO thread pool ("sand-pool-<i>") for work outside
// a SandService, whose one pool is the scheduler (src/sched): SandServer's
// request pool, the on-demand CPU baseline, and VideoDecoder::DecodeFrames.
//
// Bounded: at most `max_queued` tasks may wait to start; TrySubmit refuses
// beyond that (the caller drops or runs the work inline). Shutdown completes
// everything already queued.

#ifndef SAND_COMMON_WORKER_POOL_H_
#define SAND_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sand {

class WorkerPool {
 public:
  struct Options {
    int num_threads = 4;
    size_t max_queued = 64;
  };

  explicit WorkerPool(Options options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Queues `task`; false when the pool is at capacity or shut down. The
  // task runs under the submitter's trace context.
  bool TrySubmit(std::function<void()> task);

  // Blocks until no tasks are queued or running.
  void WaitIdle();

  // Stops accepting work, completes queued tasks, joins the threads.
  void Shutdown();

 private:
  void WorkerLoop();

  Options options_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace sand

#endif  // SAND_COMMON_WORKER_POOL_H_
