// Tests for the priority-based materialization scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/sched/scheduler.h"

namespace sand {
namespace {

// Runs jobs on a single worker so pop order is observable.
class OrderRecorder {
 public:
  void Record(int id) {
    std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(id);
  }
  std::vector<int> order() {
    std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  std::mutex mutex_;
  std::vector<int> order_;
};

MaterializationJob Job(int id, OrderRecorder& recorder, int64_t deadline,
                       int64_t remaining = 0, bool demand = false) {
  MaterializationJob job;
  job.deadline = deadline;
  job.remaining_work = remaining;
  job.demand_feeding = demand;
  job.run = [id, &recorder] { recorder.Record(id); };
  return job;
}

// A blocker job that holds the single worker until released, letting tests
// enqueue a controlled backlog.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

TEST(SchedulerTest, RunsSubmittedJobs) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    MaterializationJob job;
    job.run = [&count] { count.fetch_add(1); };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(scheduler.stats().jobs_run, 20u);
}

TEST(SchedulerTest, EarliestDeadlineFirst) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.demand_feeding = true;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(3, recorder, /*deadline=*/30));
  scheduler.Submit(Job(1, recorder, /*deadline=*/10));
  scheduler.Submit(Job(2, recorder, /*deadline=*/20));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 2, 3}));
  EXPECT_GE(scheduler.stats().deadline_pops, 3u);
}

TEST(SchedulerTest, DemandFeedingPreemptsBackground) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(10, recorder, /*deadline=*/0));               // background, urgent
  scheduler.Submit(Job(99, recorder, /*deadline=*/1000, 0, true));   // demand
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order().front(), 99) << "demand-feeding must run first";
  EXPECT_EQ(scheduler.stats().demand_jobs_run, 1u);
}

TEST(SchedulerTest, SjfUnderMemoryPressure) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  options.memory_pressure = [] { return 0.95; };  // above watermark
  options.sjf_watermark = 0.8;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(1, recorder, /*deadline=*/1, /*remaining=*/100));
  scheduler.Submit(Job(2, recorder, /*deadline=*/99, /*remaining=*/5));
  gate.Open();
  scheduler.WaitIdle();
  // Despite job 1's earlier deadline, SJF picks the nearly-done job 2.
  EXPECT_EQ(recorder.order(), (std::vector<int>{2, 1}));
  EXPECT_GE(scheduler.stats().sjf_pops, 2u);
}

TEST(SchedulerTest, FifoWhenPrioritiesDisabled) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  options.disable_priorities = true;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(Job(1, recorder, /*deadline=*/99));
  scheduler.Submit(Job(2, recorder, /*deadline=*/1, 0, true));  // demand ignored too
  scheduler.Submit(Job(3, recorder, /*deadline=*/50));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, ShutdownDrainsQueue) {
  std::atomic<int> count{0};
  {
    MaterializationScheduler::Options options;
    options.num_threads = 2;
    MaterializationScheduler scheduler(options);
    for (int i = 0; i < 10; ++i) {
      MaterializationJob job;
      job.run = [&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        count.fetch_add(1);
      };
      scheduler.Submit(std::move(job));
    }
    scheduler.Shutdown();
  }
  EXPECT_EQ(count.load(), 10) << "pending jobs must complete on shutdown";
}

TEST(SchedulerTest, WaitIdleWaitsForRunningJobs) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    MaterializationJob job;
    job.run = [&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(scheduler.PendingCount(), 0u);
}

TEST(SchedulerTest, ConcurrentSubmitters) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&scheduler, &count] {
      for (int i = 0; i < 50; ++i) {
        MaterializationJob job;
        job.run = [&count] { count.fetch_add(1); };
        scheduler.Submit(std::move(job));
      }
    });
  }
  for (std::thread& thread : submitters) {
    thread.join();
  }
  scheduler.WaitIdle();
  EXPECT_EQ(count.load(), 200);
}

// ---------------------------------------------------------------------------
// Multi-tenant fair-share (DESIGN.md §13).

MaterializationJob TenantJob(int id, uint32_t tenant, OrderRecorder& recorder,
                             bool demand = false) {
  MaterializationJob job;
  job.demand_feeding = demand;
  job.deadline = id;  // submission order doubles as EDF key
  job.run = [id, &recorder] { recorder.Record(id); };
  job.ctx.tenant_id = tenant;
  return job;
}

TEST(SchedulerTest, DemandPopsRotateAcrossTenants) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  // Tenant 1 floods the demand class before tenant 2 submits anything.
  scheduler.Submit(TenantJob(1, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(2, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(3, 1, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(11, 2, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(12, 2, recorder, /*demand=*/true));
  scheduler.Submit(TenantJob(13, 2, recorder, /*demand=*/true));
  gate.Open();
  scheduler.WaitIdle();
  // Least-recently-served rotation: the flood does not starve tenant 2.
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 11, 2, 12, 3, 13}));
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs_run_by_tenant[1], 3u);
  EXPECT_EQ(stats.jobs_run_by_tenant[2], 3u);
}

TEST(SchedulerTest, BackgroundPopsRotateAcrossTenants) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  scheduler.Submit(TenantJob(1, 1, recorder));
  scheduler.Submit(TenantJob(2, 1, recorder));
  scheduler.Submit(TenantJob(11, 2, recorder));
  scheduler.Submit(TenantJob(12, 2, recorder));
  gate.Open();
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{1, 11, 2, 12}));
}

TEST(SchedulerTest, TenantRunningCapNeverExceeded) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(1, 1);
  std::atomic<int> inflight{0};
  std::atomic<int> max_inflight{0};
  for (int i = 0; i < 6; ++i) {
    MaterializationJob job;
    job.ctx.tenant_id = 1;
    job.run = [&inflight, &max_inflight] {
      int current = inflight.fetch_add(1) + 1;
      int seen = max_inflight.load();
      while (current > seen && !max_inflight.compare_exchange_weak(seen, current)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inflight.fetch_sub(1);
    };
    scheduler.Submit(std::move(job));
  }
  scheduler.WaitIdle();
  EXPECT_EQ(max_inflight.load(), 1) << "cap of 1 must serialize the tenant's jobs";
  EXPECT_EQ(scheduler.stats().jobs_run_by_tenant[1], 6u);
}

TEST(SchedulerTest, CappedTenantDoesNotStarveOthers) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(1, 1);
  OrderRecorder recorder;
  Gate gate;
  MaterializationJob blocker;
  blocker.ctx.tenant_id = 1;
  blocker.run = [&gate] { gate.Wait(); };
  scheduler.Submit(std::move(blocker));
  // Make sure the blocker was popped (tenant 1 is now at its cap) before
  // queueing the contenders.
  while (scheduler.PendingCount() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  scheduler.Submit(TenantJob(1, 1, recorder));
  MaterializationJob other = TenantJob(2, 2, recorder);
  other.run = [&recorder, &gate] {
    recorder.Record(2);
    gate.Open();  // only now may tenant 1 proceed
  };
  scheduler.Submit(std::move(other));
  scheduler.WaitIdle();
  EXPECT_EQ(recorder.order(), (std::vector<int>{2, 1}))
      << "the free worker must skip the capped tenant's queued job";
  EXPECT_GE(scheduler.stats().capped_skips, 1u);
}

// --- Group join (RunAll) -----------------------------------------------------

// Keeps the running maximum of a concurrency counter.
void NoteConcurrency(std::atomic<int>& inflight, std::atomic<int>& max_inflight) {
  int current = inflight.fetch_add(1) + 1;
  int seen = max_inflight.load();
  while (current > seen && !max_inflight.compare_exchange_weak(seen, current)) {
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  inflight.fetch_sub(1);
}

TEST(SchedulerTest, JoinFromTheOnlyWorkerRunsItsJobsInline) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  std::atomic<int> ran{0};
  MaterializationJob parent;
  parent.run = [&scheduler, &ran] {
    std::vector<MaterializationJob> children;
    for (int i = 0; i < 4; ++i) {
      children.push_back(MaterializationScheduler::Subtask([&ran] { ran.fetch_add(1); }));
    }
    scheduler.RunAll(std::move(children));  // would hang if it only waited
    ran.fetch_add(10);
  };
  ASSERT_TRUE(scheduler.Submit(std::move(parent)).ok());
  scheduler.WaitIdle();
  EXPECT_EQ(ran.load(), 14);
  // Each job is booked once, whichever thread ran it.
  EXPECT_EQ(scheduler.stats().jobs_run, 5u);
}

TEST(SchedulerTest, SubtaskInheritsTheRunningJobsClass) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  MaterializationJob seen;
  MaterializationJob parent;
  parent.deadline = 17;
  parent.speculative = true;
  parent.ctx.tenant_id = 3;
  parent.run = [&seen] { seen = MaterializationScheduler::Subtask([] {}); };
  ASSERT_TRUE(scheduler.Submit(std::move(parent)).ok());
  scheduler.WaitIdle();
  EXPECT_EQ(seen.deadline, 17);
  EXPECT_TRUE(seen.speculative);
  EXPECT_FALSE(seen.demand_feeding);
  EXPECT_EQ(seen.ctx.tenant_id, 3u);
  // Outside any job a subtask is demand work.
  EXPECT_TRUE(MaterializationScheduler::Subtask([] {}).demand_feeding);
}

TEST(SchedulerTest, JoinedJobsStayWithinTheTenantCap) {
  MaterializationScheduler::Options options;
  options.num_threads = 4;
  MaterializationScheduler scheduler(options);
  scheduler.SetTenantRunningCap(1, 1);
  std::atomic<int> inflight{0};
  std::atomic<int> max_inflight{0};
  for (int p = 0; p < 3; ++p) {
    MaterializationJob parent;
    parent.ctx.tenant_id = 1;
    parent.run = [&] {
      std::vector<MaterializationJob> children;
      for (int i = 0; i < 4; ++i) {
        children.push_back(MaterializationScheduler::Subtask(
            [&inflight, &max_inflight] { NoteConcurrency(inflight, max_inflight); }));
      }
      scheduler.RunAll(std::move(children));
    };
    ASSERT_TRUE(scheduler.Submit(std::move(parent)).ok());
  }
  scheduler.WaitIdle();
  EXPECT_EQ(max_inflight.load(), 1) << "inline joins must not widen a capped tenant";
  EXPECT_EQ(scheduler.stats().jobs_run_by_tenant[1], 15u);
}

TEST(SchedulerTest, OutsideJoinWaitsForWorkers) {
  MaterializationScheduler::Options options;
  options.num_threads = 2;
  MaterializationScheduler scheduler(options);
  std::atomic<int> inflight{0};
  std::atomic<int> max_inflight{0};
  std::vector<MaterializationJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(MaterializationScheduler::Subtask(
        [&inflight, &max_inflight] { NoteConcurrency(inflight, max_inflight); }));
  }
  scheduler.RunAll(std::move(jobs));
  EXPECT_EQ(inflight.load(), 0);
  EXPECT_LE(max_inflight.load(), 2) << "only the pool's workers run an outsider's jobs";
  EXPECT_EQ(scheduler.stats().jobs_run, 8u);
}

TEST(SchedulerTest, HelpOnceRunsAQueuedSubtaskOfTheSameTenant) {
  MaterializationScheduler::Options options;
  options.num_threads = 1;
  MaterializationScheduler scheduler(options);
  EXPECT_FALSE(scheduler.HelpOnce()) << "outside the pool there is nothing to help with";
  std::atomic<int> ran{0};
  bool helped_other_tenant = true;
  bool helped_own = false;
  bool helped_empty = true;
  MaterializationJob waiter;
  waiter.ctx.tenant_id = 1;
  waiter.run = [&] {
    // Queued behind this job on the one worker: only HelpOnce can run them.
    MaterializationJob other = MaterializationScheduler::Subtask([&ran] { ran.fetch_add(10); });
    other.ctx.tenant_id = 2;
    ASSERT_TRUE(scheduler.Submit(std::move(other)).ok());
    ASSERT_TRUE(scheduler.Submit(MaterializationScheduler::Subtask([&ran] { ran.fetch_add(1); }))
                    .ok());
    helped_own = scheduler.HelpOnce();
    helped_empty = scheduler.HelpOnce();  // the other tenant's subtask stays queued
    helped_other_tenant = ran.load() >= 10;
  };
  ASSERT_TRUE(scheduler.Submit(std::move(waiter)).ok());
  scheduler.WaitIdle();
  EXPECT_TRUE(helped_own);
  EXPECT_FALSE(helped_empty);
  EXPECT_FALSE(helped_other_tenant);
  EXPECT_EQ(ran.load(), 11);
  EXPECT_EQ(scheduler.stats().jobs_run, 3u);
}

TEST(SchedulerTest, SubmitAfterShutdownIsRefused) {
  MaterializationScheduler scheduler(MaterializationScheduler::Options{});
  scheduler.Shutdown();
  bool ran = false;
  MaterializationJob job;
  job.run = [&ran] { ran = true; };
  EXPECT_EQ(scheduler.Submit(std::move(job)).code(), ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(ran);
  // A join still completes: its jobs run on the caller.
  std::vector<MaterializationJob> jobs;
  jobs.push_back(MaterializationScheduler::Subtask([&ran] { ran = true; }));
  scheduler.RunAll(std::move(jobs));
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace sand
