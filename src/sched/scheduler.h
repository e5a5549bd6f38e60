// Priority-based materialization scheduling (paper §5.4).
//
// The one CPU pool a SandService owns (workers "sand-sched-<i>"). Three
// worker classes share it:
//   demand-feeding      - prepares the batch the GPU needs *now*; always
//                         wins over background work
//   pre-materialization - produces objects for upcoming iterations/epochs
//                         (background work, compressed demotes included)
//   speculative         - prefetcher readahead of predicted next batches
//
// Jobs may fan out and block in RunAll, a join that cannot deadlock the
// pool at any size (DESIGN.md §8-§9).
//
// Background jobs are ordered earliest-deadline-first, where a job's
// deadline is the global iteration at which its object is consumed. When
// memory pressure crosses a watermark the policy flips to shortest-job-
// first (fewest unprocessed edges), draining almost-done subtrees so their
// pinned decoded frames can be freed (paper: SJF above ~80% memory use).
//
// Speculative jobs have near-term deadlines (the very next iterations), so
// pure EDF would let a steady prefetch stream starve pre-materialization
// of future epochs. When both classes are queued, pops alternate between
// them (EDF/SJF ordering applies within each class) — neither readahead
// nor pre-materialization can monopolize the background share.
//
// Multi-tenant fair-share (DESIGN.md §13): jobs carry the submitting
// tenant in their TraceContext. Within each class, pops rotate across
// tenants that have queued work (least-recently-served tenant first, job
// order within the tenant unchanged), so one tenant flooding the queue
// cannot starve another's demand class. A tenant may additionally be
// capped to N concurrently running jobs (SetTenantRunningCap); a capped
// tenant's jobs are skipped while it is at its limit — workers sleep
// rather than overrun a quota, and wake when a job finishes.

#ifndef SAND_SCHED_SCHEDULER_H_
#define SAND_SCHED_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/common/trace_context.h"
#include "src/obs/metrics.h"

namespace sand {

struct JoinGroup;  // RunAll's completion count (scheduler.cc)

struct MaterializationJob {
  // Smaller = needed sooner. Deadlines are global iteration numbers.
  int64_t deadline = 0;
  // Unprocessed edges left in this job's subtree; the SJF key.
  int64_t remaining_work = 0;
  // Demand-feeding jobs preempt (in queue order) all background work.
  bool demand_feeding = false;
  // Prefetcher readahead: background class that alternates fairly with
  // pre-materialization instead of outranking it on deadline.
  bool speculative = false;
  std::function<void()> run;
  // Captured at construction on the submitting thread; the worker restores
  // it around run() so the job's spans join the submitter's trace.
  TraceContext ctx = CurrentTraceContext();
  // Set by RunAll: the join this job belongs to (null for Submit).
  JoinGroup* group = nullptr;
  // Set by Subtask: a leaf that never blocks on other jobs (see HelpOnce).
  bool subtask = false;
};

struct SchedulerStats {
  uint64_t jobs_run = 0;
  uint64_t demand_jobs_run = 0;
  uint64_t deadline_pops = 0;    // background pops under the EDF policy
  uint64_t sjf_pops = 0;         // background pops under the SJF policy
  uint64_t speculative_pops = 0;  // background pops that chose a prefetch job
  uint64_t capped_skips = 0;      // pops that bypassed a tenant at its running cap
  // Jobs completed per tenant id (0 = untenanted in-process work).
  std::map<uint32_t, uint64_t> jobs_run_by_tenant;
};

class MaterializationScheduler {
 public:
  struct Options {
    int num_threads = 4;
    // Current memory pressure in [0, 1]; polled at each pop. Defaults to
    // "no pressure".
    std::function<double()> memory_pressure;
    double sjf_watermark = 0.8;
    // Disables prioritization entirely (FIFO pops) — the Fig. 18 ablation.
    bool disable_priorities = false;
  };

  explicit MaterializationScheduler(Options options);
  ~MaterializationScheduler();

  MaterializationScheduler(const MaterializationScheduler&) = delete;
  MaterializationScheduler& operator=(const MaterializationScheduler&) = delete;

  // Queues `job`; FailedPrecondition after Shutdown (the cache and the
  // prefetcher can submit late), and the caller runs or drops the work.
  Status Submit(MaterializationJob job);

  // Group join: queues `jobs` and returns once all have run. A worker of
  // this scheduler waiting here runs its jobs that have not started yet,
  // then its tenant's queued subtasks, inside the slot of the job it is
  // blocked in, and sleeps only when there are none: no deadlock at any
  // pool size, and no tenant above its cap. Any other thread only waits.
  // After Shutdown the jobs run on the caller.
  void RunAll(std::vector<MaterializationJob> jobs);

  // A job with the class, deadline and trace/tenant context of the job
  // running on this thread (demand class outside any job): a GOP slice.
  static MaterializationJob Subtask(std::function<void()> run);

  // For a job about to wait on another's result: runs one queued subtask
  // of its tenant instead of idling; false when there is none.
  bool HelpOnce();

  // Caps how many of `tenant_id`'s jobs may run concurrently (its
  // scheduler quota). Clamped to >= 1 so a capped tenant always makes
  // progress; 0 removes the cap. Takes effect at the next pop.
  void SetTenantRunningCap(uint32_t tenant_id, int max_running);

  // Blocks until the queue is empty and all workers are idle.
  void WaitIdle();

  // Stops accepting work and joins workers (pending jobs are completed).
  void Shutdown();

  SchedulerStats stats();
  size_t PendingCount();

 private:
  void WorkerLoop();
  // Books a job that is about to run (stats and registry counters).
  void CountStartLocked(const MaterializationJob& job);
  // Runs `job` on this thread under its trace context; records latency.
  void Execute(const MaterializationJob& job);
  // A queued subtask of the tenant whose job this worker runs, or end().
  std::list<MaterializationJob>::iterator FindSubtaskLocked();
  // Runs queued job `it` on this worker inside the slot of the job it is
  // blocked in (so its tenant's running count already covers it).
  void RunInlineLocked(std::list<MaterializationJob>::iterator it,
                       std::unique_lock<std::mutex>& lock);
  // Extracts the next job per the current policy. Caller holds mutex_ and
  // has verified HasRunnableLocked().
  MaterializationJob PopLocked();
  // True when some queued job belongs to a tenant under its running cap.
  bool HasRunnableLocked();
  // True when `job`'s tenant is at its running cap right now.
  bool TenantCappedLocked(const MaterializationJob& job);

  Options options_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::list<MaterializationJob> queue_;
  std::vector<std::thread> workers_;
  int active_ = 0;
  bool shutdown_ = false;
  // Fair alternation between the speculative and pre-materialization
  // background classes when both have queued jobs.
  bool last_pop_speculative_ = false;
  // Tenant rotation state: the pop sequence at which each tenant was last
  // served, per class group (demand vs background). Least-recently-served
  // tenant wins the next pop of that group.
  uint64_t pop_seq_ = 0;
  std::map<uint32_t, uint64_t> demand_last_served_;
  std::map<uint32_t, uint64_t> background_last_served_;
  // Per-tenant running-job counts and caps (0 entries are erased).
  std::map<uint32_t, int> tenant_running_;
  std::map<uint32_t, int> tenant_caps_;
  SchedulerStats stats_;

  // Registry mirrors of stats_ plus live queue depth ("sand.sched.*" in
  // /.sand/metrics); bumped under mutex_, so plain counters would do, but
  // the registry types keep one publishing surface.
  obs::Counter* jobs_run_;
  obs::Counter* demand_jobs_run_;
  obs::Counter* deadline_pops_;
  obs::Counter* sjf_pops_;
  obs::Counter* speculative_pops_;
  obs::Counter* capped_skips_;
  obs::Gauge* queue_depth_;
  obs::Histogram* job_latency_ns_;
};

}  // namespace sand

#endif  // SAND_SCHED_SCHEDULER_H_
