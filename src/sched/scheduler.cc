#include "src/sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/common/threading.h"
#include "src/obs/attribution.h"
#include "src/obs/trace.h"

namespace sand {

// On the RunAll caller's stack, guarded by mutex_; `done` is notified under
// mutex_ so the waiter may destroy it as soon as it sees remaining == 0.
struct JoinGroup {
  size_t remaining = 0;
  std::condition_variable done;
};

namespace {

// The scheduler whose worker loop owns this thread, and the job the thread
// is running now (null outside a job); RunAll and Subtask read them.
thread_local MaterializationScheduler* tls_worker_of = nullptr;
thread_local const MaterializationJob* tls_running = nullptr;

}  // namespace

MaterializationScheduler::MaterializationScheduler(Options options)
    : options_(std::move(options)),
      jobs_run_(obs::Registry::Get().GetCounter("sand.sched.jobs_run")),
      demand_jobs_run_(obs::Registry::Get().GetCounter("sand.sched.demand_jobs_run")),
      deadline_pops_(obs::Registry::Get().GetCounter("sand.sched.deadline_pops")),
      sjf_pops_(obs::Registry::Get().GetCounter("sand.sched.sjf_pops")),
      speculative_pops_(obs::Registry::Get().GetCounter("sand.sched.speculative_pops")),
      capped_skips_(obs::Registry::Get().GetCounter("sand.sched.capped_skips")),
      queue_depth_(obs::Registry::Get().GetGauge("sand.sched.queue_depth")),
      job_latency_ns_(obs::Registry::Get().GetHistogram("sand.sched.job_latency_ns")) {
  if (options_.num_threads < 1) {
    options_.num_threads = 1;
  }
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    NameThread(workers_.back(), "sand-sched-" + std::to_string(i));
  }
}

MaterializationScheduler::~MaterializationScheduler() { Shutdown(); }

Status MaterializationScheduler::Submit(MaterializationJob job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return FailedPrecondition("scheduler shut down");
    }
    queue_.push_back(std::move(job));
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  wake_.notify_one();
  return Status::Ok();
}

void MaterializationScheduler::RunAll(std::vector<MaterializationJob> jobs) {
  JoinGroup group;
  group.remaining = jobs.size();
  std::unique_lock<std::mutex> lock(mutex_);
  for (MaterializationJob& job : jobs) {
    job.group = &group;
    queue_.push_back(std::move(job));
  }
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  wake_.notify_all();
  // After Shutdown no worker may be left to run them, so the caller does.
  const bool runs_own = tls_worker_of == this || shutdown_;
  while (group.remaining > 0) {
    auto next = queue_.end();
    if (runs_own) {
      next = std::find_if(queue_.begin(), queue_.end(),
                          [&group](const MaterializationJob& job) { return job.group == &group; });
      if (next == queue_.end()) {
        next = FindSubtaskLocked();
      }
    }
    if (next == queue_.end()) {
      group.done.wait(lock);
    } else {
      RunInlineLocked(next, lock);
    }
  }
}

bool MaterializationScheduler::HelpOnce() {
  std::unique_lock<std::mutex> lock(mutex_);
  auto next = FindSubtaskLocked();
  if (next == queue_.end()) {
    return false;
  }
  RunInlineLocked(next, lock);
  return true;
}

std::list<MaterializationJob>::iterator MaterializationScheduler::FindSubtaskLocked() {
  if (tls_worker_of != this || tls_running == nullptr) {
    return queue_.end();
  }
  const uint32_t tenant = tls_running->ctx.tenant_id;
  return std::find_if(queue_.begin(), queue_.end(), [tenant](const MaterializationJob& job) {
    return job.subtask && job.ctx.tenant_id == tenant;
  });
}

void MaterializationScheduler::RunInlineLocked(std::list<MaterializationJob>::iterator it,
                                               std::unique_lock<std::mutex>& lock) {
  MaterializationJob job = std::move(*it);
  queue_.erase(it);
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  CountStartLocked(job);
  lock.unlock();
  Execute(job);
  lock.lock();
  if (job.group != nullptr && --job.group->remaining == 0) {
    job.group->done.notify_one();
  }
}

MaterializationJob MaterializationScheduler::Subtask(std::function<void()> run) {
  const MaterializationJob* parent = tls_running;
  MaterializationJob job;
  job.deadline = parent != nullptr ? parent->deadline : 0;
  job.remaining_work = parent != nullptr ? parent->remaining_work : 0;
  job.demand_feeding = parent == nullptr || parent->demand_feeding;
  job.speculative = parent != nullptr && parent->speculative;
  job.run = std::move(run);
  job.subtask = true;
  return job;
}

bool MaterializationScheduler::TenantCappedLocked(const MaterializationJob& job) {
  auto cap = tenant_caps_.find(job.ctx.tenant_id);
  if (cap == tenant_caps_.end()) {
    return false;
  }
  auto running = tenant_running_.find(job.ctx.tenant_id);
  return running != tenant_running_.end() && running->second >= cap->second;
}

bool MaterializationScheduler::HasRunnableLocked() {
  if (tenant_caps_.empty()) {
    return !queue_.empty();
  }
  for (const MaterializationJob& job : queue_) {
    if (!TenantCappedLocked(job)) {
      return true;
    }
  }
  return false;
}

MaterializationJob MaterializationScheduler::PopLocked() {
  assert(!queue_.empty());
  ++pop_seq_;
  // A pop that had to pass over a quota-capped tenant's work is the signal
  // quota enforcement is active (tests and the /.sand/tenants views read it).
  if (!tenant_caps_.empty()) {
    for (const MaterializationJob& job : queue_) {
      if (TenantCappedLocked(job)) {
        ++stats_.capped_skips;
        capped_skips_->Add(1);
        break;
      }
    }
  }
  auto runnable = [this](const MaterializationJob& job) { return !TenantCappedLocked(job); };
  // The least-recently-served runnable tenant in `served` wins; queue
  // order breaks ties, so single-tenant workloads reduce to the legacy
  // policy exactly.
  auto pick_tenant = [&](bool demand_class, const std::map<uint32_t, uint64_t>& served,
                         bool* found) -> uint32_t {
    uint32_t best_tenant = 0;
    uint64_t best_seq = 0;
    *found = false;
    for (const MaterializationJob& job : queue_) {
      if (job.demand_feeding != demand_class || !runnable(job)) {
        continue;
      }
      auto it = served.find(job.ctx.tenant_id);
      uint64_t seq = it == served.end() ? 0 : it->second;
      if (!*found || seq < best_seq) {
        *found = true;
        best_tenant = job.ctx.tenant_id;
        best_seq = seq;
      }
    }
    return best_tenant;
  };

  auto best = queue_.end();
  if (options_.disable_priorities) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (runnable(*it)) {
        best = it;
        break;
      }
    }
  } else {
    // Demand-feeding first: rotate across tenants with queued demand work,
    // FIFO within the chosen tenant.
    bool have_demand = false;
    uint32_t demand_tenant = pick_tenant(/*demand_class=*/true, demand_last_served_, &have_demand);
    if (have_demand) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->demand_feeding && it->ctx.tenant_id == demand_tenant) {
          best = it;
          break;
        }
      }
      demand_last_served_[demand_tenant] = pop_seq_;
    } else {
      bool have_background = false;
      uint32_t tenant =
          pick_tenant(/*demand_class=*/false, background_last_served_, &have_background);
      assert(have_background && "PopLocked without a runnable job");
      background_last_served_[tenant] = pop_seq_;
      double pressure = options_.memory_pressure ? options_.memory_pressure() : 0.0;
      bool use_sjf = pressure >= options_.sjf_watermark;
      auto better = [use_sjf](const MaterializationJob& a, const MaterializationJob& b) {
        return use_sjf ? a.remaining_work < b.remaining_work : a.deadline < b.deadline;
      };
      // Rank the chosen tenant's jobs within each background class, then
      // pick the class: alternate when both speculative (prefetch) and
      // pre-materialization jobs are queued so neither starves the other.
      auto best_pre = queue_.end();
      auto best_spec = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->demand_feeding || it->ctx.tenant_id != tenant || !runnable(*it)) {
          continue;
        }
        auto& slot = it->speculative ? best_spec : best_pre;
        if (slot == queue_.end() || better(*it, *slot)) {
          slot = it;
        }
      }
      if (best_pre == queue_.end()) {
        best = best_spec;
      } else if (best_spec == queue_.end()) {
        best = best_pre;
      } else {
        best = last_pop_speculative_ ? best_pre : best_spec;
      }
      last_pop_speculative_ = best->speculative;
      if (best->speculative) {
        ++stats_.speculative_pops;
        speculative_pops_->Add(1);
      }
      if (use_sjf) {
        ++stats_.sjf_pops;
        sjf_pops_->Add(1);
      } else {
        ++stats_.deadline_pops;
        deadline_pops_->Add(1);
      }
    }
  }
  assert(best != queue_.end() && "PopLocked without a runnable job");
  MaterializationJob job = std::move(*best);
  queue_.erase(best);
  ++tenant_running_[job.ctx.tenant_id];
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  return job;
}

void MaterializationScheduler::SetTenantRunningCap(uint32_t tenant_id, int max_running) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_running <= 0) {
      tenant_caps_.erase(tenant_id);
    } else {
      tenant_caps_[tenant_id] = std::max(1, max_running);
    }
  }
  wake_.notify_all();
}

void MaterializationScheduler::CountStartLocked(const MaterializationJob& job) {
  ++stats_.jobs_run;
  ++stats_.jobs_run_by_tenant[job.ctx.tenant_id];
  jobs_run_->Add(1);
  if (job.demand_feeding) {
    ++stats_.demand_jobs_run;
    demand_jobs_run_->Add(1);
  }
}

void MaterializationScheduler::Execute(const MaterializationJob& job) {
  if (obs::TenantMetrics* tenant = obs::TenantMetricsFor(job.ctx.tenant_id)) {
    tenant->sched_jobs_run->Add(1);
  }
  const MaterializationJob* outer = tls_running;
  tls_running = &job;
  {
    ScopedTraceContext trace_scope(job.ctx);
    SAND_SPAN("sched_job");
    Nanos start = SinceProcessStart();
    job.run();
    job_latency_ns_->Record(static_cast<uint64_t>(SinceProcessStart() - start));
  }
  tls_running = outer;
}

void MaterializationScheduler::WorkerLoop() {
  tls_worker_of = this;
  while (true) {
    MaterializationJob job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // A queue holding only quota-capped tenants' jobs is not runnable
      // yet: sleep until one of their running jobs finishes (completion
      // notifies wake_) rather than overrun the cap. Caps are >= 1, so a
      // capped tenant always has something running to wake us.
      wake_.wait(lock, [this] { return shutdown_ ? queue_.empty() || HasRunnableLocked()
                                                 : HasRunnableLocked(); });
      if (queue_.empty()) {
        return;  // shutdown with nothing left
      }
      job = PopLocked();
      ++active_;
      CountStartLocked(job);
    }
    Execute(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      auto running = tenant_running_.find(job.ctx.tenant_id);
      if (running != tenant_running_.end() && --running->second <= 0) {
        tenant_running_.erase(running);
      }
      if (job.group != nullptr && --job.group->remaining == 0) {
        job.group->done.notify_one();
      }
    }
    // Completion may unblock a worker parked on a capped tenant as well as
    // a WaitIdle caller.
    wake_.notify_all();
    idle_.notify_all();
  }
}

void MaterializationScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void MaterializationScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
}

SchedulerStats MaterializationScheduler::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t MaterializationScheduler::PendingCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace sand
