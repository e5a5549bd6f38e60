// SandService: the SAND core.
//
// Ties together every mechanism in the paper:
//   - plans k-epoch chunks of the concrete object graph for all tasks
//     (src/graph), generating the next chunk before the current one expires
//   - prunes each chunk's cache set to the storage budget (src/pruning)
//   - executes pre-materialization as background subtree jobs and serves
//     demand-feeding batch reads with priority over them (src/sched: the
//     service's one CPU pool)
//   - persists cached objects in a tiered memory/disk cache with the
//     paper's eviction order: used-and-not-needed first, then the object
//     whose next use is farthest away, once usage crosses the watermark
//   - exposes everything through the POSIX view surface (src/vfs) as the
//     registered ViewProvider
//   - recovers after a crash by rescanning the cache store and rebuilding
//     the (deterministic) plan, skipping work whose outputs survived

#ifndef SAND_CORE_SAND_SERVICE_H_
#define SAND_CORE_SAND_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/core/checkpoint.h"
#include "src/core/container_cache.h"
#include "src/core/executor.h"
#include "src/graph/concrete_graph.h"
#include "src/graph/dataset_meta.h"
#include "src/obs/health.h"
#include "src/pruning/graph_pruning.h"
#include "src/sched/scheduler.h"
#include "src/sim/cpu_meter.h"
#include "src/storage/object_store.h"
#include "src/vfs/sand_fs.h"

namespace sand {

struct ServiceOptions {
  // Planning.
  int k_epochs = 4;
  int64_t total_epochs = 8;
  bool coordinate = true;  // shared pool / window / choices
  uint64_t seed = 42;
  CostModel costs;

  // Materialization & scheduling. The scheduler's `num_threads` workers are
  // the service's only threads; every job class shares them (DESIGN.md §8).
  int num_threads = 4;
  bool enable_scheduling = true;   // false: FIFO pops (Fig. 18 ablation)
  bool pre_materialize = true;     // false: pure demand pipeline
  double sjf_watermark = 0.8;      // memory pressure that flips EDF -> SJF

  // Bound on MaterializeAsync units and async demotes in flight (queued or
  // running; 0 counts as 1). Over it, demand units and demotes run inline
  // and speculative units fail RESOURCE_EXHAUSTED (DESIGN.md §8).
  size_t async_queue_depth = 32;
  // Readahead configuration handed to the embedded SandFs prefetcher
  // (window = 0 keeps speculation off).
  PrefetchOptions prefetch;

  // Streaming input (§5.1, input_source: streaming): invoked before
  // planning each chunk so newly ingested videos join the next chunk's
  // plan. Null = static dataset.
  std::function<Result<DatasetMeta>()> dataset_refresh;

  // Observability (DESIGN.md §12).
  // Tracer ring capacity in slots; 0 keeps the current ring (default 16Ki,
  // or SAND_TRACE_RING_SLOTS). Applied at construction; swapping discards
  // prior events, so set it on the first service in the process.
  size_t trace_ring_slots = 0;
  // /.sand/history sampling cadence; 0 disables the background sampler
  // (the view then only grows via explicit HistoryRecorder::SampleNow).
  int64_t history_sample_ms = 0;
  // Budgets for the /.sand/health verdict.
  obs::HealthThresholds health;

  // Storage.
  bool enable_pruning = true;  // false: cache leaves only (Fig. 17 ablation)
  uint64_t storage_budget_bytes = 256ULL * 1024 * 1024;
  double evict_watermark = 0.75;
  size_t container_cache_entries = 8;
  // Transparent cache compression (DESIGN.md §11): installed on the cache at
  // construction; encodes run as background jobs, off the demand path.
  // Disabled by default (the cache stores raw bytes, as before).
  CompressionPolicy compression;
};

struct ServiceStats {
  ExecutorStats exec;
  uint64_t batches_served = 0;
  uint64_t demand_materializations = 0;
  uint64_t pre_materialize_jobs = 0;
  uint64_t evictions = 0;
  uint64_t chunks_planned = 0;
  uint64_t recovered_objects = 0;
  uint64_t async_units = 0;          // MaterializeAsync units run as scheduler jobs
  uint64_t speculative_batches = 0;  // batches produced by readahead units
  uint64_t disk_degraded = 0;        // 1 while the disk tier is offline (memory-only)
};

class SandService : public ViewProvider {
 public:
  SandService(std::shared_ptr<ObjectStore> dataset_store, DatasetMeta meta,
              std::shared_ptr<TieredCache> cache, std::vector<TaskConfig> tasks,
              ServiceOptions options);
  ~SandService() override;

  // Plans the first chunk and launches pre-materialization.
  Status Start();

  // Drains in-flight work and stops the scheduler's workers.
  void Shutdown();

  // --- ViewProvider -------------------------------------------------------
  Result<SharedBytes> Materialize(const ViewPath& path) override;
  // Native async path: the unit runs as a scheduler job (demand class, or
  // speculative for readahead), admitted up to async_queue_depth in flight.
  // Speculative batch units additionally persist their result (pinned) in
  // the tiered cache so readahead survives prefetcher LRU eviction.
  Future<SharedBytes> MaterializeAsync(const ViewPath& path, bool speculative) override;
  void OnViewServed(const ViewPath& path, bool from_prefetch) override;
  Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) override;
  Status OnSessionOpen(const std::string& task) override;
  Status OnSessionClose(const std::string& task) override;
  Result<std::vector<std::string>> ListChildren(const std::string& path) override;
  // Refreshes derived gauges (pool depths, cache residency) — called by
  // SandFs before /.sand control snapshots and by the history sampler.
  void PublishObservability() override;

  // --- Introspection ------------------------------------------------------
  SandFs& fs() { return fs_; }
  CpuMeter& cpu_meter() { return cpu_meter_; }
  TieredCache& cache() { return *cache_; }
  SchedulerStats scheduler_stats() { return scheduler_->stats(); }
  // Tenant scheduler quota passthrough — the socket front-end's
  // sched_cap_hook target (net::SandServer::Options).
  void SetTenantRunningCap(uint32_t tenant_id, int max_running) {
    scheduler_->SetTenantRunningCap(tenant_id, max_running);
  }
  ServiceStats stats();
  // Pruning report of the most recently planned chunk.
  PruningReport last_pruning_report();
  // Blocks until all queued background jobs complete (tests/benches).
  void WaitForBackgroundWork() { scheduler_->WaitIdle(); }

  // Crash recovery (§5.5): rescan the disk tier, restore the metadata
  // checkpoint if one is present (training progress), rebuild the current
  // chunk's plan, and count planned objects that survived.
  Result<uint64_t> RecoverFromDisk();

  // §5.5: writes the metadata checkpoint (configs + planner identity +
  // progress) to the cache's disk tier. Also done automatically whenever a
  // new k-epoch chunk is planned.
  Status SaveCheckpoint();
  ServiceCheckpoint MakeCheckpoint();

 private:
  struct ChunkState {
    MaterializationPlan plan;
    PruningReport pruning;
    bool jobs_submitted = false;
    // (task, epoch, iteration) -> index into plan.batches.
    std::map<std::tuple<int, int64_t, int64_t>, size_t> batch_index;
    // Per-video materialization claim state so demand-feeding and
    // pre-materialization never duplicate a subtree's work:
    // 0 = unclaimed, 1 = running, 2 = done.
    std::mutex video_mutex;
    std::condition_variable video_cv;
    std::vector<int> video_state;
    // Reusable executors for speculative units, one per video: consecutive
    // readahead batches on the same video keep the decoder cursor and the
    // frame memo warm instead of re-opening the container every unit. An
    // executor is checked out exclusively; a concurrent unit for the same
    // video falls back to a fresh one.
    std::mutex exec_mutex;
    std::map<int, std::unique_ptr<SubtreeExecutor>> spec_executors;
  };

  // Claims video `v` of `chunk` for materialization. Returns true when the
  // caller should run the subtree job; false when it was already done (or,
  // with wait_if_running, after waiting for the running owner).
  bool ClaimVideo(ChunkState& chunk, int video, bool wait_if_running);
  static void FinishVideo(ChunkState& chunk, int video);

  struct EvictMeta {
    int64_t last_use = 0;                 // final consumer iteration
    std::vector<int64_t> uses;            // sorted consumer iterations
  };

  int64_t ChunkOf(int64_t epoch) const { return epoch / options_.k_epochs; }

  // Builds (plan + prune + register + submit jobs) chunk `index` if absent.
  // Returns the chunk. Thread-safe.
  Result<std::shared_ptr<ChunkState>> EnsureChunk(int64_t index);

  Result<int> TaskIndex(const std::string& tag) const;

  // Serves one batch view synchronously through the demand-feeding class.
  Result<SharedBytes> MaterializeBatch(const ViewPath& path);
  // Assembles the batch's clips (the demand/speculative job body).
  // `speculative`: fan the per-video jobs into the scheduler's speculative
  // class (alternating with pre-materialization) instead of demand-feeding.
  Result<std::vector<uint8_t>> AssembleBatch(const std::shared_ptr<ChunkState>& chunk,
                                             const BatchPlan& batch, bool speculative);

  // The speculative unit body: assembles the batch and persists it (pinned)
  // in the tiered cache under the view-path key. Does NOT advance progress;
  // that happens when the view is actually served (OnViewServed).
  Result<SharedBytes> MaterializeSpeculative(const ViewPath& path);

  // Progress/planning tail shared by the demand path and prefetch-served
  // views: batches_served, task progress, next-chunk kickoff, eviction.
  void FinishBatchServe(const ViewPath& path, const std::shared_ptr<ChunkState>& chunk,
                        int task, const BatchPlan& batch);

  // Unpins (and drops the tracking of) a speculative cache object. Returns
  // true when `key` was a live speculation of `task`.
  bool ReleaseSpeculation(const std::string& task, const std::string& key);

  // Serves frame / aug-frame intermediate views.
  Result<SharedBytes> MaterializeIntermediate(const ViewPath& path);

  void SubmitPreMaterialization(const std::shared_ptr<ChunkState>& chunk);

  // Submits an async unit or demote under the async_queue_depth bound;
  // false when over it or shut down (the caller runs or refuses the work).
  bool SubmitAsync(MaterializationJob job);

  // Applies the eviction policy when cache usage crosses the watermark.
  void MaybeEvict();
  // Smallest in-progress global iteration across active tasks.
  int64_t GlobalProgress();

  double MemoryPressure();

  DatasetMeta meta_;  // refreshed per chunk when dataset_refresh is set
  const ServiceOptions options_;
  std::vector<TaskConfig> tasks_;
  std::shared_ptr<ObjectStore> dataset_store_;
  std::shared_ptr<TieredCache> cache_;
  ContainerCache containers_;
  std::unique_ptr<MaterializationScheduler> scheduler_;
  // Async units and demotes admitted and not yet finished.
  std::atomic<size_t> async_in_flight_{0};
  SandFs fs_;
  CpuMeter cpu_meter_;

  std::mutex plan_mutex_;
  std::map<int64_t, std::shared_ptr<ChunkState>> chunks_;
  PruningReport last_pruning_;
  bool started_ = false;

  std::mutex progress_mutex_;
  std::vector<int64_t> task_progress_;  // next global iteration per task
  std::vector<bool> task_active_;

  std::mutex evict_mutex_;
  std::map<std::string, EvictMeta> evict_index_;

  // Pinned speculative cache objects per task (view-path keys). Unpinned
  // when the view is served or the task's session closes.
  std::mutex spec_mutex_;
  std::map<std::string, std::vector<std::string>> spec_keys_by_task_;

  std::mutex stats_mutex_;
  ServiceStats stats_;

  // History-recorder hookup (DESIGN.md §12): the sampler publishes this
  // service's derived gauges and evaluates health each tick. Removed (and
  // the recorder stopped, if we started it) in Shutdown.
  uint64_t history_sampler_ = 0;
  bool started_history_ = false;
};

}  // namespace sand

#endif  // SAND_CORE_SAND_SERVICE_H_
