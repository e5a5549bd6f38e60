// SubtreeExecutor: turns concrete-graph nodes into pixels.
//
// One executor is created per materialization unit (a pre-materialization
// subtree job, or the demand path assembling a batch's clips from one
// video). It memoizes produced frames for the duration of the unit, reuses
// a single forward-cursor decoder per video, consults the tiered cache for
// nodes flagged `cache`, and stores freshly produced flagged nodes back.
//
// Intra-view parallelism (DESIGN.md §9): when constructed with a
// scheduler, MaterializeFlagged groups decode nodes by GOP and materializes
// the slices concurrently as subtasks of the calling job — each slice runs
// a stateless GopDecoder pass from its I-frame, then produces the flagged
// subtrees rooted in that GOP.
// The memo and counters are mutex-guarded (locks are never held across
// recursion or decode work); concurrent cache stores stay safe via the
// store's atomic PutIfAbsent.

#ifndef SAND_CORE_EXECUTOR_H_
#define SAND_CORE_EXECUTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/codec/video_codec.h"
#include "src/core/container_cache.h"
#include "src/graph/concrete_graph.h"
#include "src/sched/scheduler.h"
#include "src/sim/cpu_meter.h"
#include "src/storage/object_store.h"

namespace sand {

// Counters aggregated into service stats.
struct ExecutorStats {
  uint64_t frames_decoded = 0;     // frames reconstructed by the codec
  uint64_t decode_ops = 0;         // decode-node materializations
  uint64_t aug_ops = 0;            // augmentation-node materializations
  uint64_t crop_ops = 0;           // random-crop subset of aug_ops
  uint64_t cache_hits = 0;         // nodes served from the tiered cache
  uint64_t cache_stores = 0;       // nodes persisted to the tiered cache
  uint64_t parallel_slices = 0;    // GOP slices materialized as scheduler subtasks

  void Accumulate(const ExecutorStats& other) {
    frames_decoded += other.frames_decoded;
    decode_ops += other.decode_ops;
    aug_ops += other.aug_ops;
    crop_ops += other.crop_ops;
    cache_hits += other.cache_hits;
    cache_stores += other.cache_stores;
    parallel_slices += other.parallel_slices;
  }
};

// Custom augmentation registry (§5.5 extensibility): user functions are
// looked up by name for OpKind::kCustom nodes. A CustomOpFn may run
// in-process or proxy to a separate worker process (src/core/rpc_ops.h).
// Thread-safe: ops are looked up from scheduler worker threads while tests
// and long-running services may still be registering.
using CustomOpFn = std::function<Result<Frame>(const Frame& input)>;
class CustomOpRegistry {
 public:
  static CustomOpRegistry& Get();
  Status Register(const std::string& name, CustomOpFn fn);
  Result<CustomOpFn> Lookup(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, CustomOpFn> fns_;
};

class SubtreeExecutor {
 public:
  // `cache` may be null (pure on-demand pipelines). `meter` may be null.
  // `scheduler` may be null (serial materialization); when set,
  // MaterializeFlagged runs GOP slices as subtasks of the calling job (its
  // class, deadline and tenant) joined with RunAll, which never deadlocks.
  SubtreeExecutor(const VideoObjectGraph& graph, ContainerCache* containers,
                  TieredCache* cache, CpuMeter* meter,
                  MaterializationScheduler* scheduler = nullptr);

  // Produces the frame for `node_id`, recursively producing parents.
  // `allow_cache_store`: persist flagged nodes produced along the way.
  // Thread-safe: concurrent Produce calls share the memo (first writer
  // wins; node materialization is deterministic, so duplicated compute
  // yields identical bytes).
  Result<Frame> Produce(int node_id, bool allow_cache_store);

  // Produces and persists every cache-flagged node of the graph (the
  // pre-materialization job body). Skips nodes already in the cache.
  // With a scheduler, GOP slices materialize concurrently.
  Status MaterializeFlagged();

  // Snapshot of the counters (copy: safe against concurrent Produce).
  ExecutorStats stats() const;

  // Returns the counters accumulated since construction (or the last drain)
  // and resets them. For executors reused across materialization units —
  // each unit accounts only its own work.
  ExecutorStats DrainStats();

  // Bounds the frame memo for long-lived executors (the speculative path
  // reuses one executor per video across readahead units; without a trim
  // the memo would pin every frame the video ever produced). Evicts
  // oldest-inserted entries until at most `max_entries` remain, so the
  // recently produced hot frames survive. The decoder cursor survives.
  void TrimMemo(size_t max_entries);

 private:
  // Opens (once) and returns the shared forward-cursor decoder. Caller must
  // hold decoder_mutex_.
  Result<VideoDecoder*> EnsureDecoderLocked();

  // Cursor-walk decode of one frame; serialized on decoder_mutex_.
  Result<Frame> Decode(int64_t frame_index);
  Result<Frame> Augment(const ConcreteNode& node, const Frame& input);

  // Tries the tiered cache for a flagged node; returns nullopt on miss.
  std::optional<Result<Frame>> TryCacheLoad(const ConcreteNode& node);

  // The post-compute half of Produce: store to the cache if flagged, then
  // memoize (first writer wins) and return the memoized frame.
  Result<Frame> FinishProduced(const ConcreteNode& node, Frame produced, bool allow_cache_store);

  // memo_ insert + insertion-order bookkeeping. Returns the resident frame
  // (the existing one if another thread got there first).
  Frame InsertMemo(int node_id, Frame frame);

  // The serial body of MaterializeFlagged (also the leftover path of the
  // parallel variant).
  Status MaterializeSerial(const std::vector<int>& decode_nodes, const std::vector<int>& todo);

  const VideoObjectGraph& graph_;
  ContainerCache* containers_;
  TieredCache* cache_;
  CpuMeter* meter_;
  MaterializationScheduler* scheduler_;

  // Guards decoder_ (the forward cursor is single-threaded state). Never
  // held together with mutex_.
  std::mutex decoder_mutex_;
  std::optional<VideoDecoder> decoder_;

  // Guards memo_, memo_order_, stats_. Never held across recursion,
  // decode, augment, or cache I/O.
  mutable std::mutex mutex_;
  std::map<int, Frame> memo_;
  std::deque<int> memo_order_;  // node ids in first-insertion order
  ExecutorStats stats_;
};

// The cache key of a node's materialized object: deterministic across
// restarts (fault-tolerance recovery relies on this).
std::string NodeCacheKey(const VideoObjectGraph& graph, const ConcreteNode& node);

}  // namespace sand

#endif  // SAND_CORE_EXECUTOR_H_
