// Object storage substrate.
//
// SAND treats training objects (encoded videos, cached frames, batches) as
// key-addressed blobs. This module provides the stores the paper's
// environment offers:
//   MemoryStore  - instance RAM (fast, small)
//   DiskStore    - local NVMe (real files under a root dir, capacity-capped)
//   RemoteStore  - Filestore/S3-like remote volume (bandwidth-throttled
//                  wrapper with traffic accounting)
//   TieredCache  - memory over disk, the physical home of materialized views
//
// Concurrency and the zero-copy read path: MemoryStore and DiskStore shard
// their key space by hash with one mutex per shard, so concurrent jobs
// touching different objects never serialize on a global lock. GetShared()
// is the primary read path — a memory-tier hit hands out a reference to the
// cached allocation itself (SharedBytes), not a copy; callers must treat the
// buffer as immutable. The byte-oriented Get() remains as a thin compat
// wrapper that copies out of GetShared().

#ifndef SAND_STORAGE_OBJECT_STORE_H_
#define SAND_STORAGE_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/circuit_breaker.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/compress/lossy.h"
#include "src/obs/metrics.h"

namespace sand {

// Runs `task` asynchronously, or returns false and the caller runs it. The
// demote runner of TieredCache; SandService installs a scheduler-backed one.
using AsyncRunner = std::function<bool(std::function<void()>)>;

// Key-hash shards per store. 16 shards keep lock collisions rare at the
// scheduler thread counts this repo runs (4-16 workers) while costing only
// 16 mutexes + map headers per store; see DESIGN.md "Object lifecycle and
// zero-copy invariants".
inline constexpr size_t kDefaultStoreShards = 16;

// Abstract key-value blob store. Implementations are thread-safe.
class ObjectStore {
 public:
  virtual ~ObjectStore() = default;

  // Stores `data` under `key`, replacing any existing object. Fails with
  // RESOURCE_EXHAUSTED when the store is over capacity.
  virtual Status Put(const std::string& key, std::span<const uint8_t> data) = 0;

  // Stores an already-refcounted buffer. Memory-resident stores adopt the
  // reference instead of copying the payload (the zero-copy promotion path).
  // Default: copies via Put.
  virtual Status PutShared(const std::string& key, SharedBytes data);

  // Atomically stores `data` only if `key` is absent. Returns true when the
  // object was inserted, false when the key already existed (the store is
  // left unchanged). Replaces racy Contains()-then-Put() sequences.
  virtual Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data);

  // Primary read path: a reference to the stored bytes. Memory-resident
  // stores hand out the cached allocation itself; callers must not mutate
  // the pointee. Replaces racy Contains()-then-Get() sequences.
  virtual Result<SharedBytes> GetShared(const std::string& key) = 0;

  // Compat wrapper: copies the object out of GetShared().
  Result<std::vector<uint8_t>> Get(const std::string& key);

  virtual bool Contains(const std::string& key) = 0;

  // Size of the stored object, or NOT_FOUND.
  virtual Result<uint64_t> SizeOf(const std::string& key) = 0;

  virtual Status Delete(const std::string& key) = 0;

  virtual uint64_t UsedBytes() = 0;
  virtual uint64_t CapacityBytes() = 0;

  // All keys, sorted. Intended for recovery scans and tests.
  virtual std::vector<std::string> ListKeys() = 0;

  // Re-synchronizes in-memory accounting with durable state (no-op for
  // volatile stores). The crash-recovery hook.
  virtual Status Rescan() { return Status::Ok(); }
};

// In-memory store. Sharded: per-shard mutex + map, atomic usage counter.
class MemoryStore : public ObjectStore {
 public:
  explicit MemoryStore(uint64_t capacity_bytes = UINT64_MAX,
                       size_t num_shards = kDefaultStoreShards);

  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Status PutShared(const std::string& key, SharedBytes data) override;
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  Result<SharedBytes> GetShared(const std::string& key) override;
  bool Contains(const std::string& key) override;
  Result<uint64_t> SizeOf(const std::string& key) override;
  Status Delete(const std::string& key) override;
  uint64_t UsedBytes() override { return used_.load(std::memory_order_relaxed); }
  uint64_t CapacityBytes() override { return capacity_; }
  std::vector<std::string> ListKeys() override;

 private:
  struct Shard {
    std::mutex mutex;
    std::map<std::string, SharedBytes> objects;
  };

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }
  // Reserves `incoming` bytes against capacity, releasing `existing` (the
  // replaced object's size) on success. Caller holds the shard lock.
  Status Reserve(uint64_t incoming, uint64_t existing, const char* what);

  const uint64_t capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> used_{0};
};

// Filesystem-backed store. Keys map to files under `root`; slashes in keys
// become directories. Usage is tracked in memory and rebuilt by Rescan().
// The size index is sharded like MemoryStore's map, so file I/O for
// different keys proceeds in parallel.
//
// Crash safety (DESIGN.md §10): every object file is payload + a CRC32
// footer, written to a private temp area and published with an atomic
// rename, so a mid-write crash leaves either the old object or nothing —
// never a torn file at the visible path. Reads and Rescan() verify the
// footer; an object that fails verification (or whose file vanished under
// a live index entry) is quarantined — moved aside under `.sand-quarantine`,
// dropped from the index, counted on `sand.store.disk.quarantined` — and
// surfaced as NotFound, never as corrupt bytes.
class DiskStore : public ObjectStore {
 public:
  // Bytes appended after the payload: magic(4) + crc32(4) + payload_size(8).
  static constexpr size_t kFooterSize = 16;
  // Reserved directory names under the root (rejected as key prefixes).
  static constexpr const char* kTmpDir = ".sand-tmp";
  static constexpr const char* kQuarantineDir = ".sand-quarantine";

  // Creates `root` if missing and scans any existing objects.
  static Result<std::unique_ptr<DiskStore>> Open(const std::string& root,
                                                 uint64_t capacity_bytes);

  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  Result<SharedBytes> GetShared(const std::string& key) override;
  bool Contains(const std::string& key) override;
  Result<uint64_t> SizeOf(const std::string& key) override;
  Status Delete(const std::string& key) override;
  uint64_t UsedBytes() override { return used_.load(std::memory_order_relaxed); }
  uint64_t CapacityBytes() override { return capacity_; }
  std::vector<std::string> ListKeys() override;

  // Re-walks the directory tree and rebuilds the key/size map; the recovery
  // path after a crash (paper §5.5). Verifies each file's CRC footer,
  // quarantines files that fail it, and clears abandoned temp files.
  Status Rescan() override;

  // Fault-injection surface: performs Put() up to but NOT including the
  // atomic rename — the payload lands in the temp area and the visible
  // store state is untouched, simulating a crash between write and publish.
  // Always returns Unavailable. Used by FaultInjectingStore and chaos tests.
  Status PutCrashBeforeRename(const std::string& key, std::span<const uint8_t> data);

  const std::string& root() const { return root_; }

 private:
  struct Shard {
    std::mutex mutex;
    std::map<std::string, uint64_t> sizes;
  };

  DiskStore(std::string root, uint64_t capacity_bytes);

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }
  // Resolved file path for `key`, or InvalidArgument when the key is empty,
  // escapes the root (".." components), or names a reserved directory.
  Result<std::string> PathFor(const std::string& key) const;
  // Writes payload + footer to a fresh temp file and (unless
  // `crash_before_rename`) publishes it at `path` with an atomic rename.
  Status WriteObject(const std::string& path, std::span<const uint8_t> data,
                     bool crash_before_rename);
  // Drops `key` from the index and moves its file aside; caller must NOT
  // hold the key's shard lock. `reason` goes to the debug log.
  void Quarantine(const std::string& key, const std::string& path, const char* reason);
  // File move half of quarantining (no index access; safe under Rescan's
  // all-shards lock).
  void MoveToQuarantine(const std::string& path);

  const std::string root_;
  const uint64_t capacity_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> tmp_seq_{0};
};

// Traffic counters for RemoteStore (Fig. 14's network-savings metric).
struct RemoteTraffic {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
};

// Wraps a backing store behind a bandwidth/latency model; each transfer
// sleeps for its modeled duration (scaled-down WAN link).
class RemoteStore : public ObjectStore {
 public:
  RemoteStore(std::shared_ptr<ObjectStore> backing, double bandwidth_bytes_per_sec,
              Nanos latency_per_op = 0);

  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  Result<SharedBytes> GetShared(const std::string& key) override;
  bool Contains(const std::string& key) override;
  Result<uint64_t> SizeOf(const std::string& key) override;
  Status Delete(const std::string& key) override;
  uint64_t UsedBytes() override;
  uint64_t CapacityBytes() override;
  std::vector<std::string> ListKeys() override;

  RemoteTraffic traffic();
  void ResetTraffic();

 private:
  void ChargeTransfer(uint64_t bytes);

  std::shared_ptr<ObjectStore> backing_;
  const double bandwidth_;
  const Nanos latency_;
  std::mutex mutex_;
  RemoteTraffic traffic_;
};

// Which tier a cached object should land in.
enum class Tier {
  kMemory,
  kDisk,
};

// Retry / degradation knobs for the TieredCache's disk tier (DESIGN.md §10).
// Transient infrastructure errors (UNAVAILABLE, DATA_LOSS) are retried with
// exponential backoff; a streak of terminally failed ops marks the tier
// offline (memory-only degradation) and a backoff clock admits one probe op
// per `reprobe_interval` until the tier recovers.
struct DiskFaultPolicy {
  int max_retries = 2;                       // retries per op, after the first try
  Nanos initial_backoff = 1 * kNanosPerMilli;
  double backoff_multiplier = 2.0;
  int offline_threshold = 3;                 // consecutive failed ops -> offline
  Nanos reprobe_interval = 100 * kNanosPerMilli;
};

// Two-level cache: a MemoryStore in front of a disk (or any) store. Reads
// check memory first and promote on hit from below; promotion reuses the
// disk tier's buffer (PutShared), so a promoted object is held once. The
// eviction *policy* lives in the SAND core; this class only provides the
// mechanics.
//
// Every instance publishes hit/miss/promotion/byte counters to the global
// obs registry ("sand.cache.*", visible at /.sand/metrics) and emits
// store_get/store_put trace spans; the pointers are resolved once at
// construction so the hot path stays a relaxed fetch_add.
// Fault tolerance (DESIGN.md §10): disk-tier ops that fail with UNAVAILABLE
// or DATA_LOSS are retried per the DiskFaultPolicy (counted on
// `sand.store.disk.retries`); a tier that keeps failing is marked offline
// (`sand.store.disk.degraded` gauge) and the cache degrades to memory-only —
// disk-destined puts land in memory best-effort, reads miss instead of
// erroring — re-probing the tier once per reprobe interval.
class TieredCache {
 public:
  TieredCache(std::shared_ptr<ObjectStore> memory, std::shared_ptr<ObjectStore> disk,
              DiskFaultPolicy fault_policy = {});

  Status Put(const std::string& key, std::span<const uint8_t> data, Tier tier);
  // Zero-copy insert: memory-resident tiers adopt the refcounted buffer
  // (falling through to a disk-tier copy when memory is full).
  Status PutShared(const std::string& key, SharedBytes data, Tier tier);
  // Single-call insert-if-absent into `tier` (falling through to disk when
  // memory is full). True when this call stored the object.
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data, Tier tier);
  // Primary read path: memory-tier hits are zero-copy references.
  Result<SharedBytes> GetShared(const std::string& key);
  // Compat wrapper copying out of GetShared.
  Result<std::vector<uint8_t>> Get(const std::string& key);
  bool Contains(const std::string& key);
  Status Delete(const std::string& key);

  // --- Pinning (async demand path) ---------------------------------------
  // A pinned key refuses Delete and Demote: in-flight speculative objects
  // (a prefetched batch between materialization and consumption) must not
  // be reclaimed by the eviction policy mid-flight. Pins are counted, so
  // nested Pin/Unpin pairs compose; pinning an absent key is allowed (the
  // producer pins before Put so eviction can never win the race against a
  // fresh insert).
  void Pin(const std::string& key);
  void Unpin(const std::string& key);
  bool IsPinned(const std::string& key);

  // Moves an object from memory to disk (spill) keeping it cached. With
  // compression enabled the object is encoded on the way down (per the
  // policy's codec for its key class). With an async runner attached the
  // encode+spill runs there and Demote returns once the runner takes it,
  // off the demand path; a refusal encodes inline.
  Status Demote(const std::string& key);

  // --- Transparent compression (DESIGN.md §11) ----------------------------
  // Installs the compression policy (and optionally the runner for async
  // demotions). Objects are encoded on Demote — and on disk-tier
  // Put when the policy says so — and transparently decoded on GetShared
  // hits; a compressed object that fails to decode is dropped and surfaces
  // as a miss, never as corrupt bytes. Call before the cache is shared with
  // concurrent readers (service startup), like the constructor arguments.
  void SetCompression(const CompressionPolicy& policy, AsyncRunner runner = nullptr);
  // Attaches/detaches the async demotion runner. Its owner detaches
  // (nullptr) before whatever the runner submits to goes away.
  void SetDemoteRunner(AsyncRunner runner);
  bool compression_enabled() const {
    return compression_on_.load(std::memory_order_relaxed);
  }
  // True when disk-tier puts are encoded by the policy (not just Demote
  // spills); producers can then hand the cache raw bytes for every tier.
  bool compresses_disk_puts() const;
  // Records that `key` (an augmented-frame view) derives from `base_key`
  // (its decoded source frame) so the SVD codec can share basis factors.
  void NoteBaseObject(const std::string& key, const std::string& base_key);
  // Cumulative raw/encoded ratio of this cache's codec (1.0 when disabled
  // or before the first encode); the eviction planner's savings estimate.
  double CompressionRatio() const;

  // Durable write into the disk tier with the retry policy. Unlike
  // Put(.., Tier::kDisk) this does NOT fall back to memory — callers asked
  // for durability (checkpoints) — and fails Unavailable when the tier is
  // offline.
  Status PutDisk(const std::string& key, std::span<const uint8_t> data);

  // --- Peer probe (cluster reuse, DESIGN.md §14) --------------------------
  // Attaches a peer store (typically a cluster::ClusterStore routing keys
  // to their ring owners) probed as the third level after a memory AND disk
  // miss. A peer hit counts on sand.cluster.peer_hits / peer_bytes and is
  // promoted into memory; a peer miss or a dead peer reads as a plain cache
  // miss (sand.cluster.peer_misses), so the caller recomputes locally and
  // the job never fails on a vanished node. Successful puts are published
  // to the peer store best-effort so other nodes can find the object.
  // Call at startup, like SetCompression; pass nullptr to detach.
  void SetPeerStore(std::shared_ptr<ObjectStore> peer);
  bool has_peer() const;

  // True while the disk tier is marked offline (memory-only degradation).
  bool disk_degraded() const { return disk_breaker_.offline(); }

  uint64_t MemoryUsedBytes() { return memory_->UsedBytes(); }
  uint64_t DiskUsedBytes() { return disk_->UsedBytes(); }
  uint64_t MemoryCapacityBytes() { return memory_->CapacityBytes(); }

  ObjectStore& memory() { return *memory_; }
  ObjectStore& disk() { return *disk_; }

 private:
  void UpdateUsageGauges();

  // The local (memory/disk) halves of the puts; the public methods wrap
  // them with the best-effort peer publish.
  Status PutLocal(const std::string& key, std::span<const uint8_t> data, Tier tier);
  Status PutSharedLocal(const std::string& key, SharedBytes data, Tier tier);
  Result<bool> PutIfAbsentLocal(const std::string& key, std::span<const uint8_t> data,
                                Tier tier);

  // Snapshot of the attached peer store (null when detached).
  std::shared_ptr<ObjectStore> PeerStore() const;
  // The third probe level: tries the peer on a local miss, returning
  // `miss` (counted on sand.cache.misses) when no peer is attached, the
  // peer misses, or the fetched object fails to decode.
  Result<SharedBytes> PeerOrMiss(const std::string& key, Result<SharedBytes> miss);
  // Best-effort publish of a freshly stored object to the peer store.
  void PublishToPeer(const std::string& key, SharedBytes data);

  // Snapshot of the codec engine (null when compression is disabled).
  std::shared_ptr<ObjectCodec> Codec() const;
  // Encodes `data` per the policy when `tier` is the disk tier and the
  // policy compresses disk puts; nullopt means "store raw".
  std::optional<std::vector<uint8_t>> MaybeEncodeForDisk(const std::string& key,
                                                         std::span<const uint8_t> data,
                                                         Tier tier);
  // Decodes `data` when it is a compressed container; passthrough otherwise.
  // An undecodable object returns the decode error (callers turn it into a
  // miss).
  Result<SharedBytes> MaybeDecode(SharedBytes data);
  // The encode+spill half of Demote (runs inline or on the async runner).
  Status DemoteCompressed(const std::string& key);

  // Runs one disk-tier op with the retry policy and records the outcome in
  // the circuit breaker: only a transient infrastructure error counts as a
  // failure (NotFound et al. are healthy answers). `fn` must be idempotent
  // (all store ops are).
  template <typename Fn>
  auto DiskOpWithRetry(Fn&& fn) -> decltype(fn());

  std::shared_ptr<ObjectStore> memory_;
  std::shared_ptr<ObjectStore> disk_;
  const DiskFaultPolicy fault_policy_;
  // Gates every disk op: Allow() false = memory-only degradation.
  CircuitBreaker disk_breaker_;

  // Peer store (cluster probe level). Published under peer_mutex_ (cold
  // path: attach at startup, snapshot per miss/put).
  mutable std::mutex peer_mutex_;
  std::shared_ptr<ObjectStore> peer_;

  // key -> pin count; entries are erased at zero.
  std::mutex pin_mutex_;
  std::map<std::string, int> pins_;

  // Compression state. codec_ and demote_runner_ are published under
  // codec_mutex_ (cold path; Demote snapshots the runner, so the owner can
  // detach it at shutdown without racing demotions); compression_on_ is the
  // hot-path gate.
  std::atomic<bool> compression_on_{false};
  mutable std::mutex codec_mutex_;
  std::shared_ptr<ObjectCodec> codec_;
  std::shared_ptr<const AsyncRunner> demote_runner_;

  // Registry-backed counters (process-global, cached here).
  obs::Counter* memory_hits_;
  obs::Counter* disk_hits_;
  obs::Counter* misses_;
  obs::Counter* promotions_;
  obs::Counter* demotions_;
  obs::Counter* memory_puts_;
  obs::Counter* disk_puts_;
  obs::Counter* bytes_read_memory_;
  obs::Counter* bytes_read_disk_;
  obs::Counter* bytes_written_memory_;
  obs::Counter* bytes_written_disk_;
  obs::Counter* disk_retries_;
  obs::Counter* demote_failures_;
  obs::Counter* peer_hits_;
  obs::Counter* peer_misses_;
  obs::Counter* peer_bytes_;
  obs::Gauge* memory_used_;
  obs::Gauge* disk_used_;
  obs::Gauge* pinned_keys_;
  obs::Gauge* disk_degraded_gauge_;
};

}  // namespace sand

#endif  // SAND_STORAGE_OBJECT_STORE_H_
