// SandFs: the POSIX-style view filesystem (paper §5.1, Tables 1-2).
//
// The paper mounts SAND through FUSE so unmodified applications reach views
// with open/read/getxattr/close. This repository keeps the identical verb
// surface and path grammar but serves it in-process: applications link the
// library and call SandFs, which forwards to a ViewProvider (the SAND core
// service) for materialization. Every training framework interaction in the
// examples and benches goes through this API only.
//
// Semantics:
//   Open("/{task}")                    -> session fd (task start signal)
//   Open("/{task}/{epoch}/{iter}/view")-> batch view fd
//   Open(frame / aug-frame paths)      -> intermediate object fd
//   Open(path, OpenOptions{...})       -> same, with per-fd readahead
//                                         window / pinning / O_NONBLOCK
//   Read/PRead(fd)                     -> materializes on first access, then
//                                         copies out of the object buffer
//   GetXattr(fd, name)                 -> view metadata (shape, timestamps)
//   Close(fd)                          -> releases the buffer (and signals
//                                         task end for session fds)
//
// The demand path is asynchronous underneath: first access resolves through
// ViewProvider::MaterializeAsync, and a per-task Prefetcher speculatively
// materializes the next batch views of the training stream (DESIGN.md §8)
// so steady-state reads find their data already in flight or done.
//
// Introspection views (served by SandFs itself, no provider round-trip —
// the observability layer exported "in true SAND style"):
//   Open("/.sand/metrics")             -> JSON snapshot of the global obs
//                                         registry (tools/sand_stat reads it)
//   Open("/.sand/trace")               -> Chrome trace-event JSON of the
//                                         span ring buffer (causally linked
//                                         per-request spans, DESIGN.md §12)
//   Open("/.sand/jobs/<tag>/metrics")  -> per-job slice of the registry
//                                         (tags = task names seen so far)
//   Open("/.sand/history")             -> ring-buffered time series of all
//                                         counters/gauges (HistoryRecorder)
//   Open("/.sand/health")              -> health/SLO verdict (HealthMonitor)
// All snapshot at Open time; Read/PRead/ReadAll then behave like any view.

#ifndef SAND_VFS_SAND_FS_H_
#define SAND_VFS_SAND_FS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/future.h"
#include "src/common/result.h"
#include "src/graph/view.h"
#include "src/obs/metrics.h"
#include "src/vfs/prefetcher.h"
#include "src/vfs/sand_api.h"

namespace sand {

// The materialization backend SandFs delegates to.
class ViewProvider {
 public:
  virtual ~ViewProvider() = default;

  // Produces (or fetches from cache) the object's bytes. Blocks until the
  // object is ready — this is the demand-feeding path.
  virtual Result<SharedBytes> Materialize(const ViewPath& path) = 0;

  // Asynchronous materialization: resolves to the object's bytes without
  // blocking the caller. `speculative` marks prefetcher readahead, which
  // providers schedule behind demand work and may refuse under load
  // (RESOURCE_EXHAUSTED). The default adapter wraps the synchronous path,
  // so every provider is usable from the async demand path; SandService
  // overrides this with a real worker-pool implementation.
  virtual Future<SharedBytes> MaterializeAsync(const ViewPath& path, bool speculative = false) {
    (void)speculative;
    return Future<SharedBytes>::FromResult(Materialize(path));
  }

  // Metadata lookup (Table 2 getxattr).
  virtual Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) = 0;

  // Task session lifecycle (the open/close task signals of §7.3).
  virtual Status OnSessionOpen(const std::string& task) = 0;
  virtual Status OnSessionClose(const std::string& task) = 0;

  // A batch view reached the trainer. `from_prefetch` is true when the
  // bytes came from a speculative materialization rather than the demand
  // call — providers use this to advance progress tracking (next-chunk
  // planning, eviction bookkeeping) that otherwise rides on Materialize.
  virtual void OnViewServed(const ViewPath& path, bool from_prefetch) {
    (void)path;
    (void)from_prefetch;
  }

  // The object's fd was closed; the provider may release memory.
  virtual void OnViewClose(const ViewPath& path) { (void)path; }

  // readdir analogue: names under `path` ("/" lists tasks, "/{task}" lists
  // epochs and videos, ...). Optional; default: not supported.
  virtual Result<std::vector<std::string>> ListChildren(const std::string& path) {
    return Unavailable("listing not supported: " + path);
  }

  // Called before a /.sand control view snapshots: providers refresh
  // gauges that are derived state rather than metric writes (pool queue
  // depths, cache residency), so the snapshot is current. Optional.
  virtual void PublishObservability() {}
};

struct SandFsStats {
  uint64_t opens = 0;
  uint64_t reads = 0;
  uint64_t closes = 0;
  uint64_t xattrs = 0;
  uint64_t bytes_read = 0;
};

// The in-process SandApi backend: fds resolve directly against the
// ViewProvider, reads are zero-copy references to materialized buffers.
class SandFs : public SandApi {
 public:
  // Prefix of the introspection namespace ("/.sand/...").
  static constexpr const char* kControlRoot = "/.sand";

  // `prefetch` configures the readahead engine; the default (window = 0)
  // disables speculation, preserving the synchronous demand path.
  explicit SandFs(ViewProvider* provider, PrefetchOptions prefetch = {});

  using SandApi::Open;  // the options-free overload

  // Opens a view or session path; returns a file descriptor.
  Result<int> Open(const std::string& path, const OpenOptions& options) override;

  // Sequential read from the fd's cursor. Returns bytes copied; 0 at EOF.
  Result<size_t> Read(int fd, std::span<uint8_t> buffer) override;

  // Positional read.
  Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) override;

  // Zero-copy read: a reference to the fd's materialized buffer. The
  // buffer outlives Close(fd) for as long as the caller pins it; treat it
  // as immutable. (The copying ReadAll wrapper this surface once carried
  // was removed after the PR 3 deprecation cycle; see DESIGN.md §13.)
  Result<SharedBytes> ReadAllShared(int fd) override;

  // Size of the object behind fd (materializes if needed).
  Result<uint64_t> SizeOf(int fd) override;

  Result<std::string> GetXattr(int fd, const std::string& name) override;

  // Lists directory entries (readdir analogue), sorted.
  Result<std::vector<std::string>> ListDir(const std::string& path) override;

  Status Close(int fd) override;

  SandFsStats stats();

  // The readahead engine (prefetch hit/waste counters for benches/tests).
  Prefetcher& prefetcher() { return prefetcher_; }

  // Adds a leaf to the process-global table of "/.sand/<name>" control
  // views that also holds the built-in ones: subsystems that live above
  // the VFS (e.g. the cluster layer, which depends on net which depends on
  // vfs) publish a view without a layering cycle. The renderer runs at
  // Open and its output is snapshotted into the control fd, exactly like
  // the built-in views; it must be thread-safe and must not call back into
  // a SandFs. Re-registering a name replaces the renderer; registering an
  // empty function unregisters it. Built-in names cannot be overridden.
  using ControlRenderer = std::function<std::string()>;
  static void RegisterControlView(const std::string& name, ControlRenderer renderer);

 private:
  struct FdEntry {
    bool is_session = false;
    bool is_control = false;  // /.sand/* fd; data snapshotted at Open
    std::string session_task;
    ViewPath path;
    OpenOptions options;
    uint64_t cursor = 0;
    SharedBytes data;             // after first access
    Future<SharedBytes> pending;  // in-flight materialization (nonblock)
    bool pending_from_prefetch = false;
  };

  // Ensures entry.data is materialized. Caller must NOT hold mutex_.
  // Returns UNAVAILABLE for a nonblock fd whose materialization is still
  // in flight.
  Status EnsureData(int fd);

  // Stores a finished materialization into the fd (if still open) and
  // fires the served/readahead notifications. Caller must NOT hold mutex_.
  Status CommitData(int fd, SharedBytes data, bool from_prefetch);

  // Serves Open("/.sand/...") given the components after ".sand";
  // NotFound for unknown names.
  Result<int> OpenControl(const std::vector<std::string>& parts);

  ViewProvider* provider_;
  Prefetcher prefetcher_;
  std::mutex mutex_;
  std::map<int, FdEntry> fds_;
  int next_fd_ = 3;  // skip stdin/stdout/stderr numbers for familiarity
  SandFsStats stats_;

  // Registry mirrors ("sand.fs.*" in /.sand/metrics).
  obs::Counter* opens_;
  obs::Counter* reads_;
  obs::Counter* closes_;
  obs::Counter* xattrs_;
  obs::Counter* bytes_read_;
  // Reader-observed wait per materializing access; the health monitor's
  // p99 SLO input.
  obs::Histogram* materialize_wait_ns_;
};

}  // namespace sand

#endif  // SAND_VFS_SAND_FS_H_
