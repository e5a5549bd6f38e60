#include "src/vfs/sand_fs.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/common/trace_context.h"
#include "src/obs/attribution.h"
#include "src/obs/health.h"
#include "src/obs/history.h"
#include "src/obs/trace.h"

namespace sand {

namespace {

// One "/.sand/<name>" entry: a leaf whose body `render` produces, or a
// per-tag directory "/.sand/<name>/<tag>/metrics" whose tags `tags` lists
// (sorted) and whose per-tag body `render_tag` produces.
struct ControlView {
  bool builtin = false;
  SandFs::ControlRenderer render;
  std::function<std::vector<std::string>()> tags;
  std::function<std::string(const std::string& tag)> render_tag;
  std::string tag_kind;  // "job" in "no job: /.sand/jobs/<tag>"
};

// The one file under each tag of a per-tag directory.
constexpr const char kTagFile[] = "metrics";

ControlView Leaf(SandFs::ControlRenderer render) {
  ControlView view;
  view.builtin = true;
  view.render = std::move(render);
  return view;
}

// A directory over one attribution registry: each tag's slice of the
// metrics registry, "sand.<kind>.<tag>." prefix stripped back off.
ControlView TagDir(const std::string& kind, std::function<std::vector<std::string>()> tags) {
  ControlView view;
  view.builtin = true;
  view.tags = std::move(tags);
  view.render_tag = [kind](const std::string& tag) {
    return obs::Registry::Get().ToJson("sand." + kind + "." + tag + ".",
                                       /*strip_prefix=*/true);
  };
  view.tag_kind = kind;
  return view;
}

// Every control view, built-in and registered. Process-global like the obs
// registry the views render from; a mutex-guarded map is fine because
// renderers only run on the cold control-open path, and they run outside
// the lock (they may be slow — e.g. the cluster layer probing peers).
struct ControlViewTable {
  std::mutex mutex;
  std::map<std::string, ControlView> views{
      {"health", Leaf([] { return obs::HealthMonitor::Get().EvaluateToJson(); })},
      {"history", Leaf([] { return obs::HistoryRecorder::Get().ToJson(); })},
      // The scheduler's per-job attribution of shared work.
      {"jobs", TagDir("job", [] { return obs::JobRegistry::Get().Tags(); })},
      {"metrics", Leaf([] { return obs::Registry::Get().ToJson(); })},
      // The socket front-end's per-tenant sessions/requests/rejections/
      // bytes plus whatever the scheduler attributed to the tenant.
      {"tenants", TagDir("tenant", [] { return obs::TenantRegistry::Get().Tags(); })},
      {"trace", Leaf([] { return obs::Tracer::Get().ToChromeJson(); })},
  };

  static ControlViewTable& Get() {
    static ControlViewTable* table = new ControlViewTable();
    return *table;
  }

  // A copy, so the caller can render without holding the lock.
  std::optional<ControlView> Find(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = views.find(name);
    if (it == views.end()) {
      return std::nullopt;
    }
    return it->second;
  }
};

}  // namespace

void SandFs::RegisterControlView(const std::string& name, ControlRenderer renderer) {
  if (name.empty()) {
    return;
  }
  ControlViewTable& table = ControlViewTable::Get();
  std::lock_guard<std::mutex> lock(table.mutex);
  auto it = table.views.find(name);
  if (it != table.views.end() && it->second.builtin) {
    return;
  }
  if (renderer) {
    ControlView view;
    view.render = std::move(renderer);
    table.views[name] = std::move(view);
  } else if (it != table.views.end()) {
    table.views.erase(it);
  }
}

SandFs::SandFs(ViewProvider* provider, PrefetchOptions prefetch)
    : provider_(provider),
      prefetcher_(provider, prefetch),
      opens_(obs::Registry::Get().GetCounter("sand.fs.opens")),
      reads_(obs::Registry::Get().GetCounter("sand.fs.reads")),
      closes_(obs::Registry::Get().GetCounter("sand.fs.closes")),
      xattrs_(obs::Registry::Get().GetCounter("sand.fs.xattrs")),
      bytes_read_(obs::Registry::Get().GetCounter("sand.fs.bytes_read")),
      materialize_wait_ns_(obs::Registry::Get().GetHistogram("sand.fs.materialize_wait_ns")) {}

Result<int> SandFs::OpenControl(const std::vector<std::string>& parts) {
  // Derived gauges (pool depths, cache residency) are provider state, not
  // metric writes; let it publish them before we snapshot.
  provider_->PublishObservability();
  std::string body;
  const std::string& name = parts[0];
  std::optional<ControlView> view = ControlViewTable::Get().Find(name);
  if (view && view->render && parts.size() == 1) {
    body = view->render();
  } else if (view && view->render_tag && parts.size() == 3 && parts[2] == kTagFile) {
    const std::string& tag = parts[1];
    std::vector<std::string> tags = view->tags();
    if (!std::binary_search(tags.begin(), tags.end(), tag)) {
      return NotFound("no " + view->tag_kind + ": " + kControlRoot + "/" + name + "/" + tag);
    }
    body = view->render_tag(tag);
  } else {
    return NotFound(std::string("no control view: ") + kControlRoot + "/" + Join(parts, "/"));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  int fd = next_fd_++;
  FdEntry entry;
  entry.is_control = true;
  entry.data = std::make_shared<const std::vector<uint8_t>>(body.begin(), body.end());
  fds_[fd] = std::move(entry);
  ++stats_.opens;
  opens_->Add(1);
  return fd;
}

Result<int> SandFs::Open(const std::string& path, const OpenOptions& options) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("open: path must be absolute: " + path);
  }
  SAND_RETURN_IF_ERROR(options.Validate());
  // "/{task}" with no further components is a session handle.
  std::vector<std::string> parts = Split(std::string_view(path).substr(1), '/');
  // The introspection namespace is served by the fs itself: the metrics
  // snapshot, trace dump, per-job slices, history, and health verdict are
  // views like everything else in SAND.
  if (parts.size() >= 2 && parts[0] == ".sand") {
    return OpenControl(std::vector<std::string>(parts.begin() + 1, parts.end()));
  }
  if (parts.size() == 1 && parts[0] == ".sand") {
    return InvalidArgument("open: /.sand is a directory (use ListDir)");
  }
  if (parts.size() == 1 && !parts[0].empty()) {
    SAND_RETURN_IF_ERROR(provider_->OnSessionOpen(parts[0]));
    prefetcher_.ConfigureSession(parts[0], options.prefetch_window);
    std::lock_guard<std::mutex> lock(mutex_);
    int fd = next_fd_++;
    FdEntry entry;
    entry.is_session = true;
    entry.session_task = parts[0];
    entry.options = options;
    fds_[fd] = std::move(entry);
    ++stats_.opens;
    opens_->Add(1);
    return fd;
  }
  SAND_ASSIGN_OR_RETURN(ViewPath view, ViewPath::Parse(path));
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd = next_fd_++;
    FdEntry entry;
    entry.path = view;
    entry.options = options;
    fds_[fd] = std::move(entry);
    ++stats_.opens;
    opens_->Add(1);
  }
  if (options.nonblock) {
    // O_NONBLOCK: start the materialization pipeline at open so the first
    // poll can already find it in flight (or done).
    bool from_prefetch = false;
    Future<SharedBytes> pending;
    std::optional<Future<SharedBytes>> taken = prefetcher_.Take(view);
    if (taken.has_value()) {
      pending = *taken;
      from_prefetch = true;
    } else {
      pending = provider_->MaterializeAsync(view, /*speculative=*/false);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it != fds_.end()) {
      it->second.pending = std::move(pending);
      it->second.pending_from_prefetch = from_prefetch;
    }
  }
  return fd;
}

Status SandFs::EnsureData(int fd) {
  ViewPath path;
  bool nonblock = false;
  bool from_prefetch = false;
  Future<SharedBytes> pending;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    if (it->second.is_session) {
      return InvalidArgument("read on a session fd");
    }
    if (it->second.data != nullptr) {
      return Status::Ok();
    }
    path = it->second.path;
    nonblock = it->second.options.nonblock;
    pending = it->second.pending;  // shared handle; valid once issued
    from_prefetch = it->second.pending_from_prefetch;
  }
  // This access materializes: it is a demand request entry. Root a trace
  // here (continuing any enclosing one) and attribute everything the
  // request causes — pool tasks, decode slices, rpc round trips — to the
  // task as job. Every span below parents under "fs_ensure_data".
  uint32_t job_id = obs::JobRegistry::Get().Intern(path.task);
  ScopedTraceContext trace_scope(BeginRequestContext(job_id, RequestClass::kDemand));
  SAND_SPAN("fs_ensure_data");
  Nanos wait_start = SinceProcessStart();
  if (!pending.valid()) {
    // First access: consume a speculation if the prefetcher has (or is
    // computing) this view, else issue a demand materialization. Both run
    // outside mutex_ — this may block on preprocessing.
    std::optional<Future<SharedBytes>> taken = prefetcher_.Take(path);
    if (taken.has_value()) {
      pending = *taken;
      from_prefetch = true;
    } else {
      pending = provider_->MaterializeAsync(path, /*speculative=*/false);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it != fds_.end()) {
      it->second.pending = pending;
      it->second.pending_from_prefetch = from_prefetch;
    }
  }
  if (nonblock && !pending.Ready()) {
    return Unavailable("materialization in flight: " + path.Format());
  }
  Result<SharedBytes> result = pending.Get();
  if (!result.ok()) {
    return result.status();
  }
  SharedBytes data = result.TakeValue();
  uint64_t waited = static_cast<uint64_t>(SinceProcessStart() - wait_start);
  materialize_wait_ns_->Record(waited);
  if (obs::JobMetrics* job = obs::JobMetricsFor(job_id)) {
    job->materialize_wait_ns->Record(waited);
    job->reads->Add(1);
    job->bytes_read->Add(data->size());
  }
  return CommitData(fd, std::move(data), from_prefetch);
}

Status SandFs::CommitData(int fd, SharedBytes data, bool from_prefetch) {
  ViewPath path;
  bool is_batch = false;
  bool pin = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("fd %d closed during read", fd));
    }
    if (it->second.data == nullptr) {
      it->second.data = data;
      it->second.pending = Future<SharedBytes>();
    }
    path = it->second.path;
    is_batch = path.type == ViewType::kBatchView;
    pin = it->second.options.pin;
  }
  if (is_batch) {
    // Outside mutex_: the served notification and the readahead planning
    // both call back into provider/prefetcher locks.
    provider_->OnViewServed(path, from_prefetch);
    if (pin) {
      prefetcher_.PinResult(path, data);
    }
    prefetcher_.OnBatchAccess(path);
  }
  return Status::Ok();
}

Result<size_t> SandFs::Read(int fd, std::span<uint8_t> buffer) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  FdEntry& entry = it->second;
  const std::vector<uint8_t>& data = *entry.data;
  if (entry.cursor >= data.size()) {
    return static_cast<size_t>(0);
  }
  size_t count = std::min(buffer.size(), data.size() - static_cast<size_t>(entry.cursor));
  std::memcpy(buffer.data(), data.data() + entry.cursor, count);
  entry.cursor += count;
  ++stats_.reads;
  stats_.bytes_read += count;
  reads_->Add(1);
  bytes_read_->Add(count);
  return count;
}

Result<size_t> SandFs::PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  const std::vector<uint8_t>& data = *it->second.data;
  if (offset >= data.size()) {
    return static_cast<size_t>(0);
  }
  size_t count = std::min(buffer.size(), data.size() - static_cast<size_t>(offset));
  std::memcpy(buffer.data(), data.data() + offset, count);
  ++stats_.reads;
  stats_.bytes_read += count;
  reads_->Add(1);
  bytes_read_->Add(count);
  return count;
}

Result<SharedBytes> SandFs::ReadAllShared(int fd) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  ++stats_.reads;
  stats_.bytes_read += it->second.data->size();
  reads_->Add(1);
  bytes_read_->Add(it->second.data->size());
  return it->second.data;
}

Result<uint64_t> SandFs::SizeOf(int fd) {
  SAND_RETURN_IF_ERROR(EnsureData(fd));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return InvalidArgument(StrFormat("bad fd %d", fd));
  }
  return static_cast<uint64_t>(it->second.data->size());
}

Result<std::string> SandFs::GetXattr(int fd, const std::string& name) {
  ViewPath path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    if (it->second.is_session) {
      return InvalidArgument("getxattr on a session fd");
    }
    if (it->second.is_control) {
      return InvalidArgument("getxattr on a control fd");
    }
    path = it->second.path;
    ++stats_.xattrs;
    xattrs_->Add(1);
  }
  return provider_->GetMetadata(path, name);
}

Result<std::vector<std::string>> SandFs::ListDir(const std::string& path) {
  if (path.empty() || path.front() != '/') {
    return InvalidArgument("listdir: path must be absolute: " + path);
  }
  const std::string root = std::string(kControlRoot) + "/";
  if (path == kControlRoot || path == root) {
    ControlViewTable& table = ControlViewTable::Get();
    std::lock_guard<std::mutex> lock(table.mutex);
    std::vector<std::string> entries;
    for (const auto& [name, view] : table.views) {
      entries.push_back(name);  // std::map order: sorted
    }
    return entries;
  }
  if (path.rfind(root, 0) == 0) {
    // "/.sand/<dir>" lists its tags; "/.sand/<dir>/<tag>" its one file.
    std::string rest = path.substr(root.size());
    size_t slash = rest.find('/');
    std::optional<ControlView> view = ControlViewTable::Get().Find(rest.substr(0, slash));
    if (view && view->tags) {
      return slash == std::string::npos ? view->tags() : std::vector<std::string>{kTagFile};
    }
  }
  SAND_ASSIGN_OR_RETURN(std::vector<std::string> children, provider_->ListChildren(path));
  std::sort(children.begin(), children.end());
  return children;
}

Status SandFs::Close(int fd) {
  FdEntry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return InvalidArgument(StrFormat("bad fd %d", fd));
    }
    entry = std::move(it->second);
    fds_.erase(it);
    ++stats_.closes;
    closes_->Add(1);
  }
  if (entry.is_session) {
    // Cancel the task's speculation before the provider tears the session
    // down (§7.3 task-end signal).
    prefetcher_.OnSessionClose(entry.session_task);
    return provider_->OnSessionClose(entry.session_task);
  }
  if (entry.is_control) {
    return Status::Ok();  // nothing provider-side to release
  }
  provider_->OnViewClose(entry.path);
  return Status::Ok();
}

SandFsStats SandFs::stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sand
