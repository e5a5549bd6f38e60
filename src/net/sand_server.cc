#include "src/net/sand_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/threading.h"
#include "src/common/trace_context.h"
#include "src/net/wire.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/storage/object_store.h"

namespace sand {
namespace net {

namespace {

bool IsControlPath(const std::string& path) {
  return path.rfind("/.sand", 0) == 0;
}

// First path component ("task" in /{task}/{epoch}/...): the unit tenant
// isolation keys on.
std::string TaskComponent(const std::string& path) {
  size_t start = path.find_first_not_of('/');
  if (start == std::string::npos) {
    return "";
  }
  size_t end = path.find('/', start);
  return path.substr(start, end == std::string::npos ? std::string::npos : end - start);
}

bool TenantMayAccess(const std::string& tag, const std::string& path) {
  if (IsControlPath(path) || path == "/" || path.empty()) {
    return true;
  }
  std::string task = TaskComponent(path);
  return task == tag || task.rfind(tag + "_", 0) == 0;
}

}  // namespace

SandServer::SandServer(SandApi* backend, Options options)
    : backend_(backend),
      options_(std::move(options)),
      request_pool_(WorkerPool::Options{
          std::max(1, options_.request_threads),
          std::max<size_t>(1, options_.request_queue_depth)}),
      idle_reaped_counter_(obs::Registry::Get().GetCounter("sand.net.idle_reaped")) {}

SandServer::~SandServer() { Stop(); }

Status SandServer::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) {
    return FailedPrecondition("server already started");
  }
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return InvalidArgument("no listen endpoint: set unix_path and/or tcp_port");
  }
  std::vector<int> fds;
  if (!options_.unix_path.empty()) {
    auto fd = ListenUnix(options_.unix_path, /*backlog=*/64);
    if (!fd.ok()) {
      return fd.status();
    }
    fds.push_back(*fd);
  }
  if (options_.tcp_port >= 0) {
    int bound = -1;
    auto fd = ListenTcp(options_.tcp_port, /*backlog=*/64, &bound);
    if (!fd.ok()) {
      for (int open_fd : fds) {
        ::close(open_fd);
      }
      return fd.status();
    }
    fds.push_back(*fd);
    bound_tcp_port_ = bound;
  }
  listen_fds_ = fds;
  running_ = true;
  for (int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
    NameThread(accept_threads_.back(), "sand-srv-accept");
  }
  if (options_.idle_timeout_ms > 0) {
    reaper_thread_ = std::thread([this] { ReaperLoop(); });
    NameThread(reaper_thread_, "sand-srv-reaper");
  }
  return Status::Ok();
}

void SandServer::Stop() {
  std::vector<std::thread> accept_threads;
  std::thread reaper_thread;
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      return;
    }
    running_ = false;
    for (int fd : listen_fds_) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    listen_fds_.clear();
    accept_threads.swap(accept_threads_);
    reaper_thread.swap(reaper_thread_);
    // Sever live connections under the lock: ServeConnection closes (and
    // -1s) socket_fd under this same mutex, so a still-open fd here cannot
    // be a recycled descriptor number belonging to someone else.
    for (auto& conn : connections_) {
      if (conn->socket_fd >= 0) {
        ::shutdown(conn->socket_fd, SHUT_RDWR);
      }
    }
    connections.swap(connections_);
  }
  reaper_cv_.notify_all();
  if (reaper_thread.joinable()) {
    reaper_thread.join();
  }
  for (std::thread& thread : accept_threads) {
    if (thread.joinable()) {
      thread.join();
    }
  }
  for (auto& conn : connections) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

void SandServer::RegisterTenant(const std::string& tag, const TenantQuotas& quotas) {
  uint32_t id = obs::TenantRegistry::Get().Intern(tag);
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto& state = tenants_[id];
  if (state == nullptr) {
    state = std::make_unique<TenantState>();
  }
  state->quotas = quotas;
  if (options_.sched_cap_hook) {
    options_.sched_cap_hook(id, quotas.sched_max_running);
  }
}

SandServer::TenantState* SandServer::TenantFor(uint32_t tenant_id) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant_id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void SandServer::AcceptLoop(int listen_fd) {
  while (true) {
    int socket_fd = ::accept(listen_fd, nullptr, nullptr);
    if (socket_fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener shut down
    }
    // Small-frame RPCs must not stall behind Nagle; dead trainers must not
    // pin sessions (and their budget charges) forever.
    TuneStreamSocket(socket_fd, /*keepalive=*/true);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      ::close(socket_fd);
      return;
    }
    // Reap finished connections so a long-lived server is bounded by its
    // *live* session count, not every session it ever accepted. A done
    // connection set its flag as its final act, so the join is immediate.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) {
          (*it)->thread.join();
        }
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Connection>();
    conn->socket_fd = socket_fd;
    conn->last_active_ns.store(static_cast<int64_t>(SinceProcessStart()));
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.connections_accepted;
      ++stats_.active_connections;
    }
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    NameThread(conn->thread, "sand-srv-conn");
    connections_.push_back(std::move(conn));
  }
}

void SandServer::ReaperLoop() {
  const int64_t timeout_ns = static_cast<int64_t>(options_.idle_timeout_ms) * 1000000;
  const auto poll_every =
      std::chrono::milliseconds(std::max(1, options_.idle_timeout_ms / 4));
  std::unique_lock<std::mutex> lock(mutex_);
  while (running_) {
    reaper_cv_.wait_for(lock, poll_every);
    if (!running_) {
      return;
    }
    int64_t now = static_cast<int64_t>(SinceProcessStart());
    for (auto& conn : connections_) {
      if (conn->done.load() || conn->reaped.load() || conn->socket_fd < 0) {
        continue;
      }
      bool reap = false;
      {
        // A connection waiting on a slow materialize is busy, not idle.
        // The activity stamp is re-checked and the shutdown issued under
        // the same inflight_mutex the reader stamps at admission, so a
        // frame admitted after the inflight check cannot land on a socket
        // this pass decided to reap: either its stamp is visible here (we
        // skip), or it is still before the stamp in the reader — in which
        // case the reader sees the shutdown as EOF and tears down cleanly
        // without ever dispatching onto a dead socket.
        std::lock_guard<std::mutex> inflight_lock(conn->inflight_mutex);
        if (conn->inflight == 0 &&
            now - conn->last_active_ns.load() >= timeout_ns) {
          // Shutdown (not close) wakes the reader thread out of ReadFrame;
          // the normal teardown path then releases the session's fds and
          // budget charges.
          conn->reaped.store(true);
          ::shutdown(conn->socket_fd, SHUT_RDWR);
          reap = true;
        }
      }
      if (!reap) {
        continue;
      }
      idle_reaped_counter_->Add(1);
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.idle_reaped;
    }
  }
}

void SandServer::ServeConnection(Connection* conn) {
  std::vector<uint8_t> request;
  while (ReadFrame(conn->socket_fd, request)) {
    {
      // Stamp under inflight_mutex: the idle reaper re-checks this stamp
      // under the same lock before shutting the socket down, closing the
      // window where a frame admitted after its inflight check would be
      // dispatched onto a reaped socket.
      std::lock_guard<std::mutex> lock(conn->inflight_mutex);
      conn->last_active_ns.store(static_cast<int64_t>(SinceProcessStart()));
    }
    WireReader reader(request);
    // Request ids exist only after an ok HELLO; the HELLO frame itself
    // carries none so the version parses first.
    const bool has_id = conn->tenant_id != 0;
    uint64_t request_id = 0;
    if (has_id) {
      auto id = reader.TakeU64();
      if (!id.ok()) {
        break;  // truncated frame: protocol violation, drop the connection
      }
      request_id = *id;
    }
    auto command_byte = reader.TakeU8();
    if (!command_byte.ok()) {
      break;  // empty frame: protocol violation, drop the connection
    }
    Command command = static_cast<Command>(*command_byte);

    if (command == Command::kHello) {
      if (!WriteResponse(conn, has_id, request_id,
                         WireResponse{HandleHello(conn, reader), nullptr})) {
        break;
      }
      continue;
    }
    if (conn->tenant_id == 0) {
      if (!WriteResponse(conn, has_id, request_id,
                         WireResponse{EncodeErrorResponse(FailedPrecondition(
                                          "HELLO with a tenant tag must precede "
                                          "other commands")),
                                      nullptr})) {
        break;
      }
      continue;
    }
    if (command == Command::kClose) {
      // Close runs inline and is never refused: cleanup must always be
      // possible, or backpressure would turn into an fd leak.
      if (!WriteResponse(conn, has_id, request_id,
                         WireResponse{HandleClose(conn, reader), nullptr})) {
        break;
      }
      continue;
    }

    // Data verb: admission-check on the reader thread, execute on the pool.
    TenantState* tenant = TenantFor(conn->tenant_id);
    obs::TenantMetrics* metrics = obs::TenantMetricsFor(conn->tenant_id);
    bool admitted = true;
    if (tenant != nullptr && tenant->quotas.max_inflight > 0) {
      // Each pipelined request takes a quota slot up front, so a deep
      // client window cannot out-run the tenant's inflight cap.
      if (tenant->inflight.fetch_add(1) >= tenant->quotas.max_inflight) {
        tenant->inflight.fetch_sub(1);
        admitted = false;
      }
    } else if (tenant != nullptr) {
      tenant->inflight.fetch_add(1);
    }
    if (!admitted) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_quota;
      }
      if (metrics != nullptr) {
        metrics->rejected->Add(1);
      }
      if (!WriteResponse(conn, has_id, request_id,
                         WireResponse{EncodeErrorResponse(ResourceExhausted(
                                          "tenant '" + conn->tenant_tag +
                                          "' inflight quota exceeded")),
                                      nullptr})) {
        break;
      }
      continue;
    }

    if (metrics != nullptr) {
      metrics->inflight->Add(1);
    }
    TraceContext ctx = BeginRequestContext(/*job_id=*/0, RequestClass::kDemand);
    ctx.tenant_id = conn->tenant_id;
    Nanos start = SinceProcessStart();
    {
      std::lock_guard<std::mutex> lock(conn->inflight_mutex);
      ++conn->inflight;
    }
    // The task owns its request bytes; the reader's `request` is free for
    // the next frame immediately. `cursor` re-synchronizes a fresh reader
    // past the id and command this thread already consumed.
    size_t cursor = reader.position();
    bool submitted = request_pool_.TrySubmit(
        [this, conn, tenant, metrics, command, has_id, request_id, ctx, start,
         cursor, body = request]() mutable {
          ScopedTraceContext scope(ctx);
          WireReader task_reader(body);
          (void)task_reader.Skip(cursor);
          WireResponse response = Dispatch(conn, command, task_reader);
          // Release the tenant quota slot before the response hits the wire:
          // a client that observes completion and immediately issues the next
          // request must find the slot free, not race our bookkeeping.
          if (tenant != nullptr) {
            tenant->inflight.fetch_sub(1);
          }
          bool wrote = WriteResponse(conn, has_id, request_id, response);
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.requests_served;
          }
          if (metrics != nullptr) {
            metrics->requests->Add(1);
            metrics->materialize_wait_ns->Record(
                static_cast<uint64_t>(SinceProcessStart() - start));
            if (!response.head.empty() && response.head[0] == 0) {
              // Only data-bearing reads count as tenant read traffic:
              // charging every ok response (Open, ListDir, GetXattr...)
              // inflated the tenant table and the fair-share bench.
              uint64_t bytes = 0;
              switch (command) {
                case Command::kRead:
                case Command::kPRead:
                  // head = status byte | u32 length | payload
                  bytes = response.head.size() > 5 ? response.head.size() - 5 : 0;
                  break;
                case Command::kReadAll:
                case Command::kGetObject:
                  // Bulk payload rides the scatter-gather body.
                  bytes = response.body != nullptr ? response.body->size() : 0;
                  break;
                default:
                  break;
              }
              if (bytes > 0) {
                metrics->bytes_read->Add(static_cast<int64_t>(bytes));
              }
            }
            metrics->inflight->Add(-1);
          }
          if (!wrote) {
            // Client is gone: wake the reader out of ReadFrame so the
            // session tears down instead of idling on a dead socket.
            ::shutdown(conn->socket_fd, SHUT_RDWR);
          }
          std::lock_guard<std::mutex> lock(conn->inflight_mutex);
          --conn->inflight;
          conn->inflight_cv.notify_all();
        });
    if (!submitted) {
      {
        std::lock_guard<std::mutex> lock(conn->inflight_mutex);
        --conn->inflight;
      }
      if (metrics != nullptr) {
        metrics->inflight->Add(-1);
      }
      if (tenant != nullptr) {
        tenant->inflight.fetch_sub(1);
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_backpressure;
      }
      if (metrics != nullptr) {
        metrics->rejected->Add(1);
      }
      if (!WriteResponse(conn, has_id, request_id,
                         WireResponse{EncodeErrorResponse(ResourceExhausted(
                                          "server saturated: request queue is "
                                          "full, retry")),
                                      nullptr})) {
        break;
      }
      continue;
    }
  }

  // Drain: pipelined dispatches still hold this connection's state (and
  // its socket, for their response writes); teardown must not race them.
  {
    std::unique_lock<std::mutex> lock(conn->inflight_mutex);
    conn->inflight_cv.wait(lock, [conn] { return conn->inflight == 0; });
  }

  // Session teardown: everything the connection still holds open is
  // closed, releasing pins and budget charges. A client that vanished
  // mid-materialize leaks nothing.
  {
    std::lock_guard<std::mutex> fd_lock(conn->fd_mutex);
    for (const auto& [fd, charged] : conn->owned_fds) {
      backend_->Close(fd);
      if (charged > 0) {
        if (TenantState* tenant = TenantFor(conn->tenant_id)) {
          tenant->resident_bytes.fetch_sub(charged);
        }
        if (obs::TenantMetrics* metrics = obs::TenantMetricsFor(conn->tenant_id)) {
          metrics->resident_bytes->Add(-static_cast<int64_t>(charged));
        }
      }
    }
    conn->owned_fds.clear();
  }
  {
    // Close under mutex_ and mark the fd gone so Stop never shutdowns a
    // descriptor number the kernel has already handed to someone else.
    std::lock_guard<std::mutex> lock(mutex_);
    ::close(conn->socket_fd);
    conn->socket_fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --stats_.active_connections;
  }
  // Last act: after this the accept loop may join and free us.
  conn->done.store(true);
}

bool SandServer::WriteResponse(Connection* conn, bool has_id, uint64_t request_id,
                               const WireResponse& response) {
  std::vector<uint8_t> head;
  head.reserve((has_id ? 8 : 0) + response.head.size());
  if (has_id) {
    PutU64(head, request_id);
  }
  head.insert(head.end(), response.head.begin(), response.head.end());
  const uint8_t* body = nullptr;
  size_t body_size = 0;
  if (response.body != nullptr) {
    body = response.body->data();
    body_size = response.body->size();
  }
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  return WriteFrameScatter(conn->socket_fd, head, body, body_size);
}

std::vector<uint8_t> SandServer::HandleHello(Connection* conn, WireReader& reader) {
  if (conn->tenant_id != 0) {
    // Re-authenticating as another tenant would strand this connection's
    // fd charges on the old tenant's budget; a session is one tenant for
    // life — reconnect to switch.
    return EncodeErrorResponse(
        FailedPrecondition("connection already authenticated as tenant '" +
                           conn->tenant_tag + "'"));
  }
  auto version = reader.TakeU16();
  if (!version.ok()) {
    return EncodeErrorResponse(version.status());
  }
  if (*version < kProtocolVersion) {
    return EncodeErrorResponse(InvalidArgument(
        "protocol version mismatch: server speaks " + std::to_string(kProtocolVersion) +
        ", client sent " + std::to_string(*version)));
  }
  auto tag = reader.TakeString();
  if (!tag.ok()) {
    return EncodeErrorResponse(tag.status());
  }
  if (tag->empty()) {
    return EncodeErrorResponse(InvalidArgument("empty tenant tag"));
  }
  if (!options_.allowed_uids.empty()) {
    // Fails closed: no credential (e.g. a TCP peer) refuses like a wrong
    // uid would — the allowlist is only satisfiable over a unix socket.
    auto uid = PeerUid(conn->socket_fd);
    if (!uid.ok()) {
      return EncodeErrorResponse(uid.status());
    }
    if (std::find(options_.allowed_uids.begin(), options_.allowed_uids.end(),
                  *uid) == options_.allowed_uids.end()) {
      return EncodeErrorResponse(FailedPrecondition(
          "peer uid " + std::to_string(*uid) + " not in server allowlist"));
    }
  }
  uint32_t id = obs::TenantRegistry::Get().Intern(*tag);
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
      if (!options_.auto_register_tenants) {
        return EncodeErrorResponse(FailedPrecondition("unknown tenant: " + *tag));
      }
      auto state = std::make_unique<TenantState>();
      state->quotas = options_.default_quotas;
      if (options_.sched_cap_hook) {
        options_.sched_cap_hook(id, state->quotas.sched_max_running);
      }
      tenants_.emplace(id, std::move(state));
    }
  }
  conn->tenant_id = id;
  conn->tenant_tag = *tag;
  if (obs::TenantMetrics* metrics = obs::TenantMetricsFor(id)) {
    metrics->sessions->Add(1);
  }
  std::vector<uint8_t> response = EncodeOkHead();
  PutU32(response, id);
  // The agreed version, min(offer, ours) = ours since lower offers were
  // refused: a newer client that cannot speak it hangs up.
  PutU16(response, kProtocolVersion);
  return response;
}

std::vector<uint8_t> SandServer::HandleOpen(Connection* conn, WireReader& reader) {
  auto path = reader.TakeString();
  if (!path.ok()) {
    return EncodeErrorResponse(path.status());
  }
  auto options_bytes = reader.TakeBytes();
  if (!options_bytes.ok()) {
    return EncodeErrorResponse(options_bytes.status());
  }
  OpenOptions open_options;
  if (!options_bytes->empty()) {
    auto decoded = OpenOptions::Deserialize(*options_bytes);
    if (!decoded.ok()) {
      return EncodeErrorResponse(decoded.status());
    }
    open_options = *decoded;
  }
  if (options_.isolate_tenant_tasks && !TenantMayAccess(conn->tenant_tag, *path)) {
    return EncodeErrorResponse(FailedPrecondition(
        "tenant '" + conn->tenant_tag + "' may not access task '" +
        TaskComponent(*path) + "'"));
  }
  // Storage budget: admission happens at Open. Reads on fds the tenant
  // already holds keep serving even over budget — refusing those would
  // wedge a training loop mid-batch instead of pacing it.
  if (TenantState* tenant = TenantFor(conn->tenant_id)) {
    uint64_t budget = tenant->quotas.storage_budget_bytes;
    if (budget > 0 && !IsControlPath(*path) &&
        tenant->resident_bytes.load() >= budget) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_quota;
      }
      if (obs::TenantMetrics* metrics = obs::TenantMetricsFor(conn->tenant_id)) {
        metrics->rejected->Add(1);
      }
      return EncodeErrorResponse(ResourceExhausted(
          "tenant '" + conn->tenant_tag + "' storage budget exceeded (" +
          std::to_string(tenant->resident_bytes.load()) + " of " +
          std::to_string(budget) + " bytes open)"));
    }
  }
  auto fd = backend_->Open(*path, open_options);
  if (!fd.ok()) {
    return EncodeErrorResponse(fd.status());
  }
  {
    std::lock_guard<std::mutex> fd_lock(conn->fd_mutex);
    conn->owned_fds.emplace(*fd, 0);
  }
  std::vector<uint8_t> response = EncodeOkHead();
  PutI32(response, *fd);
  return response;
}

std::vector<uint8_t> SandServer::HandleClose(Connection* conn, WireReader& reader) {
  auto fd = reader.TakeI32();
  if (!fd.ok()) {
    return EncodeErrorResponse(fd.status());
  }
  if (!FdOwned(conn, *fd)) {
    return EncodeErrorResponse(InvalidArgument("fd not owned by this connection"));
  }
  ReleaseFd(conn, *fd);
  Status status = backend_->Close(*fd);
  if (!status.ok()) {
    return EncodeErrorResponse(status);
  }
  return EncodeOkHead();
}

void SandServer::ChargeFd(Connection* conn, int fd, uint64_t bytes) {
  // Tenant/metric updates stay under fd_mutex so a concurrent ReleaseFd
  // (pipelined read racing an inline Close) cannot release a charge this
  // thread has recorded but not yet applied.
  std::lock_guard<std::mutex> fd_lock(conn->fd_mutex);
  auto it = conn->owned_fds.find(fd);
  if (it == conn->owned_fds.end() || it->second != 0 || bytes == 0) {
    return;
  }
  it->second = bytes;
  if (TenantState* tenant = TenantFor(conn->tenant_id)) {
    tenant->resident_bytes.fetch_add(bytes);
  }
  if (obs::TenantMetrics* metrics = obs::TenantMetricsFor(conn->tenant_id)) {
    metrics->resident_bytes->Add(static_cast<int64_t>(bytes));
  }
}

void SandServer::ReleaseFd(Connection* conn, int fd) {
  std::lock_guard<std::mutex> fd_lock(conn->fd_mutex);
  auto it = conn->owned_fds.find(fd);
  if (it == conn->owned_fds.end()) {
    return;
  }
  uint64_t charged = it->second;
  conn->owned_fds.erase(it);
  if (charged == 0) {
    return;
  }
  if (TenantState* tenant = TenantFor(conn->tenant_id)) {
    tenant->resident_bytes.fetch_sub(charged);
  }
  if (obs::TenantMetrics* metrics = obs::TenantMetricsFor(conn->tenant_id)) {
    metrics->resident_bytes->Add(-static_cast<int64_t>(charged));
  }
}

SandServer::WireResponse SandServer::Dispatch(Connection* conn, Command command,
                                              WireReader& reader) {
  switch (command) {
    case Command::kOpen:
      return {HandleOpen(conn, reader), nullptr};

    case Command::kRead:
    case Command::kPRead: {
      auto fd = reader.TakeI32();
      if (!fd.ok()) {
        return {EncodeErrorResponse(fd.status()), nullptr};
      }
      uint64_t offset = 0;
      if (command == Command::kPRead) {
        auto off = reader.TakeU64();
        if (!off.ok()) {
          return {EncodeErrorResponse(off.status()), nullptr};
        }
        offset = *off;
      }
      auto max_bytes = reader.TakeU64();
      if (!max_bytes.ok()) {
        return {EncodeErrorResponse(max_bytes.status()), nullptr};
      }
      if (!FdOwned(conn, *fd)) {
        return {EncodeErrorResponse(InvalidArgument("fd not owned by this connection")),
                nullptr};
      }
      // The client's max_bytes is untrusted: clamp the buffer to what the
      // object can actually yield before allocating, falling back to half
      // a frame only when the backend cannot size the fd.
      uint64_t count = std::min<uint64_t>(*max_bytes, kMaxFrameBytes / 2);
      if (auto size = backend_->SizeOf(*fd); size.ok()) {
        ChargeFd(conn, *fd, *size);
        uint64_t available = command == Command::kPRead
                                 ? (offset < *size ? *size - offset : 0)
                                 : *size;
        count = std::min(count, available);
      }
      std::vector<uint8_t> buffer(static_cast<size_t>(count));
      Result<size_t> read =
          command == Command::kRead
              ? backend_->Read(*fd, std::span<uint8_t>(buffer))
              : backend_->PRead(*fd, std::span<uint8_t>(buffer), offset);
      if (!read.ok()) {
        return {EncodeErrorResponse(read.status()), nullptr};
      }
      buffer.resize(*read);
      std::vector<uint8_t> response = EncodeOkHead();
      PutBytes(response, buffer);
      return {std::move(response), nullptr};
    }

    case Command::kReadAll: {
      auto fd = reader.TakeI32();
      if (!fd.ok()) {
        return {EncodeErrorResponse(fd.status()), nullptr};
      }
      if (!FdOwned(conn, *fd)) {
        return {EncodeErrorResponse(InvalidArgument("fd not owned by this connection")),
                nullptr};
      }
      auto bytes = backend_->ReadAllShared(*fd);
      if (!bytes.ok()) {
        return {EncodeErrorResponse(bytes.status()), nullptr};
      }
      ChargeFd(conn, *fd, (*bytes)->size());
      if ((*bytes)->size() > kMaxFrameBytes - 16) {
        // Too big for one response frame: answer with an error the client
        // can act on (chunk via PRead) instead of dying on the write.
        return {EncodeErrorResponse(OutOfRange(
                    "object is " + std::to_string((*bytes)->size()) +
                    " bytes, larger than the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap; read it in chunks with PRead")),
                nullptr};
      }
      // The payload ships as the scatter-gather tail of the frame, straight
      // from the cache's buffer: the head carries only status + length.
      std::vector<uint8_t> head = EncodeOkHead();
      PutU32(head, static_cast<uint32_t>((*bytes)->size()));
      return {std::move(head), *bytes};
    }

    case Command::kSizeOf: {
      auto fd = reader.TakeI32();
      if (!fd.ok()) {
        return {EncodeErrorResponse(fd.status()), nullptr};
      }
      if (!FdOwned(conn, *fd)) {
        return {EncodeErrorResponse(InvalidArgument("fd not owned by this connection")),
                nullptr};
      }
      auto size = backend_->SizeOf(*fd);
      if (!size.ok()) {
        return {EncodeErrorResponse(size.status()), nullptr};
      }
      ChargeFd(conn, *fd, *size);
      std::vector<uint8_t> response = EncodeOkHead();
      PutU64(response, *size);
      return {std::move(response), nullptr};
    }

    case Command::kGetXattr: {
      auto fd = reader.TakeI32();
      if (!fd.ok()) {
        return {EncodeErrorResponse(fd.status()), nullptr};
      }
      auto name = reader.TakeString();
      if (!name.ok()) {
        return {EncodeErrorResponse(name.status()), nullptr};
      }
      if (!FdOwned(conn, *fd)) {
        return {EncodeErrorResponse(InvalidArgument("fd not owned by this connection")),
                nullptr};
      }
      auto value = backend_->GetXattr(*fd, *name);
      if (!value.ok()) {
        return {EncodeErrorResponse(value.status()), nullptr};
      }
      std::vector<uint8_t> response = EncodeOkHead();
      PutString(response, *value);
      return {std::move(response), nullptr};
    }

    case Command::kListDir: {
      auto path = reader.TakeString();
      if (!path.ok()) {
        return {EncodeErrorResponse(path.status()), nullptr};
      }
      // Same isolation gate as Open: entry names are data too.
      if (options_.isolate_tenant_tasks && !TenantMayAccess(conn->tenant_tag, *path)) {
        return {EncodeErrorResponse(FailedPrecondition(
                    "tenant '" + conn->tenant_tag + "' may not list task '" +
                    TaskComponent(*path) + "'")),
                nullptr};
      }
      auto entries = backend_->ListDir(*path);
      if (!entries.ok()) {
        return {EncodeErrorResponse(entries.status()), nullptr};
      }
      // The root listing enumerates task names; under isolation a tenant
      // only sees its own (plus the shared control tree).
      if (options_.isolate_tenant_tasks && TaskComponent(*path).empty()) {
        entries->erase(
            std::remove_if(entries->begin(), entries->end(),
                           [conn](const std::string& entry) {
                             return !TenantMayAccess(conn->tenant_tag, "/" + entry);
                           }),
            entries->end());
      }
      std::vector<uint8_t> response = EncodeOkHead();
      PutU32(response, static_cast<uint32_t>(entries->size()));
      for (const std::string& entry : *entries) {
        PutString(response, entry);
      }
      return {std::move(response), nullptr};
    }

    case Command::kPutObject: {
      auto key = reader.TakeString();
      if (!key.ok()) {
        return {EncodeErrorResponse(key.status()), nullptr};
      }
      auto data = reader.TakeBytes();
      if (!data.ok()) {
        return {EncodeErrorResponse(data.status()), nullptr};
      }
      if (options_.object_store == nullptr) {
        return {EncodeErrorResponse(
                    FailedPrecondition("server has no object-store backend")),
                nullptr};
      }
      Status status = options_.object_store->PutShared(
          *key, MakeSharedBytes(std::move(*data)));
      if (!status.ok()) {
        return {EncodeErrorResponse(status), nullptr};
      }
      return {EncodeOkHead(), nullptr};
    }

    case Command::kGetObject: {
      auto key = reader.TakeString();
      if (!key.ok()) {
        return {EncodeErrorResponse(key.status()), nullptr};
      }
      if (options_.object_store == nullptr) {
        return {EncodeErrorResponse(
                    FailedPrecondition("server has no object-store backend")),
                nullptr};
      }
      auto bytes = options_.object_store->GetShared(*key);
      if (!bytes.ok()) {
        return {EncodeErrorResponse(bytes.status()), nullptr};
      }
      if ((*bytes)->size() > kMaxFrameBytes - 16) {
        return {EncodeErrorResponse(OutOfRange(
                    "object is " + std::to_string((*bytes)->size()) +
                    " bytes, larger than the " + std::to_string(kMaxFrameBytes) +
                    "-byte frame cap")),
                nullptr};
      }
      // Same shape as ReadAll: the payload rides the scatter-gather tail
      // straight from the store's SharedBytes allocation.
      std::vector<uint8_t> head = EncodeOkHead();
      PutU32(head, static_cast<uint32_t>((*bytes)->size()));
      return {std::move(head), *bytes};
    }

    case Command::kStatObject: {
      auto key = reader.TakeString();
      if (!key.ok()) {
        return {EncodeErrorResponse(key.status()), nullptr};
      }
      if (options_.object_store == nullptr) {
        return {EncodeErrorResponse(
                    FailedPrecondition("server has no object-store backend")),
                nullptr};
      }
      // One verb answers both Contains and SizeOf: absence is data, not an
      // error, so a cluster probe costs a single round trip either way.
      auto size = options_.object_store->SizeOf(*key);
      std::vector<uint8_t> response = EncodeOkHead();
      PutU8(response, size.ok() ? 1 : 0);
      PutU64(response, size.ok() ? *size : 0);
      return {std::move(response), nullptr};
    }

    case Command::kDeleteObject: {
      auto key = reader.TakeString();
      if (!key.ok()) {
        return {EncodeErrorResponse(key.status()), nullptr};
      }
      if (options_.object_store == nullptr) {
        return {EncodeErrorResponse(
                    FailedPrecondition("server has no object-store backend")),
                nullptr};
      }
      Status status = options_.object_store->Delete(*key);
      if (!status.ok()) {
        return {EncodeErrorResponse(status), nullptr};
      }
      return {EncodeOkHead(), nullptr};
    }

    case Command::kHello:
    case Command::kClose:
      break;  // handled inline by ServeConnection
  }
  return {EncodeErrorResponse(InvalidArgument(
              "unknown command " + std::to_string(static_cast<int>(command)))),
          nullptr};
}

ServerStats SandServer::stats() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace net
}  // namespace sand
