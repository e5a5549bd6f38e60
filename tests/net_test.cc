// Loopback tests for the SandServer / SandClient socket transport
// (DESIGN.md §13): tenant sessions, quota enforcement, backpressure as
// RESOURCE_EXHAUSTED over the wire, leak-free disconnects, and the
// pipelined protocol (out-of-order completion, request-id demux, the
// HELLO version check, idle reaping, peer-cred auth). Runs in the TSan suite
// (tools/check_tsan.sh).

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/future.h"
#include "src/net/client_pool.h"
#include "src/net/sand_client.h"
#include "src/net/sand_server.h"
#include "src/obs/attribution.h"
#include "src/vfs/sand_fs.h"

namespace sand {
namespace {

using net::ClientPool;
using net::SandClient;
using net::SandServer;
using net::ServerStats;
using net::TenantQuotas;

// In-memory provider safe for concurrent connections; materialization can
// be gated (blocked until released) to make admission races deterministic.
class NetFakeProvider : public ViewProvider {
 public:
  Result<SharedBytes> Materialize(const ViewPath& path) override {
    std::string key = path.Format();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++materialize_started_;
      started_cv_.notify_all();
      gate_cv_.wait(lock, [this, &key] {
        return !gated_ && gated_paths_.count(key) == 0;
      });
      auto it = objects_.find(key);
      if (it != objects_.end()) {
        return std::make_shared<const std::vector<uint8_t>>(it->second);
      }
    }
    return NotFound("no object " + key);
  }

  Result<std::string> GetMetadata(const ViewPath& path, const std::string& name) override {
    if (name == "path") {
      return path.Format();
    }
    return NotFound("unknown xattr " + name);
  }

  Result<std::vector<std::string>> ListChildren(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string prefix = path == "/" ? "/" : path + "/";
    std::vector<std::string> children;
    for (const auto& [key, bytes] : objects_) {
      if (key.rfind(prefix, 0) != 0) {
        continue;
      }
      std::string rest = key.substr(prefix.size());
      std::string child = rest.substr(0, rest.find('/'));
      if (!child.empty() &&
          std::find(children.begin(), children.end(), child) == children.end()) {
        children.push_back(child);
      }
    }
    return children;
  }

  Status OnSessionOpen(const std::string& task) override {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[task] += 1;
    return Status::Ok();
  }
  Status OnSessionClose(const std::string& task) override {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_[task] -= 1;
    return Status::Ok();
  }
  void OnViewClose(const ViewPath& path) override {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_.push_back(path.Format());
  }

  void AddObject(const std::string& path, std::vector<uint8_t> bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    objects_[path] = std::move(bytes);
  }
  void SetGated(bool gated) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      gated_ = gated;
    }
    gate_cv_.notify_all();
  }
  // Gates a single object: its Materialize blocks while others flow. The
  // lever for proving out-of-order completion on one pipelined connection.
  void SetPathGated(const std::string& path, bool gated) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (gated) {
        gated_paths_.insert(path);
      } else {
        gated_paths_.erase(path);
      }
    }
    gate_cv_.notify_all();
  }
  // Blocks until at least `count` Materialize calls have started (i.e. are
  // holding a request-pool slot).
  void WaitMaterializeStarted(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    started_cv_.wait(lock, [this, count] { return materialize_started_ >= count; });
  }
  int SessionCount(const std::string& task) {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_[task];
  }
  std::vector<std::string> ClosedViews() {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable gate_cv_;
  std::condition_variable started_cv_;
  bool gated_ = false;
  std::set<std::string> gated_paths_;
  int materialize_started_ = 0;
  std::map<std::string, std::vector<uint8_t>> objects_;
  std::map<std::string, int> sessions_;
  std::vector<std::string> closed_;
};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : fs_(&provider_) {
    provider_.AddObject("/train/0/0/view", {1, 2, 3, 4, 5, 6, 7, 8});
    provider_.AddObject("/train/0/1/view", {9, 10, 11, 12});
    provider_.AddObject("/alpha_train/0/0/view", {42});
  }

  ~NetTest() override {
    if (server_) {
      server_->Stop();
    }
    ::unlink(socket_path_.c_str());
  }

  void StartServer(SandServer::Options options = {}) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    socket_path_ = ::testing::TempDir() + "sand_" + std::to_string(::getpid()) + "_" +
                   info->name() + ".sock";
    options.unix_path = socket_path_;
    server_ = std::make_unique<SandServer>(&fs_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  std::unique_ptr<SandClient> Connect(const std::string& tenant) {
    SandClient::Options options;
    options.unix_path = socket_path_;
    options.tenant = tenant;
    auto client = SandClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  NetFakeProvider provider_;
  SandFs fs_;
  std::unique_ptr<SandServer> server_;
  std::string socket_path_;
};

// Raw-socket helpers for hand-written sessions. After an ok HELLO every
// frame carries a u64 request id ahead of the command (responses: ahead of
// the status head).
std::vector<uint8_t> RawRequest(uint64_t request_id, net::Command command) {
  std::vector<uint8_t> frame;
  net::PutU64(frame, request_id);
  net::PutU8(frame, static_cast<uint8_t>(command));
  return frame;
}

// Reads one response frame, checks its request id, and strips it.
void ReadRawResponse(int socket_fd, uint64_t request_id, std::vector<uint8_t>& response) {
  std::vector<uint8_t> frame;
  ASSERT_TRUE(net::ReadFrame(socket_fd, frame));
  net::WireReader reader(frame);
  auto id = reader.TakeU64();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, request_id);
  response = reader.TakeRest();
}

// Opens a raw connection and authenticates it as `tenant`.
int RawSession(const std::string& socket_path, const std::string& tenant) {
  auto socket_fd = net::ConnectUnix(socket_path);
  EXPECT_TRUE(socket_fd.ok());
  if (!socket_fd.ok()) {
    return -1;
  }
  std::vector<uint8_t> hello{static_cast<uint8_t>(net::Command::kHello)};
  net::PutU16(hello, net::kProtocolVersion);
  net::PutString(hello, tenant);
  std::vector<uint8_t> response;
  EXPECT_TRUE(net::WriteFrame(*socket_fd, hello));
  EXPECT_TRUE(net::ReadFrame(*socket_fd, response));
  EXPECT_TRUE(net::DecodeResponseStatus(response).ok());
  return *socket_fd;
}

TEST_F(NetTest, VerbsRoundTripOverTheWire) {
  StartServer();
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  EXPECT_NE(client->tenant_id(), 0u);

  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  EXPECT_EQ(*client->SizeOf(*fd), 8u);

  std::vector<uint8_t> buffer(4);
  auto n = client->Read(*fd, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  EXPECT_EQ(buffer, (std::vector<uint8_t>{1, 2, 3, 4}));
  // Cursor advanced server-side.
  n = client->Read(*fd, buffer);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buffer, (std::vector<uint8_t>{5, 6, 7, 8}));

  auto pread = client->PRead(*fd, buffer, 2);
  ASSERT_TRUE(pread.ok());
  EXPECT_EQ(buffer[0], 3);

  auto all = client->ReadAllShared(*fd);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(**all, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));

  EXPECT_EQ(*client->GetXattr(*fd, "path"), "/train/0/0/view");

  auto entries = client->ListDir("/.sand");
  ASSERT_TRUE(entries.ok());
  EXPECT_NE(std::find(entries->begin(), entries->end(), "tenants"), entries->end());

  EXPECT_TRUE(client->Close(*fd).ok());

  // Error statuses round-trip with their code.
  auto missing = client->Open("/train/9/9/view");
  // Open is lazy; the error surfaces at read time.
  if (missing.ok()) {
    auto bytes = client->ReadAllShared(*missing);
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.status().code(), ErrorCode::kNotFound);
  }
}

TEST_F(NetTest, HelloIsMandatoryAndVersionChecked) {
  StartServer();
  // Raw connection: an OPEN before HELLO must be refused.
  auto socket_fd = net::ConnectUnix(socket_path_);
  ASSERT_TRUE(socket_fd.ok());
  std::vector<uint8_t> request{static_cast<uint8_t>(net::Command::kOpen)};
  net::PutString(request, "/train/0/0/view");
  net::PutBytes(request, OpenOptions{}.Serialize());
  ASSERT_TRUE(net::WriteFrame(*socket_fd, request));
  std::vector<uint8_t> response;
  ASSERT_TRUE(net::ReadFrame(*socket_fd, response));
  EXPECT_EQ(net::DecodeResponseStatus(response).code(), ErrorCode::kFailedPrecondition);

  // A version below the server's floor is refused outright.
  std::vector<uint8_t> hello{static_cast<uint8_t>(net::Command::kHello)};
  net::PutU16(hello, 0);
  net::PutString(hello, "alpha");
  ASSERT_TRUE(net::WriteFrame(*socket_fd, hello));
  ASSERT_TRUE(net::ReadFrame(*socket_fd, response));
  EXPECT_EQ(net::DecodeResponseStatus(response).code(), ErrorCode::kInvalidArgument);

  // So is version 1, the retired serial protocol.
  std::vector<uint8_t> serial{static_cast<uint8_t>(net::Command::kHello)};
  net::PutU16(serial, 1);
  net::PutString(serial, "alpha");
  ASSERT_TRUE(net::WriteFrame(*socket_fd, serial));
  ASSERT_TRUE(net::ReadFrame(*socket_fd, response));
  EXPECT_EQ(net::DecodeResponseStatus(response).code(), ErrorCode::kInvalidArgument);

  // A version above the server's ceiling negotiates *down*: the response
  // carries the agreed version after the tenant id.
  std::vector<uint8_t> eager{static_cast<uint8_t>(net::Command::kHello)};
  net::PutU16(eager, 0xFFFF);
  net::PutString(eager, "alpha");
  ASSERT_TRUE(net::WriteFrame(*socket_fd, eager));
  ASSERT_TRUE(net::ReadFrame(*socket_fd, response));
  ASSERT_TRUE(net::DecodeResponseStatus(response).ok());
  net::WireReader hello_reader(response);
  (void)*hello_reader.TakeU8();
  (void)*hello_reader.TakeU32();  // tenant id
  EXPECT_EQ(*hello_reader.TakeU16(), net::kProtocolVersion);
  ::close(*socket_fd);

  // Empty tenant tag is refused client-side already.
  SandClient::Options bad;
  bad.unix_path = socket_path_;
  EXPECT_EQ(SandClient::Connect(bad).status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(NetTest, SecondHelloIsRejected) {
  StartServer();
  int socket_fd = RawSession(socket_path_, "alpha");
  ASSERT_GE(socket_fd, 0);

  // Re-badging as another tenant mid-session would let fd charges taken
  // as "alpha" be released against "beta"'s budget: refused.
  std::vector<uint8_t> rebadge = RawRequest(1, net::Command::kHello);
  net::PutU16(rebadge, net::kProtocolVersion);
  net::PutString(rebadge, "beta");
  std::vector<uint8_t> response;
  ASSERT_TRUE(net::WriteFrame(socket_fd, rebadge));
  ReadRawResponse(socket_fd, 1, response);
  EXPECT_EQ(net::DecodeResponseStatus(response).code(),
            ErrorCode::kFailedPrecondition);

  // The connection itself stays healthy as the original tenant.
  std::vector<uint8_t> open = RawRequest(2, net::Command::kOpen);
  net::PutString(open, "/train/0/0/view");
  net::PutBytes(open, OpenOptions{}.Serialize());
  ASSERT_TRUE(net::WriteFrame(socket_fd, open));
  ReadRawResponse(socket_fd, 2, response);
  EXPECT_TRUE(net::DecodeResponseStatus(response).ok());
  ::close(socket_fd);
}

TEST_F(NetTest, OversizedFrameLengthDropsConnection) {
  StartServer();
  auto socket_fd = net::ConnectUnix(socket_path_);
  ASSERT_TRUE(socket_fd.ok());
  // A hostile length word above kMaxFrameBytes must be refused before any
  // allocation: the server drops the connection instead of resizing.
  uint8_t header[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(*socket_fd, header, sizeof(header)),
            static_cast<ssize_t>(sizeof(header)));
  std::vector<uint8_t> response;
  EXPECT_FALSE(net::ReadFrame(*socket_fd, response)) << "expected EOF";
  ::close(*socket_fd);

  // The server is still serving other clients.
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(client->ReadAllShared(*fd).ok());
}

TEST_F(NetTest, ClientVanishingMidResponseDoesNotKillServer) {
  StartServer();
  provider_.SetGated(true);

  // Raw session: HELLO, Open, then a ReadAll that parks behind the gate.
  int socket_fd = RawSession(socket_path_, "alpha");
  ASSERT_GE(socket_fd, 0);
  std::vector<uint8_t> open = RawRequest(1, net::Command::kOpen);
  net::PutString(open, "/train/0/0/view");
  net::PutBytes(open, OpenOptions{}.Serialize());
  std::vector<uint8_t> response;
  ASSERT_TRUE(net::WriteFrame(socket_fd, open));
  ReadRawResponse(socket_fd, 1, response);
  ASSERT_TRUE(net::DecodeResponseStatus(response).ok());
  net::WireReader reader(response);
  (void)*reader.TakeU8();
  int fd = *reader.TakeI32();
  std::vector<uint8_t> read_all = RawRequest(2, net::Command::kReadAll);
  net::PutI32(read_all, fd);
  ASSERT_TRUE(net::WriteFrame(socket_fd, read_all));
  provider_.WaitMaterializeStarted(1);

  // Vanish while the server still owes us a response; when the gate opens
  // the server writes into a dead socket. That must be EPIPE on that
  // connection, not SIGPIPE killing the process (which would abort the
  // whole test binary here).
  ::close(socket_fd);
  provider_.SetGated(false);

  auto survivor = Connect("beta");
  ASSERT_NE(survivor, nullptr);
  auto survivor_fd = survivor->Open("/train/0/1/view");
  ASSERT_TRUE(survivor_fd.ok());
  EXPECT_TRUE(survivor->ReadAllShared(*survivor_fd).ok());
  // And the vanished session's resources were torn down.
  std::vector<std::string> closed;
  for (int i = 0; i < 500; ++i) {
    closed = provider_.ClosedViews();
    if (std::find(closed.begin(), closed.end(), "/train/0/0/view") != closed.end()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(std::find(closed.begin(), closed.end(), "/train/0/0/view"), closed.end());
}

TEST_F(NetTest, EightConcurrentClientsAcrossTwoTenants) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kReadsPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([this, i, &failures] {
      auto client = Connect(i % 2 == 0 ? "alpha" : "beta");
      if (client == nullptr) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kReadsPerClient; ++r) {
        auto fd = client->Open(r % 2 == 0 ? "/train/0/0/view" : "/train/0/1/view");
        if (!fd.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto bytes = client->ReadAllShared(*fd);
        if (!bytes.ok() || (*bytes)->empty()) {
          failures.fetch_add(1);
        }
        if (!client->Close(*fd).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Both tenants surfaced in the control tree, readable over this same
  // transport.
  auto inspector = Connect("alpha");
  ASSERT_NE(inspector, nullptr);
  auto tenants = inspector->ListDir("/.sand/tenants");
  ASSERT_TRUE(tenants.ok());
  EXPECT_NE(std::find(tenants->begin(), tenants->end(), "alpha"), tenants->end());
  EXPECT_NE(std::find(tenants->begin(), tenants->end(), "beta"), tenants->end());

  auto fd = inspector->Open("/.sand/tenants/alpha/metrics");
  ASSERT_TRUE(fd.ok());
  auto body = inspector->ReadAllShared(*fd);
  ASSERT_TRUE(body.ok());
  std::string text((*body)->begin(), (*body)->end());
  EXPECT_NE(text.find("requests"), std::string::npos);
  EXPECT_TRUE(inspector->Close(*fd).ok());

  ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.requests_served,
            static_cast<uint64_t>(kClients * kReadsPerClient));
}

TEST_F(NetTest, PoolSaturationReturnsResourceExhausted) {
  SandServer::Options options;
  options.request_threads = 1;
  options.request_queue_depth = 1;
  StartServer(options);
  provider_.SetGated(true);

  auto blocker = Connect("alpha");
  ASSERT_NE(blocker, nullptr);
  auto blocked_fd = blocker->Open("/train/0/0/view");
  ASSERT_TRUE(blocked_fd.ok());
  std::thread blocked([&blocker, &blocked_fd] {
    // Holds the only pool thread inside Materialize until the gate opens.
    auto bytes = blocker->ReadAllShared(*blocked_fd);
    EXPECT_TRUE(bytes.ok());
  });
  provider_.WaitMaterializeStarted(1);

  // The pool thread is occupied and its queue holds one slot, so of 4
  // concurrent Opens at most one can be admitted (and it parks behind the
  // gate) — at least 3 get an immediate RESOURCE_EXHAUSTED, never a hang.
  std::atomic<int> exhausted{0};
  std::atomic<int> other{0};
  std::vector<std::thread> burst;
  for (int i = 0; i < 4; ++i) {
    burst.emplace_back([this, &exhausted, &other] {
      auto client = Connect("beta");
      ASSERT_NE(client, nullptr);
      auto fd = client->Open("/train/0/1/view");
      if (!fd.ok()) {
        (fd.status().code() == ErrorCode::kResourceExhausted ? exhausted : other)
            .fetch_add(1);
        return;
      }
      auto bytes = client->ReadAllShared(*fd);
      if (!bytes.ok()) {
        (bytes.status().code() == ErrorCode::kResourceExhausted ? exhausted : other)
            .fetch_add(1);
      }
    });
  }
  // The admitted request (if any) blocks on the gate, so join only after
  // the refusals have been observed and the gate opened.
  for (int i = 0; i < 5000 && exhausted.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  provider_.SetGated(false);
  for (std::thread& thread : burst) {
    thread.join();
  }
  blocked.join();
  EXPECT_GE(exhausted.load(), 1)
      << "saturation must answer RESOURCE_EXHAUSTED, never hang";
  EXPECT_EQ(other.load(), 0) << "no non-backpressure failures expected";
  EXPECT_GE(server_->stats().rejected_backpressure, 1u);
}

TEST_F(NetTest, TenantInflightQuotaEnforced) {
  SandServer::Options options;
  options.request_threads = 4;
  options.auto_register_tenants = true;
  StartServer(options);
  TenantQuotas quotas;
  quotas.max_inflight = 1;
  server_->RegisterTenant("capped", quotas);
  provider_.SetGated(true);

  auto first = Connect("capped");
  auto second = Connect("capped");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  auto fd1 = first->Open("/train/0/0/view");
  auto fd2 = second->Open("/train/0/1/view");
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());

  std::thread holder([&first, &fd1] {
    EXPECT_TRUE(first->ReadAllShared(*fd1).ok());
  });
  provider_.WaitMaterializeStarted(1);
  // The tenant's one inflight slot is taken: deterministic refusal.
  auto refused = second->ReadAllShared(*fd2);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kResourceExhausted);
  provider_.SetGated(false);
  holder.join();

  // Slot free again: the same read now succeeds.
  auto retried = second->ReadAllShared(*fd2);
  EXPECT_TRUE(retried.ok());
  EXPECT_GE(server_->stats().rejected_quota, 1u);
}

TEST_F(NetTest, StorageBudgetRefusesNewOpensButServesExisting) {
  SandServer::Options options;
  TenantQuotas quotas;
  quotas.storage_budget_bytes = 4;  // smaller than the 8-byte object
  options.default_quotas = quotas;
  StartServer(options);

  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client->ReadAllShared(*fd).ok());  // charges 8 bytes

  auto over = client->Open("/train/0/1/view");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), ErrorCode::kResourceExhausted);

  // Demand reads on what the tenant already holds keep serving.
  EXPECT_TRUE(client->ReadAllShared(*fd).ok());
  // Control paths are exempt from the budget.
  auto control = client->Open("/.sand/metrics");
  EXPECT_TRUE(control.ok());

  // Close releases the charge; new opens are admitted again.
  ASSERT_TRUE(client->Close(*fd).ok());
  EXPECT_TRUE(client->Open("/train/0/1/view").ok());
}

TEST_F(NetTest, FdsAreConnectionScoped) {
  StartServer();
  auto owner = Connect("alpha");
  auto intruder = Connect("beta");
  ASSERT_NE(owner, nullptr);
  ASSERT_NE(intruder, nullptr);
  auto fd = owner->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto stolen = intruder->ReadAllShared(*fd);
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(stolen.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(intruder->Close(*fd).code(), ErrorCode::kInvalidArgument);
  EXPECT_TRUE(owner->ReadAllShared(*fd).ok()) << "owner is unaffected";
}

TEST_F(NetTest, DisconnectMidSessionLeaksNothing) {
  StartServer();
  {
    auto client = Connect("alpha");
    ASSERT_NE(client, nullptr);
    auto session = client->Open("/train");
    ASSERT_TRUE(session.ok());
    EXPECT_EQ(provider_.SessionCount("train"), 1);
    auto view = client->Open("/train/0/0/view");
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(client->ReadAllShared(*view).ok());
    // Client destroyed without closing anything: socket just goes away.
  }
  // The server's session teardown closes both fds.
  for (int i = 0; i < 500 && provider_.SessionCount("train") != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(provider_.SessionCount("train"), 0);
  std::vector<std::string> closed = provider_.ClosedViews();
  EXPECT_NE(std::find(closed.begin(), closed.end(), "/train/0/0/view"), closed.end());
  for (int i = 0; i < 500 && server_->stats().active_connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().active_connections, 0);
}

TEST_F(NetTest, TenantTaskIsolation) {
  SandServer::Options options;
  options.isolate_tenant_tasks = true;
  StartServer(options);
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto foreign = client->Open("/train/0/0/view");
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(client->Open("/alpha_train/0/0/view").ok());
  EXPECT_TRUE(client->Open("/.sand/metrics").ok()) << "control tree stays shared";

  // ListDir honors the same gate: a foreign task's entry names are data.
  auto foreign_list = client->ListDir("/train");
  ASSERT_FALSE(foreign_list.ok());
  EXPECT_EQ(foreign_list.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(client->ListDir("/alpha_train").ok());
  EXPECT_TRUE(client->ListDir("/.sand").ok()) << "control tree stays listable";
  // The root listing is filtered down to the tenant's own tasks.
  auto root = client->ListDir("/");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(std::find(root->begin(), root->end(), "train"), root->end())
      << "foreign task name leaked through the root listing";
  EXPECT_NE(std::find(root->begin(), root->end(), "alpha_train"), root->end());
}

TEST_F(NetTest, SchedulerCapHookReceivesQuotas) {
  std::mutex mutex;
  std::map<uint32_t, int> caps;
  SandServer::Options options;
  options.sched_cap_hook = [&mutex, &caps](uint32_t tenant_id, int cap) {
    std::lock_guard<std::mutex> lock(mutex);
    caps[tenant_id] = cap;
  };
  StartServer(options);
  TenantQuotas quotas;
  quotas.sched_max_running = 2;
  server_->RegisterTenant("alpha", quotas);
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(caps.size(), 1u);
  EXPECT_EQ(caps.begin()->second, 2);
}

TEST_F(NetTest, PipelinedReadsCompleteOutOfOrder) {
  StartServer();
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  ASSERT_EQ(client->negotiated_version(), net::kProtocolVersion);
  auto slow_fd = client->Open("/train/0/0/view");
  auto fast_fd = client->Open("/train/0/1/view");
  ASSERT_TRUE(slow_fd.ok());
  ASSERT_TRUE(fast_fd.ok());

  // Park the first request behind its object's gate, then issue a second
  // on the same connection. Under the serial protocol the second could
  // never finish first; under pipelining it overtakes.
  provider_.SetPathGated("/train/0/0/view", true);
  auto slow = client->ReadAllSharedAsync(*slow_fd);
  provider_.WaitMaterializeStarted(1);
  auto fast = client->ReadAllSharedAsync(*fast_fd);
  auto fast_result = fast.Get();
  ASSERT_TRUE(fast_result.ok()) << fast_result.status().ToString();
  EXPECT_EQ(**fast_result, (std::vector<uint8_t>{9, 10, 11, 12}));
  EXPECT_FALSE(slow.Ready())
      << "gated request resolved before its materialization was released";

  provider_.SetPathGated("/train/0/0/view", false);
  auto slow_result = slow.Get();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status().ToString();
  EXPECT_EQ(**slow_result, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(NetTest, ResponseIdMismatchPoisonsClient) {
  // A hand-rolled server that answers the HELLO correctly, then replies to
  // the first request with an id nobody asked for. The client must treat
  // the stream as desynchronized: fail the call, refuse everything after.
  std::string path = ::testing::TempDir() + "sand_bogus_" +
                     std::to_string(::getpid()) + ".sock";
  auto listen_fd = net::ListenUnix(path, /*backlog=*/4);
  ASSERT_TRUE(listen_fd.ok());
  std::thread bogus_server([&listen_fd] {
    int conn = ::accept(*listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::vector<uint8_t> frame;
    ASSERT_TRUE(net::ReadFrame(conn, frame));  // HELLO
    std::vector<uint8_t> ok = net::EncodeOkHead();
    net::PutU32(ok, 7);                      // tenant id
    net::PutU16(ok, net::kProtocolVersion);  // negotiate v2
    ASSERT_TRUE(net::WriteFrame(conn, ok));
    ASSERT_TRUE(net::ReadFrame(conn, frame));  // first real request
    std::vector<uint8_t> response;
    net::PutU64(response, 0xDEAD);  // an id the client never issued
    response.push_back(0);          // ok status head
    ASSERT_TRUE(net::WriteFrame(conn, response));
    // The client hangs up once it spots the mismatch.
    EXPECT_FALSE(net::ReadFrame(conn, frame));
    ::close(conn);
  });

  SandClient::Options options;
  options.unix_path = path;
  options.tenant = "alpha";
  auto client = SandClient::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto first = (*client)->SizeOf(3);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), ErrorCode::kUnavailable);
  // The poisoned connection refuses new work instead of guessing.
  EXPECT_EQ((*client)->SizeOf(3).status().code(), ErrorCode::kUnavailable);

  bogus_server.join();
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST_F(NetTest, ClientPoolSaturationReturnsResourceExhausted) {
  StartServer();
  ClientPool::Options options;
  options.client.unix_path = socket_path_;
  options.client.tenant = "alpha";
  options.connections = 2;
  options.max_inflight_per_conn = 1;
  auto pool = ClientPool::Connect(options);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ((*pool)->connections(), 2u);

  auto fd = (*pool)->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  provider_.SetPathGated("/train/0/0/view", true);
  auto parked = (*pool)->ReadAllSharedAsync(*fd);
  provider_.WaitMaterializeStarted(1);

  // Fd verbs pin to the opening connection, which is now at its inflight
  // cap: immediate client-side RESOURCE_EXHAUSTED, no bytes on the wire.
  auto refused = (*pool)->ReadAllShared(*fd);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kResourceExhausted);

  // The pool's other connection keeps serving: least-loaded routing sends
  // new opens there.
  auto other_fd = (*pool)->Open("/train/0/1/view");
  ASSERT_TRUE(other_fd.ok()) << other_fd.status().ToString();
  EXPECT_TRUE((*pool)->ReadAllShared(*other_fd).ok());

  // A foreign fd is refused, matching the server's own contract.
  EXPECT_EQ((*pool)->ReadAllShared(*fd + *other_fd + 100).status().code(),
            ErrorCode::kInvalidArgument);

  provider_.SetPathGated("/train/0/0/view", false);
  auto parked_result = parked.Get();
  ASSERT_TRUE(parked_result.ok()) << parked_result.status().ToString();
  EXPECT_EQ((*parked_result)->size(), 8u);
}

TEST_F(NetTest, ClientDestructionWithInflightRequestsResolvesFutures) {
  StartServer();
  provider_.SetPathGated("/train/0/0/view", true);
  Future<SharedBytes> orphan;
  {
    auto client = Connect("alpha");
    ASSERT_NE(client, nullptr);
    auto fd = client->Open("/train/0/0/view");
    ASSERT_TRUE(fd.ok());
    orphan = client->ReadAllSharedAsync(*fd);
    provider_.WaitMaterializeStarted(1);
    // Destroyed with the request still materializing server-side.
  }
  auto result = orphan.Get();
  ASSERT_FALSE(result.ok()) << "future must resolve, not hang";
  EXPECT_EQ(result.status().code(), ErrorCode::kUnavailable);

  // The server finishes the stranded dispatch and tears the session down.
  provider_.SetPathGated("/train/0/0/view", false);
  for (int i = 0; i < 500 && server_->stats().active_connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().active_connections, 0);
  std::vector<std::string> closed = provider_.ClosedViews();
  EXPECT_NE(std::find(closed.begin(), closed.end(), "/train/0/0/view"),
            closed.end());
}

TEST_F(NetTest, IdleConnectionsAreReaped) {
  SandServer::Options options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(client->ReadAllShared(*fd).ok());

  // Go quiet: the reaper shuts the connection down and the session's
  // resources (views, budget charges) are released.
  for (int i = 0; i < 500 && server_->stats().idle_reaped < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server_->stats().idle_reaped, 1u);
  for (int i = 0; i < 500 && server_->stats().active_connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server_->stats().active_connections, 0);
  std::vector<std::string> closed = provider_.ClosedViews();
  EXPECT_NE(std::find(closed.begin(), closed.end(), "/train/0/0/view"),
            closed.end());

  // The client sees the severed stream as UNAVAILABLE and can redial.
  auto dead = client->ReadAllShared(*fd);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), ErrorCode::kUnavailable);
  auto fresh = Connect("alpha");
  ASSERT_NE(fresh, nullptr);
  auto fresh_fd = fresh->Open("/train/0/0/view");
  ASSERT_TRUE(fresh_fd.ok());
  EXPECT_TRUE(fresh->ReadAllShared(*fresh_fd).ok());
}

TEST_F(NetTest, ClientRequiresAgreedProtocolVersion) {
  // A hand-rolled server scripts HELLO answers a real one never gives. Each
  // round accepts one connection, answers its HELLO with `answer`, and
  // records the offered version and whether any frame followed the HELLO.
  const std::string path = ::testing::TempDir() + "sand_hello_" +
                           std::to_string(::getpid()) + ".sock";
  auto listen_fd = net::ListenUnix(path, 4);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  struct Seen {
    uint16_t offer = 0;
    bool sent_frame_after_hello = false;
  };
  auto serve_one_hello = [&listen_fd](std::vector<uint8_t> answer, Seen* seen) {
    int conn = ::accept(*listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);
    std::vector<uint8_t> frame;
    ASSERT_TRUE(net::ReadFrame(conn, frame));
    net::WireReader reader(frame);
    EXPECT_EQ(*reader.TakeU8(), static_cast<uint8_t>(net::Command::kHello));
    seen->offer = *reader.TakeU16();
    ASSERT_TRUE(net::WriteFrame(conn, answer));
    // Returns false once the client hangs up.
    seen->sent_frame_after_hello = net::ReadFrame(conn, frame);
    ::close(conn);
  };
  auto ok_hello = [](std::optional<uint16_t> agreed) {
    std::vector<uint8_t> ok = net::EncodeOkHead();
    net::PutU32(ok, 7);  // tenant id
    if (agreed.has_value()) {
      net::PutU16(ok, *agreed);
    }
    return ok;
  };
  SandClient::Options options;
  options.unix_path = path;
  options.tenant = "alpha";

  // A server agreeing to our version: the client connects at it.
  {
    Seen seen;
    std::thread server(serve_one_hello, ok_hello(net::kProtocolVersion), &seen);
    auto client = SandClient::Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    EXPECT_EQ((*client)->negotiated_version(), net::kProtocolVersion);
    EXPECT_EQ((*client)->tenant_id(), 7u);
    client->reset();
    server.join();
    EXPECT_EQ(seen.offer, net::kProtocolVersion);
  }

  // A refusal surfaces verbatim, with no redial.
  {
    Seen seen;
    std::thread server(serve_one_hello,
                       net::EncodeErrorResponse(InvalidArgument("malformed tenant tag")),
                       &seen);
    auto refused = SandClient::Connect(options);
    server.join();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(refused.status().message(), "malformed tenant tag");
    pollfd pending{*listen_fd, POLLIN, 0};
    EXPECT_EQ(::poll(&pending, 1, 0), 0) << "client redialed after a refusal";
  }

  // An ok HELLO that does not agree to our version (absent, or the retired
  // serial version 1) fails Connect before any verb goes out.
  for (std::optional<uint16_t> agreed : {std::optional<uint16_t>(), std::optional<uint16_t>(1)}) {
    Seen seen;
    std::thread server(serve_one_hello, ok_hello(agreed), &seen);
    auto client = SandClient::Connect(options);
    if (client.ok()) {
      client->reset();  // hang up, so the fake server's read returns
    }
    server.join();
    ASSERT_FALSE(client.ok()) << "accepted agreed version "
                              << (agreed.has_value() ? std::to_string(*agreed) : "none");
    EXPECT_EQ(client.status().code(), ErrorCode::kInternal);
    EXPECT_FALSE(seen.sent_frame_after_hello);
  }
  ::close(*listen_fd);
  ::unlink(path.c_str());
}

TEST_F(NetTest, InflightRequestIsNotIdleReaped) {
  // Regression for the reaper TOCTOU: a request whose materialization
  // outlives the idle timeout used to race the reaper (stamp happened
  // after admission checks; the reaper could sever the socket between
  // frame arrival and the inflight increment). Admission now stamps
  // under inflight_mutex and the reaper re-checks both under the same
  // lock, so a connection with work in flight is never reaped.
  SandServer::Options options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  provider_.SetPathGated("/train/0/0/view", true);
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());

  Result<SharedBytes> slow = NotFound("not started");
  std::thread reader_thread([&] { slow = client->ReadAllShared(*fd); });
  provider_.WaitMaterializeStarted(1);
  // Sit well past the idle timeout with the request still in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(server_->stats().idle_reaped, 0u);

  provider_.SetPathGated("/train/0/0/view", false);
  reader_thread.join();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(**slow, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_F(NetTest, TenantBytesReadCountsOnlyReadPayloads) {
  // Regression for the over-counting bug: every successful response's
  // head+body used to be charged to the tenant's bytes_read, so opens,
  // stats, xattrs, and directory listings inflated the gauge customers
  // are billed on. Only Read/PRead/ReadAll(/GetObject) payload bytes
  // count now.
  StartServer();
  auto client = Connect("bytesacct");
  ASSERT_NE(client, nullptr);
  obs::TenantMetrics* metrics = obs::TenantMetricsFor(client->tenant_id());
  ASSERT_NE(metrics, nullptr);
  const int64_t baseline = metrics->bytes_read->Value();

  auto fd = client->Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*client->SizeOf(*fd), 8u);
  EXPECT_TRUE(client->GetXattr(*fd, "path").ok());
  EXPECT_TRUE(client->ListDir("/.sand").ok());
  // Metadata traffic: no payload, no charge. (Accounting happens on the
  // worker after the response is written; poll briefly for quiescence.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(metrics->bytes_read->Value(), baseline);

  std::vector<uint8_t> buffer(4);
  ASSERT_TRUE(client->Read(*fd, buffer).ok());        // +4
  ASSERT_TRUE(client->PRead(*fd, buffer, 2).ok());    // +4
  ASSERT_TRUE(client->ReadAllShared(*fd).ok());       // +8
  int64_t counted = 0;
  for (int i = 0; i < 500; ++i) {
    counted = metrics->bytes_read->Value() - baseline;
    if (counted >= 16) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(counted, 16);
}

TEST_F(NetTest, PeerCredAllowlistAdmitsMatchingUid) {
  SandServer::Options options;
  options.allowed_uids = {static_cast<uint32_t>(::getuid())};
  StartServer(options);
  auto client = Connect("alpha");
  ASSERT_NE(client, nullptr);
  auto fd = client->Open("/train/0/0/view");
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
}

TEST_F(NetTest, PeerCredAllowlistRefusesForeignUid) {
  SandServer::Options options;
  options.allowed_uids = {static_cast<uint32_t>(::getuid()) + 1};
  StartServer(options);
  SandClient::Options client_options;
  client_options.unix_path = socket_path_;
  client_options.tenant = "alpha";
  auto refused = SandClient::Connect(client_options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sand