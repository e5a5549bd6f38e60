#include "src/cluster/cluster_store.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/vfs/sand_fs.h"

namespace sand {
namespace cluster {

namespace {

inline const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

std::string EndpointOf(const ClusterNodeOptions& node) {
  if (!node.unix_path.empty()) {
    return node.unix_path;
  }
  return node.host + ":" + std::to_string(node.port);
}

void AppendJsonString(std::ostringstream& out, const std::string& value) {
  out << '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out << '\\';
    }
    out << c;
  }
  out << '"';
}

}  // namespace

ClusterStore::ClusterStore(std::shared_ptr<ObjectStore> local_shard,
                           ClusterStoreOptions options)
    : local_(std::move(local_shard)), options_(std::move(options)) {
  if (options_.self_index >= static_cast<int>(options_.nodes.size())) {
    SAND_LOG(kWarning) << "cluster: self_index " << options_.self_index
                       << " out of range; running client-only";
    options_.self_index = -1;
  }
  if (options_.self_index >= 0 && local_ == nullptr) {
    SAND_LOG(kWarning) << "cluster: self node has no local shard store; "
                          "running client-only";
    options_.self_index = -1;
  }
  std::vector<std::string> names;
  names.reserve(options_.nodes.size());
  for (ClusterNodeOptions& node : options_.nodes) {
    // The ring label defaults to the endpoint; what matters is that every
    // process in the cluster uses the same labels.
    if (node.name.empty()) {
      node.name = EndpointOf(node);
    }
    names.push_back(node.name);
  }
  ring_.SetMembership(std::move(names));
  peers_.reserve(options_.nodes.size());
  for (const ClusterNodeOptions& node : options_.nodes) {
    peers_.push_back(std::make_unique<Peer>(node, options_.fault_policy));
  }
}

ClusterStore::~ClusterStore() {
  if (control_view_registered_) {
    SandFs::RegisterControlView("cluster", {});
  }
}

void ClusterStore::RegisterControlView() {
  SandFs::RegisterControlView("cluster", [this] { return HealthJson(); });
  control_view_registered_ = true;
}

Result<size_t> ClusterStore::OwnerOf(const std::string& key) const {
  return ring_.OwnerOf(key);
}

bool ClusterStore::NodeOnline(size_t node) const {
  if (node >= peers_.size()) {
    return false;
  }
  if (IsSelf(node)) {
    return true;
  }
  return !peers_[node]->breaker.offline();
}

Result<std::unique_ptr<net::SandClient>> ClusterStore::AcquireClient(Peer& peer) {
  {
    std::lock_guard<std::mutex> lock(peer.mutex);
    if (!peer.idle.empty()) {
      std::unique_ptr<net::SandClient> client = std::move(peer.idle.back());
      peer.idle.pop_back();
      return client;
    }
  }
  net::SandClient::Options copts;
  copts.unix_path = peer.spec.unix_path;
  copts.host = peer.spec.host;
  copts.port = peer.spec.port;
  copts.tenant = options_.tenant;
  return net::SandClient::Connect(copts);
}

void ClusterStore::ReleaseClient(Peer& peer, std::unique_ptr<net::SandClient> client) {
  std::lock_guard<std::mutex> lock(peer.mutex);
  if (static_cast<int>(peer.idle.size()) < std::max(1, options_.connections_per_peer)) {
    peer.idle.push_back(std::move(client));
  }
  // Else: drop the connection; the pool keeps only connections_per_peer.
}

template <typename Fn>
auto ClusterStore::PeerCall(size_t node, Fn&& fn)
    -> decltype(fn(std::declval<net::SandClient&>())) {
  using R = decltype(fn(std::declval<net::SandClient&>()));
  Peer& peer = *peers_[node];
  // An offline node short-circuits to UNAVAILABLE (a cheap miss) instead
  // of queueing every caller on dial timeouts.
  if (!peer.breaker.Allow()) {
    return R(Unavailable("cluster node '" + peer.spec.name + "' is offline"));
  }
  SAND_SPAN("cluster_peer_call");
  peer.requests.fetch_add(1, std::memory_order_relaxed);
  Nanos backoff = options_.fault_policy.initial_backoff;
  Status transport = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    auto client = AcquireClient(peer);
    if (client.ok()) {
      R result = fn(**client);
      if (StatusOf(result).code() != ErrorCode::kUnavailable) {
        // The server answered (ok, NotFound, even INVALID_ARGUMENT from a
        // pre-cluster build): the node is healthy and the connection is
        // reusable. Only transport failures feed the breaker.
        ReleaseClient(peer, std::move(*client));
        if (peer.breaker.Note(true) == CircuitBreaker::Transition::kRecovered) {
          SAND_LOG(kInfo) << "cluster node '" << peer.spec.name << "' back online";
        }
        return result;
      }
      // UNAVAILABLE poisons the pipelined client; drop it and redial.
      transport = StatusOf(result);
    } else {
      transport = client.status();
    }
    if (attempt >= options_.fault_policy.max_retries) {
      peer.errors.fetch_add(1, std::memory_order_relaxed);
      if (peer.breaker.Note(false) == CircuitBreaker::Transition::kTripped) {
        SAND_LOG(kWarning) << "cluster node '" << peer.spec.name << "' marked offline after "
                           << peer.breaker.failure_streak()
                           << " consecutive failures; its shard degrades to local recompute";
      }
      return R(Unavailable("cluster node '" + peer.spec.name +
                           "' unreachable: " + transport.message()));
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
    backoff = static_cast<Nanos>(static_cast<double>(backoff) *
                                 options_.fault_policy.backoff_multiplier);
  }
}

Status ClusterStore::Put(const std::string& key, std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    return local_->Put(key, data);
  }
  Status status = PeerCall(owner, [&](net::SandClient& client) {
    return client.PutObject(key, data);
  });
  if (status.ok()) {
    peers_[owner]->bytes_pushed.fetch_add(data.size(), std::memory_order_relaxed);
  }
  return status;
}

Status ClusterStore::PutShared(const std::string& key, SharedBytes data) {
  if (data == nullptr) {
    return InvalidArgument("PutShared: null buffer");
  }
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    // The self shard adopts the reference: a locally owned key costs no
    // copy and no wire hop.
    return local_->PutShared(key, std::move(data));
  }
  Status status = PeerCall(owner, [&](net::SandClient& client) {
    return client.PutObject(key, std::span<const uint8_t>(*data));
  });
  if (status.ok()) {
    peers_[owner]->bytes_pushed.fetch_add(data->size(), std::memory_order_relaxed);
  }
  return status;
}

Result<bool> ClusterStore::PutIfAbsent(const std::string& key,
                                       std::span<const uint8_t> data) {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    return local_->PutIfAbsent(key, data);
  }
  // Stat-then-put is not atomic across the wire, but cluster keys are
  // content-addressed plan keys: two racing writers store identical bytes,
  // so the worst case is a duplicate transfer, not divergent state.
  Result<net::SandClient::ObjectStat> stat = PeerCall(
      owner, [&](net::SandClient& client) { return client.StatObject(key); });
  if (!stat.ok()) {
    return stat.status();
  }
  if (stat->exists) {
    return false;
  }
  Status put = PeerCall(owner, [&](net::SandClient& client) {
    return client.PutObject(key, data);
  });
  if (!put.ok()) {
    return put;
  }
  peers_[owner]->bytes_pushed.fetch_add(data.size(), std::memory_order_relaxed);
  return true;
}

Result<SharedBytes> ClusterStore::GetShared(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    return local_->GetShared(key);
  }
  Result<SharedBytes> fetched = PeerCall(owner, [&](net::SandClient& client) {
    return client.GetObjectShared(key);
  });
  if (fetched.ok()) {
    peers_[owner]->bytes_fetched.fetch_add((*fetched)->size(),
                                           std::memory_order_relaxed);
  }
  return fetched;
}

bool ClusterStore::Contains(const std::string& key) {
  auto owner = OwnerOf(key);
  if (!owner.ok()) {
    return false;
  }
  if (IsSelf(*owner)) {
    return local_->Contains(key);
  }
  Result<net::SandClient::ObjectStat> stat = PeerCall(
      *owner, [&](net::SandClient& client) { return client.StatObject(key); });
  return stat.ok() && stat->exists;
}

Result<uint64_t> ClusterStore::SizeOf(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    return local_->SizeOf(key);
  }
  Result<net::SandClient::ObjectStat> stat = PeerCall(
      owner, [&](net::SandClient& client) { return client.StatObject(key); });
  if (!stat.ok()) {
    return stat.status();
  }
  if (!stat->exists) {
    return NotFound("no object: " + key);
  }
  return stat->size;
}

Status ClusterStore::Delete(const std::string& key) {
  SAND_ASSIGN_OR_RETURN(size_t owner, OwnerOf(key));
  if (IsSelf(owner)) {
    return local_->Delete(key);
  }
  return PeerCall(owner, [&](net::SandClient& client) {
    return client.DeleteObject(key);
  });
}

uint64_t ClusterStore::UsedBytes() {
  return local_ != nullptr ? local_->UsedBytes() : 0;
}

uint64_t ClusterStore::CapacityBytes() {
  return local_ != nullptr ? local_->CapacityBytes() : 0;
}

std::vector<std::string> ClusterStore::ListKeys() {
  return local_ != nullptr ? local_->ListKeys() : std::vector<std::string>{};
}

std::string ClusterStore::HealthJson() const {
  obs::Registry& registry = obs::Registry::Get();
  std::ostringstream out;
  out << "{\n";
  out << "  \"self\": " << options_.self_index << ",\n";
  out << "  \"virtual_nodes\": " << ring_.virtual_nodes() << ",\n";
  out << "  \"peer_hits\": " << registry.GetCounter("sand.cluster.peer_hits")->Value()
      << ",\n";
  out << "  \"peer_misses\": "
      << registry.GetCounter("sand.cluster.peer_misses")->Value() << ",\n";
  out << "  \"peer_bytes\": " << registry.GetCounter("sand.cluster.peer_bytes")->Value()
      << ",\n";
  out << "  \"ring_rebuilds\": "
      << registry.GetCounter("sand.cluster.ring_rebuilds")->Value() << ",\n";
  out << "  \"nodes\": [\n";
  for (size_t i = 0; i < peers_.size(); ++i) {
    const Peer& peer = *peers_[i];
    out << "    {\"name\": ";
    AppendJsonString(out, peer.spec.name);
    out << ", \"endpoint\": ";
    AppendJsonString(out, EndpointOf(peer.spec));
    out << ", \"self\": " << (IsSelf(i) ? "true" : "false");
    out << ", \"online\": " << (NodeOnline(i) ? "true" : "false");
    out << ", \"failure_streak\": " << peer.breaker.failure_streak();
    out << ", \"requests\": " << peer.requests.load(std::memory_order_relaxed);
    out << ", \"errors\": " << peer.errors.load(std::memory_order_relaxed);
    out << ", \"bytes_fetched\": " << peer.bytes_fetched.load(std::memory_order_relaxed);
    out << ", \"bytes_pushed\": " << peer.bytes_pushed.load(std::memory_order_relaxed);
    out << "}" << (i + 1 < peers_.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace cluster
}  // namespace sand
