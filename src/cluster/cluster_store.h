// ClusterStore: the object namespace sharded across N store nodes
// (DESIGN.md §14).
//
// Each node in the ring is a SandServer with an object-store backend,
// reachable over the wire-v2 pipelined protocol. A ClusterStore routes
// every Put/GetShared/Contains/SizeOf/Delete to the key's ring owner
// (HashRing): the self shard short-circuits in-process against the local
// store, remote shards go over pooled pipelined SandClient connections.
//
// Failure semantics reuse the TieredCache disk tier's DiskFaultPolicy,
// and each peer uses a CircuitBreaker: a transport failure (UNAVAILABLE)
// is retried with exponential backoff, a streak of failures marks the
// node offline and ops on its shard short-circuit to UNAVAILABLE until a
// reprobe interval expires — so a dead peer costs one failed probe per
// interval, not a dial timeout per read. Callers above (TieredCache's
// peer probe) treat any failure as a miss, degrading to local recompute;
// a vanished node can slow a job down, never fail it.
//
// Health: per-node breaker state and traffic land in "/.sand/cluster"
// (RegisterControlView publishes the JSON renderer through SandFs's
// control-view hook) next to the sand.cluster.* registry counters.

#ifndef SAND_CLUSTER_CLUSTER_STORE_H_
#define SAND_CLUSTER_CLUSTER_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/hash_ring.h"
#include "src/common/circuit_breaker.h"
#include "src/common/result.h"
#include "src/net/sand_client.h"
#include "src/storage/object_store.h"

namespace sand {
namespace cluster {

// One ring member. `name` is the ring label (placement identity — every
// process must use the same names); the endpoint is how THIS process
// dials it. Unix path wins when set, else host:port TCP.
struct ClusterNodeOptions {
  std::string name;
  std::string unix_path;
  std::string host = "127.0.0.1";
  int port = -1;
};

struct ClusterStoreOptions {
  // Ring membership, including this process's own node (if any).
  std::vector<ClusterNodeOptions> nodes;
  // Index into `nodes` of this process's shard; -1 = client-only (every
  // key routes to a remote node).
  int self_index = -1;
  // Tenant tag peer connections HELLO with.
  std::string tenant = "cluster";
  int virtual_nodes = HashRing::kDefaultVirtualNodes;
  // Pooled pipelined connections kept per peer (extras are dialed under
  // load and dropped on release).
  int connections_per_peer = 2;
  // Node-down retry/degrade knobs, reusing the disk tier's policy shape.
  DiskFaultPolicy fault_policy;
};

class ClusterStore : public ObjectStore {
 public:
  // `local_shard` backs the self node's keys and must be the same store
  // the local SandServer serves to peers; required when self_index >= 0.
  ClusterStore(std::shared_ptr<ObjectStore> local_shard, ClusterStoreOptions options);
  ~ClusterStore() override;

  ClusterStore(const ClusterStore&) = delete;
  ClusterStore& operator=(const ClusterStore&) = delete;

  Status Put(const std::string& key, std::span<const uint8_t> data) override;
  Status PutShared(const std::string& key, SharedBytes data) override;
  Result<bool> PutIfAbsent(const std::string& key, std::span<const uint8_t> data) override;
  Result<SharedBytes> GetShared(const std::string& key) override;
  bool Contains(const std::string& key) override;
  Result<uint64_t> SizeOf(const std::string& key) override;
  Status Delete(const std::string& key) override;
  // Capacity/usage/listing describe the local shard only; remote shards
  // are other processes' stores.
  uint64_t UsedBytes() override;
  uint64_t CapacityBytes() override;
  std::vector<std::string> ListKeys() override;

  // Ring owner of `key` (index into options().nodes); FAILED_PRECONDITION
  // on an empty ring.
  Result<size_t> OwnerOf(const std::string& key) const;
  // Breaker state of a node (self is always online).
  bool NodeOnline(size_t node) const;
  const ClusterStoreOptions& options() const { return options_; }
  const HashRing& ring() const { return ring_; }

  // Per-node health + traffic as JSON (the "/.sand/cluster" body).
  std::string HealthJson() const;
  // Publishes "/.sand/cluster" rendering this instance's HealthJson via
  // SandFs::RegisterControlView. The view is process-global: the last
  // registered instance wins, and the destructor unregisters itself.
  void RegisterControlView();

 private:
  struct Peer {
    Peer(ClusterNodeOptions node, const DiskFaultPolicy& policy)
        : spec(std::move(node)),
          breaker(policy.offline_threshold, policy.reprobe_interval) {}

    ClusterNodeOptions spec;
    // Connection pool (idle clients; acquisition dials when empty).
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<net::SandClient>> idle;
    // Only transport failures (UNAVAILABLE) count against the node.
    CircuitBreaker breaker;
    // Traffic/health counters for /.sand/cluster.
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> bytes_fetched{0};
    std::atomic<uint64_t> bytes_pushed{0};
  };

  bool IsSelf(size_t node) const {
    return options_.self_index >= 0 && node == static_cast<size_t>(options_.self_index);
  }
  Result<std::unique_ptr<net::SandClient>> AcquireClient(Peer& peer);
  void ReleaseClient(Peer& peer, std::unique_ptr<net::SandClient> client);

  // Runs `fn(client)` against the peer with the retry policy. A transport
  // failure (UNAVAILABLE — the client poisons itself) drops the connection
  // and retries on a fresh dial; terminal failure reports UNAVAILABLE and
  // feeds the breaker.
  template <typename Fn>
  auto PeerCall(size_t node, Fn&& fn) -> decltype(fn(std::declval<net::SandClient&>()));

  std::shared_ptr<ObjectStore> local_;
  ClusterStoreOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<Peer>> peers_;  // parallel to options_.nodes
  bool control_view_registered_ = false;
};

}  // namespace cluster
}  // namespace sand

#endif  // SAND_CLUSTER_CLUSTER_STORE_H_
