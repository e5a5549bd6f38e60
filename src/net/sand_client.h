// SandClient: SandApi over a socket (DESIGN.md §13).
//
// The remote half of the one-API-two-transports split: a training loop
// written against SandApi runs unchanged whether it holds a SandFs or a
// SandClient. Connect() dials the server, performs the HELLO handshake
// binding the connection to a tenant tag, requires the server to agree to
// kProtocolVersion, and returns a ready client.
//
// One connection, many requests in flight: the wire protocol is pipelined
// (frames carry a u64 request id), so any number of threads may issue
// verbs concurrently and a single demultiplexing reader thread matches
// responses — which arrive in whatever order the server completes them —
// back to per-request Promises. The sync verbs are the async path plus a
// Get(); ReadAllSharedAsync exposes it directly so one thread can keep a
// window of reads outstanding.
//
// Status codes round-trip: a RESOURCE_EXHAUSTED here is either the
// server's admission control talking or this client's own inflight cap
// (Options::max_inflight); retrying after a backoff is the intended
// response to both. A transport failure poisons the connection: every
// in-flight and future request fails fast with UNAVAILABLE instead of
// desynchronizing request/response pairing.

#ifndef SAND_NET_SAND_CLIENT_H_
#define SAND_NET_SAND_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/future.h"
#include "src/net/wire.h"
#include "src/vfs/sand_api.h"

namespace sand {
namespace net {

class SandClient : public SandApi {
 public:
  struct Options {
    // Dial a unix socket when unix_path is set, else host:port TCP.
    std::string unix_path;
    std::string host = "127.0.0.1";
    int port = -1;
    // Tenant tag sent in HELLO; required.
    std::string tenant;
    // Max requests this connection keeps in flight; further issues fail
    // immediately with RESOURCE_EXHAUSTED (client-side backpressure, the
    // mirror of the server's tenant inflight quota). <= 0 means unlimited.
    int max_inflight = 0;
  };

  // Dials, handshakes, returns a connected client (or the HELLO error —
  // e.g. FAILED_PRECONDITION for an unknown tenant on a server with
  // auto-registration off, or for a peer-cred refusal; INTERNAL when the
  // server's ok HELLO does not agree to kProtocolVersion).
  static Result<std::unique_ptr<SandClient>> Connect(const Options& options);

  ~SandClient() override;

  SandClient(const SandClient&) = delete;
  SandClient& operator=(const SandClient&) = delete;

  // Tenant id the server assigned at HELLO (obs::TenantRegistry dense id).
  uint32_t tenant_id() const { return tenant_id_; }
  // Protocol version agreed at HELLO; Connect fails unless it is ours.
  uint16_t negotiated_version() const { return kProtocolVersion; }
  // Requests currently awaiting a response (ClientPool's load signal).
  size_t inflight() const;

  using SandApi::Open;
  Result<int> Open(const std::string& path, const OpenOptions& options) override;
  Result<size_t> Read(int fd, std::span<uint8_t> buffer) override;
  Result<size_t> PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) override;
  Result<SharedBytes> ReadAllShared(int fd) override;
  Future<SharedBytes> ReadAllSharedAsync(int fd) override;
  Result<uint64_t> SizeOf(int fd) override;
  Result<std::string> GetXattr(int fd, const std::string& name) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Status Close(int fd) override;

  // Object-store verbs (cluster traffic, not part of SandApi): served only
  // by servers configured with an object-store backend. An object's
  // existence is data on this path, so StatObject answers (exists, size)
  // instead of failing on absence; a server without a backend answers
  // FAILED_PRECONDITION, and a pre-cluster server answers INVALID_ARGUMENT
  // ("unknown command") — callers treat both as "this node cannot serve".
  struct ObjectStat {
    bool exists = false;
    uint64_t size = 0;
  };
  Status PutObject(const std::string& key, std::span<const uint8_t> data);
  Result<SharedBytes> GetObjectShared(const std::string& key);
  Result<ObjectStat> StatObject(const std::string& key);
  Status DeleteObject(const std::string& key);

 private:
  explicit SandClient(int socket_fd) : socket_fd_(socket_fd) {}

  // Sends one request (command byte + body) and returns a future for the
  // raw response payload (status head included, request id stripped).
  // Resolves with RESOURCE_EXHAUSTED at the inflight cap and UNAVAILABLE
  // on a dead connection.
  Future<std::vector<uint8_t>> Issue(std::vector<uint8_t> request);
  // Issue + Get + status decode: the sync round trip. On ok, `response`
  // holds the payload (status head at byte 0).
  Status Call(std::vector<uint8_t> request, std::vector<uint8_t>& response);

  // Demultiplexer: reads response frames, matches ids to pending
  // promises. Exits when the stream dies, failing every pending request
  // with UNAVAILABLE.
  void ReaderLoop();
  void StartReader();
  // Fails all pending requests and marks the stream dead. Caller must not
  // hold mutex_.
  void Poison(const Status& status);

  mutable std::mutex mutex_;  // pending_, next_request_id_, dead_, writes
  std::map<uint64_t, Promise<std::vector<uint8_t>>> pending_;
  uint64_t next_request_id_ = 1;
  bool dead_ = false;

  std::thread reader_;
  int socket_fd_ = -1;
  uint32_t tenant_id_ = 0;
  int max_inflight_ = 0;
};

}  // namespace net
}  // namespace sand

#endif  // SAND_NET_SAND_CLIENT_H_
