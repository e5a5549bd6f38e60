// Wire primitives for the SAND socket protocol (DESIGN.md §13).
//
// The process boundary keeps the shape rpc_ops proved out: length-framed
// messages over a byte stream, little-endian scalars, and a leading status
// byte on every response so failures cross the wire as real Status values.
//
//   frame    : u32 length | payload          (length caps at kMaxFrameBytes)
//
// One payload shape, pipelined (any number of requests outstanding per
// connection, responses in completion order):
//
//   request  : u64 request_id | u8 command | command body
//   response : u64 request_id | u8 status (ErrorCode; 0 = ok) | ok body or error message
//
// The HELLO exchange alone carries no request id: it is the first frame of
// a session and it carries the version, so the server parses it before
// anything else. Every frame after the ok HELLO response carries an id.
// Request ids are client-assigned and only need to be unique among that
// connection's in-flight requests.
//
// Strings are u32 length | bytes. All helpers here are transport-agnostic
// byte shuffling; the verbs live in sand_server.cc / sand_client.cc.

#ifndef SAND_NET_WIRE_H_
#define SAND_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace sand {
namespace net {

// Upper bound on one frame. Batches are tens of MiB at most; 128 MiB
// leaves headroom for outsized objects while keeping the worst-case
// allocation a hostile length word can force per connection bounded.
// ReadFrame refuses larger length words before the allocation, not after.
inline constexpr uint32_t kMaxFrameBytes = 1u << 27;

// The protocol revision this build speaks, sent in HELLO. The server
// refuses a lower offer and answers min(offer, kProtocolVersion), so a
// later revision can be refused cleanly by a client that requires its own.
inline constexpr uint16_t kProtocolVersion = 2;

// Request commands. Mirrors the SandApi verb set plus the HELLO
// authentication handshake and the object-store verbs the cluster layer
// uses to move materialized views between store nodes. The store verbs
// are additive: they need no version bump because old clients never send
// them and old servers answer "unknown command" (INVALID_ARGUMENT), which
// the cluster client treats as a miss.
enum class Command : uint8_t {
  kHello = 1,    // u16 version | string tenant
  kOpen = 2,     // string path | string open_options (OpenOptions wire form)
  kRead = 3,     // i32 fd | u64 max_bytes
  kPRead = 4,    // i32 fd | u64 offset | u64 max_bytes
  kReadAll = 5,  // i32 fd
  kSizeOf = 6,   // i32 fd
  kGetXattr = 7,  // i32 fd | string name
  kListDir = 8,  // string path
  kClose = 9,    // i32 fd
  // Object-store verbs (served only when the server has a store backend).
  kPutObject = 10,     // string key | bytes data            -> ok
  kGetObject = 11,     // string key                         -> ok | bytes data
  kStatObject = 12,    // string key                         -> ok | u8 exists | u64 size
  kDeleteObject = 13,  // string key                         -> ok
};

// --- scalar/string packing ---------------------------------------------------

void PutU8(std::vector<uint8_t>& out, uint8_t value);
void PutU16(std::vector<uint8_t>& out, uint16_t value);
void PutU32(std::vector<uint8_t>& out, uint32_t value);
void PutU64(std::vector<uint8_t>& out, uint64_t value);
void PutI32(std::vector<uint8_t>& out, int32_t value);
void PutString(std::vector<uint8_t>& out, const std::string& value);
void PutBytes(std::vector<uint8_t>& out, const std::vector<uint8_t>& value);

// Cursor over a received payload; every Take checks bounds and returns
// OUT_OF_RANGE on truncation instead of reading past the buffer.
class WireReader {
 public:
  explicit WireReader(const std::vector<uint8_t>& buffer) : buffer_(buffer) {}

  Result<uint8_t> TakeU8();
  Result<uint16_t> TakeU16();
  Result<uint32_t> TakeU32();
  Result<uint64_t> TakeU64();
  Result<int32_t> TakeI32();
  Result<std::string> TakeString();
  Result<std::vector<uint8_t>> TakeBytes();
  // The unread remainder (for trailing payloads).
  std::vector<uint8_t> TakeRest();
  // Advances past `count` bytes (re-parsing a payload whose header was
  // already consumed by another reader).
  Status Skip(size_t count);

  size_t remaining() const { return buffer_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t count);

  const std::vector<uint8_t>& buffer_;
  size_t pos_ = 0;
};

// --- status coding -----------------------------------------------------------

// Response head: status byte (+ message when not ok). The ok body is
// appended by the caller after an ok head.
std::vector<uint8_t> EncodeOkHead();
std::vector<uint8_t> EncodeErrorResponse(const Status& status);

// Decodes a response's status head. A non-ok head consumes the whole
// remaining payload as the error message; on ok the body starts at byte 1
// (construct a WireReader and TakeU8 the head to skip it).
Status DecodeResponseStatus(const std::vector<uint8_t>& response);

// --- framed stream I/O -------------------------------------------------------

// Blocking full-frame write/read on a connected socket/pipe fd. Returns
// false on EOF, a peer reset, or an oversized length word; these helpers
// never throw and never short-write.
bool WriteFrame(int fd, const std::vector<uint8_t>& payload);
bool ReadFrame(int fd, std::vector<uint8_t>& payload);

// Scatter-gather frame write: emits one frame whose payload is
// `head` followed by `body_size` bytes at `body`, without assembling the
// concatenation in memory. The length word, head, and body go out in a
// single sendmsg when the fd is a socket, so a large ReadAllShared payload
// travels from the cache's SharedBytes allocation straight to the kernel
// with no frame-assembly copy. `body` may be null when body_size is 0.
bool WriteFrameScatter(int fd, const std::vector<uint8_t>& head,
                       const uint8_t* body, size_t body_size);

// --- sockets -----------------------------------------------------------------

// Listening endpoints. Unix paths are unlinked before bind; TCP binds
// 127.0.0.1 and reports the chosen port (use port 0 for ephemeral).
Result<int> ListenUnix(const std::string& path, int backlog);
Result<int> ListenTcp(int port, int backlog, int* bound_port);

// Client connects. Both return a connected stream fd.
Result<int> ConnectUnix(const std::string& path);
Result<int> ConnectTcp(const std::string& host, int port);

// Per-connection socket tuning for the request/response workload: disables
// Nagle (TCP_NODELAY — small frames must not wait for delayed ACKs) and,
// when `keepalive` is set, turns on SO_KEEPALIVE so a silently vanished
// peer is eventually detected. No-ops harmlessly on unix sockets/pipes.
void TuneStreamSocket(int fd, bool keepalive);

// Credentials of the peer of a connected unix socket (SO_PEERCRED).
// Fails on TCP and non-socket fds — callers enforcing a uid allowlist
// treat that as "no credential", i.e. refuse.
Result<uint32_t> PeerUid(int fd);

}  // namespace net
}  // namespace sand

#endif  // SAND_NET_WIRE_H_
