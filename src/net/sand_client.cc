#include "src/net/sand_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/threading.h"

namespace sand {
namespace net {

namespace {

std::vector<uint8_t> RequestHead(Command command) {
  return {static_cast<uint8_t>(command)};
}

}  // namespace

Result<std::unique_ptr<SandClient>> SandClient::Connect(const Options& options) {
  if (options.tenant.empty()) {
    return InvalidArgument("SandClient::Connect: tenant tag is required");
  }
  SAND_ASSIGN_OR_RETURN(int socket_fd, options.unix_path.empty()
                                           ? ConnectTcp(options.host, options.port)
                                           : ConnectUnix(options.unix_path));
  // The HELLO carries no request id: it is the message that carries the
  // version, so the server parses it before anything else.
  std::vector<uint8_t> hello = RequestHead(Command::kHello);
  PutU16(hello, kProtocolVersion);
  PutString(hello, options.tenant);
  std::vector<uint8_t> response;
  if (!WriteFrame(socket_fd, hello) || !ReadFrame(socket_fd, response)) {
    ::close(socket_fd);
    return Unavailable("server connection lost during HELLO");
  }
  Status status = DecodeResponseStatus(response);
  if (!status.ok()) {
    ::close(socket_fd);
    return status;
  }
  WireReader reader(response);
  (void)reader.TakeU8();  // status head, already checked
  auto tenant_id = reader.TakeU32();
  if (!tenant_id.ok()) {
    ::close(socket_fd);
    return tenant_id.status();
  }
  // The server must agree to our version; an ok HELLO without one, or
  // with another, comes from a server whose frames we cannot parse.
  auto agreed = reader.TakeU16();
  if (!agreed.ok() || *agreed != kProtocolVersion) {
    ::close(socket_fd);
    return Internal("server did not agree to protocol version " +
                    std::to_string(kProtocolVersion) + " (answered " +
                    (agreed.ok() ? std::to_string(*agreed) : std::string("none")) + ")");
  }
  std::unique_ptr<SandClient> client(new SandClient(socket_fd));
  client->tenant_id_ = *tenant_id;
  client->max_inflight_ = options.max_inflight;
  client->StartReader();
  return client;
}

SandClient::~SandClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    if (socket_fd_ >= 0) {
      // Wake the reader with EOF; it fails every pending request with
      // UNAVAILABLE, so futures held by callers that outlive this client
      // resolve instead of hanging.
      ::shutdown(socket_fd_, SHUT_RDWR);
    }
  }
  if (reader_.joinable()) {
    reader_.join();
  }
  if (socket_fd_ >= 0) {
    ::close(socket_fd_);
  }
}

size_t SandClient::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void SandClient::StartReader() {
  reader_ = std::thread([this] { ReaderLoop(); });
  NameThread(reader_, "sand-client-rd");
}

void SandClient::ReaderLoop() {
  Status failure = Unavailable("server connection lost");
  std::vector<uint8_t> frame;
  while (ReadFrame(socket_fd_, frame)) {
    WireReader reader(frame);
    auto id = reader.TakeU64();
    if (!id.ok()) {
      failure = Unavailable("malformed response frame: missing request id");
      break;
    }
    std::vector<uint8_t> payload = reader.TakeRest();
    Promise<std::vector<uint8_t>> promise;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(*id);
      if (it == pending_.end()) {
        // A response we never asked for (or asked for twice): the stream
        // can no longer be trusted to pair responses with requests.
        failure = Unavailable("response for unknown request id " +
                              std::to_string(*id) + "; stream desynchronized");
        break;
      }
      promise = std::move(it->second);
      pending_.erase(it);
    }
    // Outside the lock: Set runs continuations inline.
    promise.Set(std::move(payload));
    frame.clear();
  }
  Poison(failure);
}

void SandClient::Poison(const Status& status) {
  std::map<uint64_t, Promise<std::vector<uint8_t>>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dead_ = true;
    orphans.swap(pending_);
    if (socket_fd_ >= 0) {
      ::shutdown(socket_fd_, SHUT_RDWR);
    }
  }
  for (auto& [id, promise] : orphans) {
    (void)id;
    promise.Set(Result<std::vector<uint8_t>>(status));
  }
}

Future<std::vector<uint8_t>> SandClient::Issue(std::vector<uint8_t> request) {
  Promise<std::vector<uint8_t>> promise;
  Future<std::vector<uint8_t>> future = promise.future();
  Status refusal = Status::Ok();
  bool poisoned = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_ || socket_fd_ < 0) {
      refusal = Unavailable("connection closed");
    } else if (max_inflight_ > 0 &&
               pending_.size() >= static_cast<size_t>(max_inflight_)) {
      refusal = ResourceExhausted(
          "client inflight cap (" + std::to_string(max_inflight_) +
          ") reached, retry");
    } else {
      uint64_t id = next_request_id_++;
      std::vector<uint8_t> frame;
      frame.reserve(request.size() + 8);
      PutU64(frame, id);
      frame.insert(frame.end(), request.begin(), request.end());
      // Register before writing: the response cannot legally outrun an
      // entry the reader can match it to.
      pending_.emplace(id, std::move(promise));
      if (!WriteFrame(socket_fd_, frame)) {
        // A half-written request poisons the stream; the reader (woken by
        // the shutdown) fails the other pending requests.
        auto it = pending_.find(id);
        promise = std::move(it->second);
        pending_.erase(it);
        dead_ = true;
        ::shutdown(socket_fd_, SHUT_RDWR);
        refusal = Unavailable("server connection lost");
        poisoned = true;
      } else {
        return future;
      }
    }
  }
  (void)poisoned;
  promise.Set(Result<std::vector<uint8_t>>(refusal));
  return future;
}

Status SandClient::Call(std::vector<uint8_t> request, std::vector<uint8_t>& response) {
  Result<std::vector<uint8_t>> result = Issue(std::move(request)).Get();
  if (!result.ok()) {
    return result.status();
  }
  response = std::move(*result);
  return DecodeResponseStatus(response);
}

Result<int> SandClient::Open(const std::string& path, const OpenOptions& options) {
  SAND_RETURN_IF_ERROR(options.Validate());
  std::vector<uint8_t> request = RequestHead(Command::kOpen);
  PutString(request, path);
  PutBytes(request, options.Serialize());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(int fd, reader.TakeI32());
  return fd;
}

Result<size_t> SandClient::Read(int fd, std::span<uint8_t> buffer) {
  std::vector<uint8_t> request = RequestHead(Command::kRead);
  PutI32(request, fd);
  PutU64(request, buffer.size());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  size_t count = std::min(data.size(), buffer.size());
  std::memcpy(buffer.data(), data.data(), count);
  return count;
}

Result<size_t> SandClient::PRead(int fd, std::span<uint8_t> buffer, uint64_t offset) {
  std::vector<uint8_t> request = RequestHead(Command::kPRead);
  PutI32(request, fd);
  PutU64(request, offset);
  PutU64(request, buffer.size());
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  size_t count = std::min(data.size(), buffer.size());
  std::memcpy(buffer.data(), data.data(), count);
  return count;
}

Result<SharedBytes> SandClient::ReadAllShared(int fd) {
  return ReadAllSharedAsync(fd).Get();
}

Future<SharedBytes> SandClient::ReadAllSharedAsync(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kReadAll);
  PutI32(request, fd);
  Future<std::vector<uint8_t>> raw = Issue(std::move(request));
  // Map the raw payload onto SharedBytes on whichever thread resolves it
  // (the demux reader in steady state); the parse is one bounds check and
  // the single off-the-wire copy.
  auto promise = std::make_shared<Promise<SharedBytes>>();
  Future<SharedBytes> future = promise->future();
  raw.OnReady([promise](const Result<std::vector<uint8_t>>& result) {
    if (!result.ok()) {
      promise->Set(result.status());
      return;
    }
    Status head = DecodeResponseStatus(*result);
    if (!head.ok()) {
      promise->Set(head);
      return;
    }
    WireReader reader(*result);
    (void)reader.TakeU8();
    auto data = reader.TakeBytes();
    if (!data.ok()) {
      promise->Set(data.status());
      return;
    }
    promise->Set(std::make_shared<const std::vector<uint8_t>>(std::move(*data)));
  });
  return future;
}

Result<uint64_t> SandClient::SizeOf(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kSizeOf);
  PutI32(request, fd);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return size;
}

Result<std::string> SandClient::GetXattr(int fd, const std::string& name) {
  std::vector<uint8_t> request = RequestHead(Command::kGetXattr);
  PutI32(request, fd);
  PutString(request, name);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::string value, reader.TakeString());
  return value;
}

Result<std::vector<std::string>> SandClient::ListDir(const std::string& path) {
  std::vector<uint8_t> request = RequestHead(Command::kListDir);
  PutString(request, path);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint32_t count, reader.TakeU32());
  std::vector<std::string> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SAND_ASSIGN_OR_RETURN(std::string entry, reader.TakeString());
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status SandClient::Close(int fd) {
  std::vector<uint8_t> request = RequestHead(Command::kClose);
  PutI32(request, fd);
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

Status SandClient::PutObject(const std::string& key, std::span<const uint8_t> data) {
  std::vector<uint8_t> request = RequestHead(Command::kPutObject);
  PutString(request, key);
  PutU32(request, static_cast<uint32_t>(data.size()));
  request.insert(request.end(), data.begin(), data.end());
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

Result<SharedBytes> SandClient::GetObjectShared(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kGetObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(std::vector<uint8_t> data, reader.TakeBytes());
  return std::make_shared<const std::vector<uint8_t>>(std::move(data));
}

Result<SandClient::ObjectStat> SandClient::StatObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kStatObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  SAND_RETURN_IF_ERROR(Call(std::move(request), response));
  WireReader reader(response);
  (void)reader.TakeU8();
  SAND_ASSIGN_OR_RETURN(uint8_t exists, reader.TakeU8());
  SAND_ASSIGN_OR_RETURN(uint64_t size, reader.TakeU64());
  return ObjectStat{exists != 0, size};
}

Status SandClient::DeleteObject(const std::string& key) {
  std::vector<uint8_t> request = RequestHead(Command::kDeleteObject);
  PutString(request, key);
  std::vector<uint8_t> response;
  return Call(std::move(request), response);
}

}  // namespace net
}  // namespace sand
