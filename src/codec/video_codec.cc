#include "src/codec/video_codec.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <mutex>

#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/compress/lossless.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/pixel_kernels.h"

namespace sand {
namespace {

// Process-global decode counters (the per-decoder AtomicDecodeStats are the
// instance-scoped view benches diff; these feed /.sand/metrics).
struct GlobalDecodeMetrics {
  obs::Counter* frames_requested;
  obs::Counter* frames_decoded;
  obs::Counter* bytes_read;
  obs::Counter* seeks;
  obs::Histogram* frame_latency_ns;

  static const GlobalDecodeMetrics& Get() {
    static const GlobalDecodeMetrics metrics{
        obs::Registry::Get().GetCounter("sand.decode.frames_requested"),
        obs::Registry::Get().GetCounter("sand.decode.frames_decoded"),
        obs::Registry::Get().GetCounter("sand.decode.bytes_read"),
        obs::Registry::Get().GetCounter("sand.decode.seeks"),
        obs::Registry::Get().GetHistogram("sand.decode.frame_latency_ns"),
    };
    return metrics;
  }
};

constexpr std::array<uint8_t, 4> kMagic = {'S', 'V', 'C', '1'};
constexpr uint16_t kVersion = 1;
constexpr size_t kHeaderSize = 4 + 2 + 2 + 2 + 1 + 1 + 4;
constexpr size_t kIndexEntrySize = 1 + 8 + 4;
constexpr int kMaxGopSize = 255;  // the container header's u8 gop field

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v));
  PutU16(out, static_cast<uint16_t>(v >> 16));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint16_t GetU16(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint16_t>(in[offset]) |
         static_cast<uint16_t>(static_cast<uint16_t>(in[offset + 1]) << 8);
}

uint32_t GetU32(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint32_t>(GetU16(in, offset)) |
         (static_cast<uint32_t>(GetU16(in, offset + 2)) << 16);
}

uint64_t GetU64(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint64_t>(GetU32(in, offset)) |
         (static_cast<uint64_t>(GetU32(in, offset + 4)) << 32);
}

// Per-byte wraparound difference; deltas of smooth motion are near zero and
// compress well with the lossless stage.
std::vector<uint8_t> TemporalDelta(const Frame& cur, const Frame& prev) {
  std::vector<uint8_t> delta(cur.size_bytes());
  DeltaEncodeBytes(cur.data(), prev.data(), delta);
  return delta;
}

void ApplyTemporalDelta(Frame& target, std::span<const uint8_t> delta) {
  // MutableData: the cursor frame may be shared with a frame previously
  // returned to a caller; copy-on-write keeps that frame intact.
  DeltaApplyBytes(target.MutableData(), delta);
}

}  // namespace

VideoEncoder::VideoEncoder(int height, int width, int channels, VideoEncoderOptions options)
    : height_(height), width_(width), channels_(channels), options_(options) {
  if (options_.gop_size < 1) {
    options_.gop_size = 1;
  }
  if (options_.gop_size > kMaxGopSize) {
    // The container header stores the GOP size as a u8; a silent cast would
    // corrupt it (e.g. 256 -> 0). Poison the encoder instead.
    init_status_ = InvalidArgument(
        StrFormat("gop_size %d exceeds container limit %d", options_.gop_size, kMaxGopSize));
  }
}

Status VideoEncoder::AddFrame(const Frame& frame) {
  if (!init_status_.ok()) {
    return init_status_;
  }
  if (finished_) {
    return FailedPrecondition("encoder already finished");
  }
  if (frame.height() != height_ || frame.width() != width_ || frame.channels() != channels_) {
    return InvalidArgument("frame shape does not match encoder configuration");
  }
  const size_t stride = static_cast<size_t>(width_) * channels_;
  const bool intra = (index_.size() % static_cast<size_t>(options_.gop_size)) == 0;

  Result<std::vector<uint8_t>> compressed =
      intra ? LosslessCompress(frame.data(), stride)
            : LosslessCompress(TemporalDelta(frame, previous_), stride);
  if (!compressed.ok()) {
    return compressed.status();
  }
  index_.push_back(IndexEntry{intra ? FrameType::kIntra : FrameType::kDelta,
                              static_cast<uint64_t>(payload_.size()),
                              static_cast<uint32_t>(compressed->size())});
  payload_.insert(payload_.end(), compressed->begin(), compressed->end());
  previous_ = frame;
  return Status::Ok();
}

Result<std::vector<uint8_t>> VideoEncoder::Finish() {
  if (!init_status_.ok()) {
    return init_status_;
  }
  if (finished_) {
    return FailedPrecondition("encoder already finished");
  }
  if (index_.empty()) {
    return FailedPrecondition("no frames added");
  }
  finished_ = true;
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + index_.size() * kIndexEntrySize + payload_.size());
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  PutU16(out, kVersion);
  PutU16(out, static_cast<uint16_t>(width_));
  PutU16(out, static_cast<uint16_t>(height_));
  out.push_back(static_cast<uint8_t>(channels_));
  out.push_back(static_cast<uint8_t>(options_.gop_size));
  PutU32(out, static_cast<uint32_t>(index_.size()));
  for (const IndexEntry& entry : index_) {
    out.push_back(static_cast<uint8_t>(entry.type));
    PutU64(out, entry.offset);
    PutU32(out, entry.size);
  }
  out.insert(out.end(), payload_.begin(), payload_.end());
  return out;
}

Status VideoDecoder::DecodeStep(const Parsed& parsed, int64_t index, Frame& cursor,
                                AtomicDecodeStats& stats) {
  const VideoDecoder::IndexEntry& entry = parsed.index[static_cast<size_t>(index)];
  std::span<const uint8_t> payload(parsed.container->data() + parsed.payload_base + entry.offset,
                                   entry.size);
  stats.bytes_read.fetch_add(entry.size, std::memory_order_relaxed);
  GlobalDecodeMetrics::Get().bytes_read->Add(entry.size);
  Result<std::vector<uint8_t>> raw = LosslessDecompress(payload);
  if (!raw.ok()) {
    return raw.status();
  }
  if (entry.type == FrameType::kIntra) {
    cursor = Frame(parsed.height, parsed.width, parsed.channels, raw.TakeValue());
  } else {
    ApplyTemporalDelta(cursor, *raw);
  }
  stats.frames_decoded.fetch_add(1, std::memory_order_relaxed);
  GlobalDecodeMetrics::Get().frames_decoded->Add(1);
  return Status::Ok();
}

Result<int64_t> VideoDecoder::GopStartIn(const Parsed& parsed, int64_t index) {
  if (index < 0 || index >= static_cast<int64_t>(parsed.index.size())) {
    return OutOfRange(StrFormat("frame %lld out of range", static_cast<long long>(index)));
  }
  int64_t i = index;
  while (parsed.index[static_cast<size_t>(i)].type != FrameType::kIntra) {
    --i;  // frame 0 is always intra, so this terminates
  }
  return i;
}

Result<VideoDecoder> VideoDecoder::Open(std::vector<uint8_t> container) {
  return Open(MakeSharedBytes(std::move(container)));
}

Result<VideoDecoder> VideoDecoder::Open(SharedBytes container) {
  if (container == nullptr) {
    return InvalidArgument("null container");
  }
  if (container->size() < kHeaderSize ||
      !std::equal(kMagic.begin(), kMagic.end(), container->begin())) {
    return DataLoss("not an SVC1 container");
  }
  std::span<const uint8_t> bytes(*container);
  uint16_t version = GetU16(bytes, 4);
  if (version != kVersion) {
    return DataLoss(StrFormat("unsupported container version %u", version));
  }
  auto parsed = std::make_shared<Parsed>();
  parsed->width = GetU16(bytes, 6);
  parsed->height = GetU16(bytes, 8);
  parsed->channels = bytes[10];
  parsed->gop_size = bytes[11];
  uint32_t frame_count = GetU32(bytes, 12);
  if (parsed->gop_size < 1 || frame_count == 0) {
    return DataLoss("corrupt container header");
  }
  size_t index_bytes = static_cast<size_t>(frame_count) * kIndexEntrySize;
  if (container->size() < kHeaderSize + index_bytes) {
    return DataLoss("container index truncated");
  }
  parsed->index.reserve(frame_count);
  size_t pos = kHeaderSize;
  for (uint32_t i = 0; i < frame_count; ++i) {
    IndexEntry entry;
    entry.type = static_cast<FrameType>(bytes[pos]);
    entry.offset = GetU64(bytes, pos + 1);
    entry.size = GetU32(bytes, pos + 9);
    if (entry.type != FrameType::kIntra && entry.type != FrameType::kDelta) {
      return DataLoss("corrupt frame type");
    }
    parsed->index.push_back(entry);
    pos += kIndexEntrySize;
  }
  parsed->payload_base = pos;
  const IndexEntry& last = parsed->index.back();
  if (container->size() < parsed->payload_base + last.offset + last.size) {
    return DataLoss("container payload truncated");
  }
  parsed->container = std::move(container);
  VideoDecoder decoder;
  decoder.parsed_ = std::move(parsed);
  return decoder;
}

int VideoDecoder::height() const { return parsed_->height; }
int VideoDecoder::width() const { return parsed_->width; }
int VideoDecoder::channels() const { return parsed_->channels; }
int VideoDecoder::gop_size() const { return parsed_->gop_size; }
int64_t VideoDecoder::frame_count() const { return static_cast<int64_t>(parsed_->index.size()); }

Result<int64_t> VideoDecoder::GopStart(int64_t index) const {
  return GopStartIn(*parsed_, index);
}

GopDecoder VideoDecoder::SliceDecoder() const { return GopDecoder(parsed_, stats_); }

Status VideoDecoder::DecodeIntoCursor(int64_t index) {
  SAND_RETURN_IF_ERROR(DecodeStep(*parsed_, index, cursor_frame_, *stats_));
  cursor_index_ = index;
  return Status::Ok();
}

Result<Frame> VideoDecoder::DecodeFrame(int64_t index) {
  if (index < 0 || index >= frame_count()) {
    return OutOfRange(StrFormat("frame %lld out of range", static_cast<long long>(index)));
  }
  const GlobalDecodeMetrics& metrics = GlobalDecodeMetrics::Get();
  stats_->frames_requested.fetch_add(1, std::memory_order_relaxed);
  metrics.frames_requested->Add(1);
  if (cursor_index_ && *cursor_index_ == index) {
    return cursor_frame_;  // repeat request; no decode work
  }
  SAND_SPAN("decode");
  Nanos start_ns = SinceProcessStart();
  SAND_ASSIGN_OR_RETURN(int64_t gop_start, GopStart(index));
  int64_t start;
  if (cursor_index_ && *cursor_index_ < index && *cursor_index_ >= gop_start) {
    start = *cursor_index_ + 1;  // continue the current forward run
  } else {
    start = gop_start;
    stats_->seeks.fetch_add(1, std::memory_order_relaxed);
    metrics.seeks->Add(1);
  }
  if (start < index) {
    // The decode-amplification work: frames reconstructed only to reach
    // the requested one. Visible as its own stage in captured traces.
    SAND_SPAN("gop_seek");
    for (int64_t i = start; i < index; ++i) {
      SAND_RETURN_IF_ERROR(DecodeIntoCursor(i));
    }
  }
  SAND_RETURN_IF_ERROR(DecodeIntoCursor(index));
  metrics.frame_latency_ns->Record(static_cast<uint64_t>(SinceProcessStart() - start_ns));
  return cursor_frame_;
}

DecodeStats VideoDecoder::stats() const {
  DecodeStats snapshot;
  snapshot.frames_requested = stats_->frames_requested.load(std::memory_order_relaxed);
  snapshot.frames_decoded = stats_->frames_decoded.load(std::memory_order_relaxed);
  snapshot.bytes_read = stats_->bytes_read.load(std::memory_order_relaxed);
  snapshot.seeks = stats_->seeks.load(std::memory_order_relaxed);
  return snapshot;
}

void VideoDecoder::ResetStats() {
  stats_->frames_requested.store(0, std::memory_order_relaxed);
  stats_->frames_decoded.store(0, std::memory_order_relaxed);
  stats_->bytes_read.store(0, std::memory_order_relaxed);
  stats_->seeks.store(0, std::memory_order_relaxed);
}

Result<std::vector<Frame>> VideoDecoder::DecodeFrames(std::span<const int64_t> indices) {
  std::vector<size_t> order(indices.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return indices[a] < indices[b]; });
  std::vector<Frame> out(indices.size());
  for (size_t slot : order) {
    SAND_ASSIGN_OR_RETURN(Frame frame, DecodeFrame(indices[slot]));
    out[slot] = std::move(frame);
  }
  return out;
}

Result<std::vector<Frame>> VideoDecoder::DecodeFrames(std::span<const int64_t> indices,
                                                      WorkerPool* pool) {
  if (pool == nullptr) {
    return DecodeFrames(indices);
  }
  if (indices.empty()) {
    return std::vector<Frame>{};
  }
  for (int64_t index : indices) {
    if (index < 0 || index >= frame_count()) {
      return OutOfRange(StrFormat("frame %lld out of range", static_cast<long long>(index)));
    }
  }
  std::vector<size_t> order(indices.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return indices[a] < indices[b]; });

  // Partition the sorted walk into GOP runs. `boundary` is the first frame
  // index beyond the current run (the next I-frame, or frame_count).
  struct Slice {
    int64_t gop_start = 0;
    std::vector<int64_t> indices;  // ascending, duplicates allowed
    std::vector<size_t> slots;     // result slot per index
  };
  std::vector<Slice> slices;
  int64_t boundary = -1;
  for (size_t slot : order) {
    int64_t index = indices[slot];
    if (slices.empty() || index >= boundary) {
      SAND_ASSIGN_OR_RETURN(int64_t gop_start, GopStart(index));
      boundary = index + 1;
      while (boundary < frame_count() &&
             parsed_->index[static_cast<size_t>(boundary)].type != FrameType::kIntra) {
        ++boundary;
      }
      slices.push_back(Slice{gop_start, {}, {}});
    }
    slices.back().indices.push_back(index);
    slices.back().slots.push_back(slot);
  }

  SAND_SPAN("decode_parallel");
  GopDecoder slice_decoder = SliceDecoder();
  std::vector<Frame> out(indices.size());
  std::vector<Status> results(slices.size(), Status::Ok());

  // Completion latch: pool tasks count down; the caller runs slice 0 (and
  // any slice the saturated pool refuses) inline, then waits for the rest.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    size_t remaining;
  };
  Latch latch{{}, {}, slices.size()};
  auto run_slice = [&](size_t s) {
    const Slice& slice = slices[s];
    Result<std::vector<Frame>> frames = slice_decoder.DecodeSlice(slice.gop_start, slice.indices);
    if (frames.ok()) {
      for (size_t i = 0; i < slice.slots.size(); ++i) {
        out[slice.slots[i]] = std::move((*frames)[i]);
      }
    } else {
      results[s] = frames.status();
    }
    {
      // Notify under the lock: the waiter destroys the latch as soon as it
      // observes remaining == 0, so an unlocked notify could touch a dead cv.
      std::lock_guard<std::mutex> lock(latch.mutex);
      --latch.remaining;
      latch.cv.notify_one();
    }
  };
  for (size_t s = 1; s < slices.size(); ++s) {
    if (!pool->TrySubmit([&run_slice, s] { run_slice(s); })) {
      run_slice(s);  // pool saturated: the caller decodes this slice itself
    }
  }
  run_slice(0);
  {
    std::unique_lock<std::mutex> lock(latch.mutex);
    latch.cv.wait(lock, [&] { return latch.remaining == 0; });
  }
  for (const Status& status : results) {
    SAND_RETURN_IF_ERROR(status);
  }
  return out;
}

Result<GopDecoder> GopDecoder::Open(SharedBytes container) {
  SAND_ASSIGN_OR_RETURN(VideoDecoder decoder, VideoDecoder::Open(std::move(container)));
  return decoder.SliceDecoder();
}

Result<int64_t> GopDecoder::GopStart(int64_t index) const {
  return VideoDecoder::GopStartIn(*parsed_, index);
}

DecodeStats GopDecoder::stats() const {
  DecodeStats snapshot;
  snapshot.frames_requested = stats_->frames_requested.load(std::memory_order_relaxed);
  snapshot.frames_decoded = stats_->frames_decoded.load(std::memory_order_relaxed);
  snapshot.bytes_read = stats_->bytes_read.load(std::memory_order_relaxed);
  snapshot.seeks = stats_->seeks.load(std::memory_order_relaxed);
  return snapshot;
}

Result<std::vector<Frame>> GopDecoder::DecodeSlice(int64_t gop_start,
                                                   std::span<const int64_t> indices) const {
  if (indices.empty()) {
    return std::vector<Frame>{};
  }
  if (gop_start < 0 || gop_start >= frame_count() ||
      parsed_->index[static_cast<size_t>(gop_start)].type != FrameType::kIntra) {
    return InvalidArgument(
        StrFormat("slice start %lld is not an I-frame", static_cast<long long>(gop_start)));
  }
  int64_t previous = gop_start;
  for (int64_t index : indices) {
    if (index < previous) {
      return InvalidArgument("slice indices must be ascending and >= the slice start");
    }
    if (index >= frame_count()) {
      return OutOfRange(StrFormat("frame %lld out of range", static_cast<long long>(index)));
    }
    previous = index;
  }
  const GlobalDecodeMetrics& metrics = GlobalDecodeMetrics::Get();
  stats_->frames_requested.fetch_add(indices.size(), std::memory_order_relaxed);
  metrics.frames_requested->Add(indices.size());
  stats_->seeks.fetch_add(1, std::memory_order_relaxed);
  metrics.seeks->Add(1);

  SAND_SPAN("gop_slice_decode");
  const int64_t max_index = indices.back();
  Frame cursor;
  std::vector<Frame> out;
  out.reserve(indices.size());
  size_t next = 0;
  // Each distinct requested frame records its latency like a serial
  // forward run would: the first includes the GOP seek, later ones the
  // frames decoded since the previous request. Repeats record nothing.
  Nanos mark_ns = SinceProcessStart();
  for (int64_t i = gop_start; i <= max_index; ++i) {
    if (i > gop_start && parsed_->index[static_cast<size_t>(i)].type == FrameType::kIntra) {
      return InvalidArgument(
          StrFormat("slice index %lld crosses into the next GOP (I-frame at %lld)",
                    static_cast<long long>(max_index), static_cast<long long>(i)));
    }
    SAND_RETURN_IF_ERROR(VideoDecoder::DecodeStep(*parsed_, i, cursor, *stats_));
    if (next < indices.size() && indices[next] == i) {
      Nanos now_ns = SinceProcessStart();
      metrics.frame_latency_ns->Record(static_cast<uint64_t>(now_ns - mark_ns));
      mark_ns = now_ns;
    }
    while (next < indices.size() && indices[next] == i) {
      out.push_back(cursor);
      ++next;
    }
  }
  return out;
}

}  // namespace sand
