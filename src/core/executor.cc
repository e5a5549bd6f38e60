#include "src/core/executor.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/common/threading.h"
#include "src/common/trace_context.h"
#include "src/compress/lossless.h"
#include "src/obs/attribution.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/image_ops.h"
#include "src/tensor/pixel_kernels.h"

namespace sand {

namespace {

// Process-wide mirrors of ExecutorStats ("sand.exec.*" in /.sand/metrics).
// Instances keep their own stats_ (benches diff per-pipeline counts); the
// registry aggregates across all executors in the process.
struct ExecMetrics {
  obs::Counter* frames_decoded;
  obs::Counter* decode_ops;
  obs::Counter* aug_ops;
  obs::Counter* crop_ops;
  obs::Counter* cache_hits;
  obs::Counter* cache_stores;
  obs::Counter* parallel_slices;
  static ExecMetrics& Get() {
    static ExecMetrics m{
        obs::Registry::Get().GetCounter("sand.exec.frames_decoded"),
        obs::Registry::Get().GetCounter("sand.exec.decode_ops"),
        obs::Registry::Get().GetCounter("sand.exec.aug_ops"),
        obs::Registry::Get().GetCounter("sand.exec.crop_ops"),
        obs::Registry::Get().GetCounter("sand.exec.cache_hits"),
        obs::Registry::Get().GetCounter("sand.exec.cache_stores"),
        obs::Registry::Get().GetCounter("sand.exec.parallel_slices"),
    };
    return m;
  }
};

}  // namespace

CustomOpRegistry& CustomOpRegistry::Get() {
  static CustomOpRegistry registry;
  return registry;
}

Status CustomOpRegistry::Register(const std::string& name, CustomOpFn fn) {
  if (!fn) {
    return InvalidArgument("custom op fn must not be null");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = fns_.emplace(name, std::move(fn));
  if (!inserted) {
    return AlreadyExists("custom op already registered: " + name);
  }
  return Status::Ok();
}

Result<CustomOpFn> CustomOpRegistry::Lookup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return NotFound("no custom op registered: " + name);
  }
  return it->second;
}

std::string NodeCacheKey(const VideoObjectGraph& graph, const ConcreteNode& node) {
  // A flat namespace: "cache/<video>/<class><frame>/n<hash>"; node keys are
  // already deterministic chains of resolved op signatures, but contain
  // characters awkward for file paths, so hash them and keep a readable
  // prefix. The class segment ('f' = decoded frame, 'a' = augmented/merged
  // view) plus the source-frame index is what lets the storage tier's
  // compression policy pick a codec per view class (ClassifyCacheKey)
  // without understanding op chains.
  uint64_t h = HashCombine(0x53414e44ULL, node.key);
  const char cls = node.chain_depth == 0 ? 'f' : 'a';
  return StrFormat("cache/%s/%c%lld/n%016llx", graph.video_name.c_str(), cls,
                   static_cast<long long>(node.source_frame),
                   static_cast<unsigned long long>(h));
}

namespace {

// The decoded-frame ancestor an augmented view derives from, or null when
// the lineage does not reach one (e.g. it stops at the video source).
const ConcreteNode* BaseFrameNode(const VideoObjectGraph& graph, const ConcreteNode& node) {
  const ConcreteNode* cur = &node;
  while (cur->chain_depth > 0) {
    const ConcreteNode* next = nullptr;
    for (int pid : cur->parents) {
      const ConcreteNode& parent = graph.node(pid);
      if (parent.op.type != ConcreteOpType::kSource) {
        next = &parent;
        break;
      }
    }
    if (next == nullptr) {
      return nullptr;
    }
    cur = next;
  }
  return cur->op.type != ConcreteOpType::kSource ? cur : nullptr;
}

}  // namespace

SubtreeExecutor::SubtreeExecutor(const VideoObjectGraph& graph, ContainerCache* containers,
                                 TieredCache* cache, CpuMeter* meter,
                                 MaterializationScheduler* scheduler)
    : graph_(graph),
      containers_(containers),
      cache_(cache),
      meter_(meter),
      scheduler_(scheduler) {}

Result<VideoDecoder*> SubtreeExecutor::EnsureDecoderLocked() {
  if (!decoder_.has_value()) {
    if (containers_ == nullptr) {
      return FailedPrecondition("executor has no container source");
    }
    SAND_ASSIGN_OR_RETURN(auto container, containers_->Fetch(graph_.video_key));
    // The decoder holds a reference to the shared container: N concurrent
    // jobs on one video pin a single copy of the encoded bytes.
    SAND_ASSIGN_OR_RETURN(VideoDecoder decoder, VideoDecoder::Open(std::move(container)));
    decoder_.emplace(std::move(decoder));
  }
  return &*decoder_;
}

Result<Frame> SubtreeExecutor::Decode(int64_t frame_index) {
  SAND_SPAN("decode");
  Nanos decode_start = SinceProcessStart();
  uint64_t decoded = 0;
  Result<Frame> frame = [&]() -> Result<Frame> {
    // The forward cursor is single-threaded state; concurrent Produce calls
    // that fall through to a cursor decode serialize here.
    std::lock_guard<std::mutex> lock(decoder_mutex_);
    SAND_ASSIGN_OR_RETURN(VideoDecoder * decoder, EnsureDecoderLocked());
    uint64_t before = decoder->stats().frames_decoded;
    Result<Frame> decoded_frame = [&] {
      if (meter_ != nullptr) {
        ScopedCpuWork work(*meter_, CpuWorkKind::kDecode);
        return decoder->DecodeFrame(frame_index);
      }
      return decoder->DecodeFrame(frame_index);
    }();
    decoded = decoder->stats().frames_decoded - before;
    return decoded_frame;
  }();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.frames_decoded += decoded;
    ++stats_.decode_ops;
  }
  ExecMetrics::Get().frames_decoded->Add(decoded);
  ExecMetrics::Get().decode_ops->Add(1);
  // Decode CPU is the dominant materialization cost; bill it to the job
  // the current request context attributes this work to.
  if (obs::JobMetrics* job = obs::JobMetricsFor(CurrentTraceContext().job_id)) {
    job->decode_ns->Add(static_cast<uint64_t>(SinceProcessStart() - decode_start));
  }
  return frame;
}

Result<Frame> SubtreeExecutor::Augment(const ConcreteNode& node, const Frame& input) {
  SAND_SPAN("augment");
  std::optional<ScopedCpuWork> work;
  if (meter_ != nullptr) {
    work.emplace(*meter_, CpuWorkKind::kAugment);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.aug_ops;
  }
  ExecMetrics::Get().aug_ops->Add(1);
  const ConcreteOp& op = node.op;
  const AugOp& aug = op.aug;
  switch (aug.kind) {
    case OpKind::kResize:
      return Resize(input, aug.out_h, aug.out_w, aug.interp);
    case OpKind::kRandomCrop: {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.crop_ops;
      }
      ExecMetrics::Get().crop_ops->Add(1);
      return Crop(input, op.crop.y, op.crop.x, op.crop.h, op.crop.w);
    }
    case OpKind::kCenterCrop:
      return CenterCrop(input, std::min(aug.out_h, input.height()),
                        std::min(aug.out_w, input.width()));
    case OpKind::kFlip:
      // Planner only creates flip nodes when the coin landed on "apply".
      return FlipHorizontal(input);
    case OpKind::kColorJitter:
      return AdjustContrast(AdjustBrightness(input, op.jitter_delta), op.jitter_contrast);
    case OpKind::kBlur:
      return BoxBlur(input, aug.kernel);
    case OpKind::kRotate90:
      return Rotate90(input);
    case OpKind::kInvert:
      return Invert(input);
    case OpKind::kCustom: {
      SAND_ASSIGN_OR_RETURN(CustomOpFn fn, CustomOpRegistry::Get().Lookup(aug.custom_name));
      return fn(input);
    }
  }
  return Internal("unhandled augmentation kind");
}

std::optional<Result<Frame>> SubtreeExecutor::TryCacheLoad(const ConcreteNode& node) {
  if (!node.cache || cache_ == nullptr) {
    return std::nullopt;
  }
  // Cached object? Load it. Objects destined for the memory tier are kept
  // raw; the disk tier holds losslessly compressed frames (§6: libpng-class
  // codec for persisted objects). The two are distinguished by size: a raw
  // object is exactly header + h*w*c bytes.
  //
  // Single GetShared call (no Contains pre-check): an eviction between a
  // Contains and the Get would turn a hit into a spurious corrupt-entry
  // path. A raw memory-tier hit is zero-copy — the Frame aliases the
  // cache-resident bytes and clones only if someone later mutates it.
  std::string key = NodeCacheKey(graph_, node);
  Result<SharedBytes> bytes = cache_->GetShared(key);
  if (!bytes.ok()) {
    return std::nullopt;
  }
  bool raw = (*bytes)->size() == 12 + node.RawBytes();
  Result<Frame> frame = [&]() -> Result<Frame> {
    if (raw) {
      return Frame::DeserializeShared(*bytes);
    }
    if (meter_ != nullptr) {
      ScopedCpuWork work(*meter_, CpuWorkKind::kCompress);
      return DecompressFrame(**bytes);
    }
    return DecompressFrame(**bytes);
  }();
  if (!frame.ok()) {
    // Corrupt cache entry: fall through and recompute.
    (void)cache_->Delete(key);
    return std::nullopt;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cache_hits;
  }
  ExecMetrics::Get().cache_hits->Add(1);
  if (obs::JobMetrics* job = obs::JobMetricsFor(CurrentTraceContext().job_id)) {
    job->cache_hits->Add(1);
  }
  return InsertMemo(node.id, *std::move(frame));
}

Frame SubtreeExecutor::InsertMemo(int node_id, Frame frame) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = memo_.emplace(node_id, std::move(frame));
  if (inserted) {
    memo_order_.push_back(node_id);
  }
  // On a lost race the earlier frame wins; both hold identical bytes (node
  // materialization is deterministic — random draws were frozen at planning).
  return it->second;
}

Result<Frame> SubtreeExecutor::FinishProduced(const ConcreteNode& node, Frame produced,
                                              bool allow_cache_store) {
  if (node.cache && allow_cache_store && cache_ != nullptr) {
    std::string key = NodeCacheKey(graph_, node);
    // Teach the cache's codec the aug-view -> base-frame lineage so the SVD
    // codec can share the base frame's factors across augmentations.
    if (cache_->compression_enabled() && node.chain_depth > 0) {
      if (const ConcreteNode* base = BaseFrameNode(graph_, node)) {
        cache_->NoteBaseObject(key, NodeCacheKey(graph_, *base));
      }
    }
    // The Contains pre-check only skips the serialize/compress work when a
    // racing job already stored the node; correctness rests on the atomic
    // PutIfAbsent below (two jobs can no longer both insert).
    if (!cache_->Contains(key)) {
      // Leaves live hot in memory, raw; everything spilled to the disk
      // tier is losslessly compressed first — by the cache's own codec when
      // it compresses disk puts (which also unlocks the lossy codecs), by
      // the legacy explicit CompressFrame otherwise.
      Tier tier = node.is_leaf ? Tier::kMemory : Tier::kDisk;
      const bool cache_encodes = tier == Tier::kDisk && cache_->compresses_disk_puts();
      Result<std::vector<uint8_t>> bytes = [&]() -> Result<std::vector<uint8_t>> {
        if (tier == Tier::kMemory || cache_encodes) {
          return produced.Serialize();
        }
        if (meter_ != nullptr) {
          ScopedCpuWork work(*meter_, CpuWorkKind::kCompress);
          return CompressFrame(produced);
        }
        return CompressFrame(produced);
      }();
      if (bytes.ok()) {
        Result<bool> stored = cache_->PutIfAbsent(key, *bytes, tier);
        if (stored.ok() && *stored) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.cache_stores;
          }
          ExecMetrics::Get().cache_stores->Add(1);
        }
      }
    }
  }
  return InsertMemo(node.id, std::move(produced));
}

Result<Frame> SubtreeExecutor::Produce(int node_id, bool allow_cache_store) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto memo_it = memo_.find(node_id);
    if (memo_it != memo_.end()) {
      return memo_it->second;
    }
  }
  const ConcreteNode& node = graph_.node(node_id);
  if (node.op.type == ConcreteOpType::kSource) {
    return InvalidArgument("cannot produce the video source node as a frame");
  }

  if (std::optional<Result<Frame>> cached = TryCacheLoad(node)) {
    return *std::move(cached);
  }

  Frame produced;
  switch (node.op.type) {
    case ConcreteOpType::kDecode: {
      SAND_ASSIGN_OR_RETURN(produced, Decode(node.op.frame_index));
      break;
    }
    case ConcreteOpType::kAugment: {
      SAND_ASSIGN_OR_RETURN(Frame input, Produce(node.parents[0], allow_cache_store));
      SAND_ASSIGN_OR_RETURN(produced, Augment(node, input));
      break;
    }
    case ConcreteOpType::kMerge: {
      // Pixel-wise average of all parents (they share one shape by
      // construction of the merge stage).
      SAND_ASSIGN_OR_RETURN(Frame first, Produce(node.parents[0], allow_cache_store));
      std::vector<Frame> rest;
      for (size_t p = 1; p < node.parents.size(); ++p) {
        SAND_ASSIGN_OR_RETURN(Frame parent, Produce(node.parents[p], allow_cache_store));
        if (!parent.SameShape(first)) {
          return InvalidArgument("merge stage inputs disagree in shape");
        }
        rest.push_back(std::move(parent));
      }
      std::optional<ScopedCpuWork> work;
      if (meter_ != nullptr) {
        work.emplace(*meter_, CpuWorkKind::kAugment);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.aug_ops;
      }
      ExecMetrics::Get().aug_ops->Add(1);
      produced = first;  // shares first's buffer (which the memo also holds)
      // MutableData clones before the in-place average, so the memoized
      // (and possibly cache-resident) parent stays intact. After the clone
      // `out` and `first.data()` are distinct buffers, so the kernel's
      // inputs never alias its output.
      std::vector<std::span<const uint8_t>> inputs;
      inputs.reserve(rest.size() + 1);
      inputs.push_back(first.data());
      for (const Frame& parent : rest) {
        inputs.push_back(parent.data());
      }
      MergeAverage(inputs, produced.MutableData());
      break;
    }
    case ConcreteOpType::kSource:
      return Internal("unreachable");
  }

  return FinishProduced(node, std::move(produced), allow_cache_store);
}

Status SubtreeExecutor::MaterializeSerial(const std::vector<int>& decode_nodes,
                                          const std::vector<int>& todo) {
  for (int node : decode_nodes) {
    SAND_RETURN_IF_ERROR(Produce(node, /*allow_cache_store=*/true).status());
  }
  for (int node : todo) {
    SAND_RETURN_IF_ERROR(Produce(node, /*allow_cache_store=*/true).status());
  }
  return Status::Ok();
}

Status SubtreeExecutor::MaterializeFlagged() {
  // Which flagged nodes still need work?
  std::vector<int> todo;
  for (const ConcreteNode& node : graph_.nodes) {
    if (!node.cache || node.op.type == ConcreteOpType::kSource) {
      continue;
    }
    if (cache_ != nullptr && cache_->Contains(NodeCacheKey(graph_, node))) {
      continue;  // already persisted (recovery or a racing job)
    }
    todo.push_back(node.id);
  }
  if (todo.empty()) {
    return Status::Ok();
  }
  // Decode pass first, in ascending frame order: the chunk spans many
  // epochs whose clips interleave arbitrarily, and producing them in plan
  // order would restart the GOP cursor constantly. One forward sweep
  // decodes every needed source frame exactly once (this is the paper's
  // "decode once per k epochs"; the decoded frames pinned here are what
  // the SJF memory-pressure policy in the scheduler bounds).
  std::vector<int> decode_nodes;
  for (const ConcreteNode& node : graph_.nodes) {
    if (node.op.type == ConcreteOpType::kDecode) {
      decode_nodes.push_back(node.id);
    }
  }
  std::sort(decode_nodes.begin(), decode_nodes.end(), [this](int a, int b) {
    return graph_.node(a).op.frame_index < graph_.node(b).op.frame_index;
  });
  if (scheduler_ == nullptr || decode_nodes.empty()) {
    return MaterializeSerial(decode_nodes, todo);
  }

  // GOP-parallel path (DESIGN.md §9): partition the sorted decode nodes
  // into GOP runs, pair each run with the flagged subtrees rooted in it
  // (merge nodes never span GOPs — every parent derives from the node's
  // sample frame), and materialize the slices concurrently.
  std::optional<GopDecoder> maybe_slices;
  {
    std::lock_guard<std::mutex> lock(decoder_mutex_);
    Result<VideoDecoder*> decoder = EnsureDecoderLocked();
    if (!decoder.ok()) {
      return decoder.status();
    }
    maybe_slices.emplace((*decoder)->SliceDecoder());
  }
  GopDecoder& slice_decoder = *maybe_slices;

  struct GopGroup {
    int64_t gop_start = 0;
    std::vector<int> decode_nodes;       // ascending frame_index
    std::vector<int64_t> frame_indices;  // parallel to decode_nodes
    std::vector<int> todo;
  };
  std::vector<GopGroup> groups;
  for (int node_id : decode_nodes) {
    int64_t frame_index = graph_.node(node_id).op.frame_index;
    SAND_ASSIGN_OR_RETURN(int64_t gop_start, slice_decoder.GopStart(frame_index));
    if (groups.empty() || groups.back().gop_start != gop_start) {
      groups.push_back(GopGroup{gop_start, {}, {}, {}});
    }
    groups.back().decode_nodes.push_back(node_id);
    groups.back().frame_indices.push_back(frame_index);
  }
  if (groups.size() <= 1) {
    return MaterializeSerial(decode_nodes, todo);
  }
  std::map<int64_t, size_t> group_of_gop;
  for (size_t g = 0; g < groups.size(); ++g) {
    group_of_gop[groups[g].gop_start] = g;
  }
  // Flagged subtrees follow their sample frame's GOP; anything that cannot
  // be placed (defensive: a todo with no decodable source) runs serially
  // after the parallel phase.
  std::vector<int> leftover;
  for (int node_id : todo) {
    const ConcreteNode& node = graph_.node(node_id);
    Result<int64_t> gop_start = slice_decoder.GopStart(node.source_frame);
    auto it = gop_start.ok() ? group_of_gop.find(*gop_start) : group_of_gop.end();
    if (it != group_of_gop.end()) {
      groups[it->second].todo.push_back(node_id);
    } else {
      leftover.push_back(node_id);
    }
  }

  SAND_SPAN("materialize_parallel");
  auto run_group = [&](const GopGroup& group) -> Status {
    // Slice decode: one stateless forward pass from the run's I-frame.
    Result<std::vector<Frame>> frames = [&] {
      if (meter_ != nullptr) {
        ScopedCpuWork work(*meter_, CpuWorkKind::kDecode);
        return slice_decoder.DecodeSlice(group.gop_start, group.frame_indices);
      }
      return slice_decoder.DecodeSlice(group.gop_start, group.frame_indices);
    }();
    if (!frames.ok()) {
      return frames.status();
    }
    // Deterministic accounting: the pass reconstructed every frame from the
    // I-frame through the largest requested index, exactly as a cold
    // serial sweep of this run would.
    uint64_t decoded =
        static_cast<uint64_t>(group.frame_indices.back() - group.gop_start + 1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.frames_decoded += decoded;
      stats_.decode_ops += group.decode_nodes.size();
      ++stats_.parallel_slices;
    }
    ExecMetrics::Get().frames_decoded->Add(decoded);
    ExecMetrics::Get().decode_ops->Add(group.decode_nodes.size());
    ExecMetrics::Get().parallel_slices->Add(1);
    for (size_t i = 0; i < group.decode_nodes.size(); ++i) {
      const ConcreteNode& node = graph_.node(group.decode_nodes[i]);
      Result<Frame> finished =
          FinishProduced(node, std::move((*frames)[i]), /*allow_cache_store=*/true);
      if (!finished.ok()) {
        return finished.status();
      }
    }
    for (int node_id : group.todo) {
      SAND_RETURN_IF_ERROR(Produce(node_id, /*allow_cache_store=*/true).status());
    }
    return Status::Ok();
  };

  // One subtask per slice, in the calling job's class; the join returns
  // only after every slice ran, so slices may capture locals by reference.
  std::vector<Status> results(groups.size(), Status::Ok());
  std::vector<MaterializationJob> slices;
  slices.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    slices.push_back(MaterializationScheduler::Subtask(
        [&results, &run_group, &groups, g] { results[g] = run_group(groups[g]); }));
  }
  scheduler_->RunAll(std::move(slices));
  for (const Status& status : results) {
    SAND_RETURN_IF_ERROR(status);
  }
  for (int node_id : leftover) {
    SAND_RETURN_IF_ERROR(Produce(node_id, /*allow_cache_store=*/true).status());
  }
  return Status::Ok();
}

ExecutorStats SubtreeExecutor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

ExecutorStats SubtreeExecutor::DrainStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  ExecutorStats drained = stats_;
  stats_ = ExecutorStats{};
  return drained;
}

void SubtreeExecutor::TrimMemo(size_t max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Evict in first-insertion order until under budget: long-lived
  // (speculative) executors keep their recently produced frames instead of
  // losing the whole working set at once.
  while (memo_.size() > max_entries && !memo_order_.empty()) {
    memo_.erase(memo_order_.front());
    memo_order_.pop_front();
  }
}

}  // namespace sand
