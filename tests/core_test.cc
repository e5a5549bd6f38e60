// End-to-end tests of SandService: planning, materialization, the POSIX
// surface, caching, eviction, recovery, and custom ops.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include "src/common/strings.h"
#include "src/core/batch_format.h"
#include "src/core/sand_service.h"
#include "src/tensor/image_ops.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

struct TestRig {
  std::shared_ptr<MemoryStore> dataset_store;
  DatasetMeta meta;
  std::shared_ptr<TieredCache> cache;
  std::unique_ptr<SandService> service;
};

SyntheticDatasetOptions SmallDataset() {
  SyntheticDatasetOptions options;
  options.num_videos = 4;
  options.frames_per_video = 24;
  options.height = 24;
  options.width = 32;
  options.gop_size = 4;
  options.seed = 77;
  return options;
}

ModelProfile SmallProfile() {
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  return profile;
}

TestRig MakeRig(ServiceOptions options = {}, SyntheticDatasetOptions dataset = SmallDataset(),
                std::vector<TaskConfig> tasks = {}) {
  TestRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  if (tasks.empty()) {
    tasks = {MakeTaskConfig(SmallProfile(), rig.meta.path, "train")};
  }
  options.num_threads = 2;
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache,
                                              std::move(tasks), options);
  EXPECT_TRUE(rig.service->Start().ok());
  return rig;
}

ServiceOptions DefaultOptions() {
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 4;
  options.storage_budget_bytes = 64ULL << 20;
  return options;
}

TEST(SandServiceTest, ServesWellFormedBatches) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto fd = fs.Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_TRUE(fs.Close(*fd).ok());

  auto header = ParseBatchHeader(**bytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->n_clips, 2u);
  EXPECT_EQ(header->frames_per_clip, 3u);
  EXPECT_EQ(header->height, 16u);
  EXPECT_EQ(header->width, 16u);
  EXPECT_EQ(header->channels, 3u);
}

TEST(SandServiceTest, BatchesAreDeterministic) {
  TestRig rig1 = MakeRig(DefaultOptions());
  TestRig rig2 = MakeRig(DefaultOptions());
  for (int64_t iter = 0; iter < 2; ++iter) {
    std::string path = StrFormat("/train/0/%lld/view", static_cast<long long>(iter));
    auto fd1 = rig1.service->fs().Open(path);
    auto fd2 = rig2.service->fs().Open(path);
    ASSERT_TRUE(fd1.ok());
    ASSERT_TRUE(fd2.ok());
    auto bytes1 = rig1.service->fs().ReadAllShared(*fd1);
    auto bytes2 = rig2.service->fs().ReadAllShared(*fd2);
    ASSERT_TRUE(bytes1.ok());
    ASSERT_TRUE(bytes2.ok());
    EXPECT_EQ(**bytes1, **bytes2) << "identical services must serve identical batches";
  }
}

TEST(SandServiceTest, AllEpochsAcrossChunksReadable) {
  ServiceOptions options = DefaultOptions();
  options.k_epochs = 2;
  options.total_epochs = 4;  // two chunks
  TestRig rig = MakeRig(options);
  SandFs& fs = rig.service->fs();
  for (int64_t epoch = 0; epoch < 4; ++epoch) {
    for (int64_t iter = 0; iter < 2; ++iter) {
      std::string path = StrFormat("/train/%lld/%lld/view", static_cast<long long>(epoch),
                                   static_cast<long long>(iter));
      auto fd = fs.Open(path);
      ASSERT_TRUE(fd.ok());
      auto bytes = fs.ReadAllShared(*fd);
      ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
      EXPECT_TRUE(ParseBatchHeader(**bytes).ok());
      ASSERT_TRUE(fs.Close(*fd).ok());
    }
  }
  EXPECT_GE(rig.service->stats().chunks_planned, 2u);
}

TEST(SandServiceTest, FrameViewMatchesGroundTruth) {
  TestRig rig = MakeRig(DefaultOptions());
  // Find a frame the plan decoded (consumer-backed), then compare the view
  // bytes against the procedurally generated source frame.
  rig.service->WaitForBackgroundWork();
  SandFs& fs = rig.service->fs();
  // Frame indices are plan-dependent; probe until one materializes.
  bool found = false;
  for (int64_t index = 0; index < 24 && !found; ++index) {
    std::string path = StrFormat("/train/vid000/frame%lld", static_cast<long long>(index));
    auto fd = fs.Open(path);
    ASSERT_TRUE(fd.ok());
    auto bytes = fs.ReadAllShared(*fd);
    if (bytes.ok()) {
      auto frame = Frame::Deserialize(**bytes);
      ASSERT_TRUE(frame.ok());
      Frame expected = SynthesizeFrame(VideoSeed(77, 0), index, 24, 32, 3);
      EXPECT_EQ(*frame, expected) << "decoded frame must be lossless";
      found = true;
    }
    ASSERT_TRUE(fs.Close(*fd).ok());
  }
  EXPECT_TRUE(found) << "at least one frame of vid000 must be planned";
}

TEST(SandServiceTest, PreMaterializationFillsCache) {
  ServiceOptions options = DefaultOptions();
  options.pre_materialize = true;
  TestRig rig = MakeRig(options);
  rig.service->WaitForBackgroundWork();
  ServiceStats stats = rig.service->stats();
  EXPECT_GT(stats.pre_materialize_jobs, 0u);
  EXPECT_GT(stats.exec.cache_stores, 0u);
  EXPECT_GT(rig.cache->MemoryUsedBytes() + rig.cache->DiskUsedBytes(), 0u);

  // Batch reads should now mostly hit the cache.
  auto fd = rig.service->fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd).ok());
  EXPECT_GT(rig.service->stats().exec.cache_hits, 0u);
}

TEST(SandServiceTest, TightBudgetStillServesCorrectBatches) {
  ServiceOptions tight = DefaultOptions();
  tight.storage_budget_bytes = 4 * 1024;  // forces heavy pruning
  TestRig rig_tight = MakeRig(tight);
  TestRig rig_loose = MakeRig(DefaultOptions());
  PruningReport report = rig_tight.service->last_pruning_report();
  EXPECT_LE(report.final_bytes, tight.storage_budget_bytes);
  EXPECT_GT(report.subtrees_pruned, 0);
  // Same plan seed -> same batches, regardless of what is cached.
  auto fd1 = rig_tight.service->fs().Open("/train/0/1/view");
  auto fd2 = rig_loose.service->fs().Open("/train/0/1/view");
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  auto bytes1 = rig_tight.service->fs().ReadAllShared(*fd1);
  auto bytes2 = rig_loose.service->fs().ReadAllShared(*fd2);
  ASSERT_TRUE(bytes1.ok());
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(**bytes1, **bytes2);
}

TEST(SandServiceTest, MetadataXattrs) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto fd = fs.Open("/train/1/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs.GetXattr(*fd, "epoch"), "1");
  EXPECT_EQ(*fs.GetXattr(*fd, "iteration"), "0");
  EXPECT_EQ(*fs.GetXattr(*fd, "shape"), "2,3,16,16,3");
  auto timestamps = fs.GetXattr(*fd, "timestamps");
  ASSERT_TRUE(timestamps.ok());
  EXPECT_NE(timestamps->find("vid"), std::string::npos);
  EXPECT_FALSE(fs.GetXattr(*fd, "nonsense").ok());
  ASSERT_TRUE(fs.Close(*fd).ok());
}

TEST(SandServiceTest, SessionSignalsAccepted) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto session = fs.Open("/train");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(fs.Close(*session).ok());
  EXPECT_FALSE(fs.Open("/no_such_task").ok());
}

TEST(SandServiceTest, UnknownBatchRejected) {
  TestRig rig = MakeRig(DefaultOptions());
  auto fd = rig.service->fs().Open("/train/0/999/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_FALSE(rig.service->fs().ReadAllShared(*fd).ok());
  auto fd2 = rig.service->fs().Open("/wrongtask/0/0/view");
  ASSERT_TRUE(fd2.ok());
  EXPECT_FALSE(rig.service->fs().ReadAllShared(*fd2).ok());
}

TEST(SandServiceTest, MultiTaskSharingMergesWork) {
  ServiceOptions options = DefaultOptions();
  SyntheticDatasetOptions dataset = SmallDataset();
  TestRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  ASSERT_TRUE(meta.ok());
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), rig.meta.path, "a"),
                                   MakeTaskConfig(SmallProfile(), rig.meta.path, "b")};
  options.num_threads = 2;
  // No background jobs: keeps the decode counters attributable to the two
  // reads below (pre-materialization would keep decoding other videos
  // concurrently).
  options.pre_materialize = false;
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache, tasks,
                                              options);
  ASSERT_TRUE(rig.service->Start().ok());

  // Both tasks read batch 0; identical configs under coordination mean the
  // second task's read is nearly free (cache hits).
  auto fd_a = rig.service->fs().Open("/a/0/0/view");
  ASSERT_TRUE(fd_a.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd_a).ok());
  uint64_t decoded_after_a = rig.service->stats().exec.frames_decoded;
  auto fd_b = rig.service->fs().Open("/b/0/0/view");
  ASSERT_TRUE(fd_b.ok());
  ASSERT_TRUE(rig.service->fs().ReadAllShared(*fd_b).ok());
  uint64_t decoded_after_b = rig.service->stats().exec.frames_decoded;
  EXPECT_LE(decoded_after_b - decoded_after_a, decoded_after_a)
      << "task b must reuse task a's decoded objects";
}

TEST(SandServiceTest, RecoveryFindsPersistedObjects) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("sand_core_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  auto dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*dataset_store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  ServiceOptions options = DefaultOptions();
  options.num_threads = 2;

  uint64_t stored;
  {
    auto disk = DiskStore::Open(dir, 1ULL << 30);
    ASSERT_TRUE(disk.ok());
    auto cache = std::make_shared<TieredCache>(
        std::make_shared<MemoryStore>(64ULL << 20),
        std::shared_ptr<ObjectStore>(std::move(*disk)));
    SandService service(dataset_store, *meta, cache, tasks, options);
    ASSERT_TRUE(service.Start().ok());
    service.WaitForBackgroundWork();
    // Spill memory-resident objects so they survive the "crash".
    for (const std::string& key : cache->memory().ListKeys()) {
      ASSERT_TRUE(cache->Demote(key).ok());
    }
    stored = cache->DiskUsedBytes();
    ASSERT_GT(stored, 0u);
    service.Shutdown();
  }

  // "Restart": fresh service over the same disk root.
  auto disk = DiskStore::Open(dir, 1ULL << 30);
  ASSERT_TRUE(disk.ok());
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::shared_ptr<ObjectStore>(std::move(*disk)));
  SandService service(dataset_store, *meta, cache, tasks, options);
  auto recovered = service.RecoverFromDisk();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT(*recovered, 0u) << "persisted objects must be found after restart";

  // And the recovered service serves batches without redecoding everything.
  auto fd = service.fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(service.fs().ReadAllShared(*fd).ok());
  std::filesystem::remove_all(dir);
}

Result<Frame> Posterize(const Frame& input) {
  Frame out = input;
  for (uint8_t& v : out.storage()) {
    v = static_cast<uint8_t>(v & 0xC0);
  }
  return out;
}

TEST(SandServiceTest, CustomOpThroughRegistry) {
  // §5.5 extensibility: a user op registered by name and referenced from
  // the task configuration.
  (void)CustomOpRegistry::Get().Register("posterize", &Posterize);
  TaskConfig task = MakeTaskConfig(SmallProfile(), "/dataset/train", "train");
  AugStage custom;
  custom.name = "user";
  custom.type = BranchType::kSingle;
  custom.inputs = {task.augmentation.back().outputs[0]};
  custom.outputs = {"user_out"};
  AugOp op;
  op.kind = OpKind::kCustom;
  op.custom_name = "posterize";
  custom.ops.push_back(op);
  task.augmentation.push_back(custom);

  TestRig rig = MakeRig(DefaultOptions(), SmallDataset(), {task});
  auto fd = rig.service->fs().Open("/train/0/0/view");
  ASSERT_TRUE(fd.ok());
  auto bytes = rig.service->fs().ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto clips = ParseBatch(**bytes);
  ASSERT_TRUE(clips.ok());
  for (const Clip& clip : *clips) {
    for (const Frame& frame : clip.frames) {
      for (uint8_t v : frame.data()) {
        EXPECT_EQ(v & 0x3F, 0) << "posterize must have been applied";
      }
    }
  }
}

TEST(SandServiceTest, ListDirWalksTheNamespace) {
  TestRig rig = MakeRig(DefaultOptions());
  SandFs& fs = rig.service->fs();
  auto tasks = fs.ListDir("/");
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ(*tasks, (std::vector<std::string>{"train"}));

  auto under_task = fs.ListDir("/train");
  ASSERT_TRUE(under_task.ok());
  // 4 epochs + 4 videos.
  EXPECT_EQ(under_task->size(), 8u);
  EXPECT_NE(std::find(under_task->begin(), under_task->end(), "vid000.mp4"),
            under_task->end());

  auto iterations = fs.ListDir("/train/0");
  ASSERT_TRUE(iterations.ok());
  EXPECT_EQ(*iterations, (std::vector<std::string>{"0", "1"}));

  auto view = fs.ListDir("/train/0/1");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*view, (std::vector<std::string>{"view"}));

  auto frames = fs.ListDir("/train/vid000");
  ASSERT_TRUE(frames.ok());
  EXPECT_FALSE(frames->empty());
  EXPECT_EQ(frames->front().rfind("frame", 0), 0u);

  EXPECT_FALSE(fs.ListDir("/train/99").ok());
  EXPECT_FALSE(fs.ListDir("/nope").ok());
  EXPECT_FALSE(fs.ListDir("relative").ok());
}

TEST(BatchFormatTest, RoundTrip) {
  std::vector<Clip> clips(2);
  for (Clip& clip : clips) {
    for (int t = 0; t < 3; ++t) {
      Frame frame(4, 5, 3);
      for (size_t i = 0; i < frame.storage().size(); ++i) {
        frame.storage()[i] = static_cast<uint8_t>(i * 7 + t);
      }
      clip.frames.push_back(std::move(frame));
    }
  }
  auto bytes = SerializeBatch(clips);
  ASSERT_TRUE(bytes.ok());
  auto parsed = ParseBatch(*bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[1].frames[2], clips[1].frames[2]);
}

TEST(BatchFormatTest, RejectsCorrupt) {
  std::vector<Clip> clips(1);
  clips[0].frames.emplace_back(2, 2, 1);
  auto bytes = SerializeBatch(clips);
  ASSERT_TRUE(bytes.ok());
  bytes->pop_back();
  EXPECT_FALSE(ParseBatchHeader(*bytes).ok());
  EXPECT_FALSE(SerializeBatch({}).ok());
}


// ---------------------------------------------------------------------------
// SubtreeExecutor: GOP-parallel materialization and memo trimming.

TEST(SubtreeExecutorTest, ParallelMaterializeFlaggedMatchesSerial) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  PlannerOptions planner;
  planner.k_epochs = 2;
  auto plan = BuildMaterializationPlan(*meta, tasks, 0, planner);
  ASSERT_TRUE(plan.ok());

  ContainerCache containers(store, 8);
  MaterializationScheduler scheduler(MaterializationScheduler::Options{});
  for (const VideoObjectGraph& graph : plan->videos) {
    auto serial_cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                                      std::make_shared<MemoryStore>(64ULL << 20));
    auto parallel_cache = std::make_shared<TieredCache>(
        std::make_shared<MemoryStore>(64ULL << 20), std::make_shared<MemoryStore>(64ULL << 20));
    SubtreeExecutor serial(graph, &containers, serial_cache.get(), nullptr);
    SubtreeExecutor parallel(graph, &containers, parallel_cache.get(), nullptr, &scheduler);
    ASSERT_TRUE(serial.MaterializeFlagged().ok());
    ASSERT_TRUE(parallel.MaterializeFlagged().ok());

    // Same persisted object set, byte for byte.
    for (const ConcreteNode& node : graph.nodes) {
      if (!node.cache || node.op.type == ConcreteOpType::kSource) {
        continue;
      }
      std::string key = NodeCacheKey(graph, node);
      auto want = serial_cache->GetShared(key);
      auto got = parallel_cache->GetShared(key);
      ASSERT_TRUE(want.ok()) << key;
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(**want, **got) << "node " << node.id;
    }
    // Deterministic accounting: the slice path books exactly what a cold
    // serial sweep books.
    ExecutorStats a = serial.stats();
    ExecutorStats b = parallel.stats();
    EXPECT_EQ(a.frames_decoded, b.frames_decoded);
    EXPECT_EQ(a.decode_ops, b.decode_ops);
    EXPECT_EQ(a.cache_stores, b.cache_stores);
    EXPECT_GT(b.parallel_slices, 1u) << "views span several GOPs";
  }
  scheduler.Shutdown();
}

TEST(SubtreeExecutorTest, TrimMemoEvictsOldestKeepsRecent) {
  auto store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SmallProfile(), meta->path, "train")};
  PlannerOptions planner;
  planner.k_epochs = 2;
  auto plan = BuildMaterializationPlan(*meta, tasks, 0, planner);
  ASSERT_TRUE(plan.ok());
  const VideoObjectGraph& graph = plan->videos[0];

  // Two decode nodes with distinct frames; no cache so re-producing an
  // evicted node must hit the decoder again (visible in decode_ops).
  std::vector<int> decode_nodes;
  for (const ConcreteNode& node : graph.nodes) {
    if (node.op.type == ConcreteOpType::kDecode) {
      decode_nodes.push_back(node.id);
    }
    if (decode_nodes.size() == 2) {
      break;
    }
  }
  ASSERT_EQ(decode_nodes.size(), 2u);
  ContainerCache containers(store, 8);
  SubtreeExecutor executor(graph, &containers, nullptr, nullptr);
  ASSERT_TRUE(executor.Produce(decode_nodes[0], false).ok());  // oldest
  ASSERT_TRUE(executor.Produce(decode_nodes[1], false).ok());  // newest
  EXPECT_EQ(executor.stats().decode_ops, 2u);

  executor.TrimMemo(1);  // must evict decode_nodes[0], keep decode_nodes[1]
  ASSERT_TRUE(executor.Produce(decode_nodes[1], false).ok());
  EXPECT_EQ(executor.stats().decode_ops, 2u) << "recent entry must survive the trim";
  ASSERT_TRUE(executor.Produce(decode_nodes[0], false).ok());
  EXPECT_EQ(executor.stats().decode_ops, 3u) << "oldest entry must have been evicted";
}

// ---------------------------------------------------------------------------
// Threads: the scheduler is the only pool a service starts.

// The calling process's threads: tid -> name, from /proc/self/task.
std::map<std::string, std::string> ProcessThreads() {
  std::map<std::string, std::string> threads;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(entry.path() / "comm");
    std::string name;
    std::getline(comm, name);
    threads[entry.path().filename().string()] = name;
  }
  return threads;
}

TEST(SandServiceThreadsTest, StartsExactlyNumThreadsNamedAndJoinsThem) {
  auto dataset_store = std::make_shared<MemoryStore>();
  auto meta = BuildSyntheticDataset(*dataset_store, SmallDataset());
  ASSERT_TRUE(meta.ok());
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                             std::make_shared<MemoryStore>(256ULL << 20));
  const ServiceOptions options;
  const auto before = ProcessThreads();
  auto service = std::make_unique<SandService>(
      dataset_store, *meta, cache,
      std::vector<TaskConfig>{MakeTaskConfig(SmallProfile(), meta->path, "train")}, options);
  ASSERT_TRUE(service->Start().ok());
  const auto running = ProcessThreads();
  EXPECT_EQ(running.size(), before.size() + static_cast<size_t>(options.num_threads));
  for (const auto& [tid, name] : running) {
    if (before.count(tid) == 0) {
      EXPECT_EQ(name.rfind("sand-", 0), 0u) << "thread " << tid << " is named '" << name << "'";
    }
  }
  service->Shutdown();
  EXPECT_EQ(ProcessThreads().size(), before.size()) << "Shutdown must join every worker";
}

}  // namespace
}  // namespace sand
