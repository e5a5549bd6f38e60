// Tests for the async demand path: the SandFs prefetcher (predicted hits,
// mispredict/session-close cancellation, admission control), OpenOptions,
// and end-to-end pipelined readahead through SandService.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/core/sand_service.h"
#include "src/vfs/prefetcher.h"
#include "src/vfs/sand_fs.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

// Provider with a controllable async path: in `manual` mode speculative
// materializations park on promises the test resolves by hand (simulating
// in-flight work); otherwise they resolve inline.
class AsyncFakeProvider : public ViewProvider {
 public:
  Result<SharedBytes> Materialize(const ViewPath& path) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++demand_calls;
    }
    return Serve(path);
  }

  Future<SharedBytes> MaterializeAsync(const ViewPath& path, bool speculative) override {
    if (!speculative) {
      return Future<SharedBytes>::FromResult(Materialize(path));
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++speculative_calls;
      if (manual) {
        pending.emplace_back(path, Promise<SharedBytes>());
        return pending.back().second.future();
      }
    }
    return Future<SharedBytes>::FromResult(Serve(path));
  }

  Result<std::string> GetMetadata(const ViewPath&, const std::string&) override {
    return NotFound("no xattrs");
  }
  Status OnSessionOpen(const std::string&) override { return Status::Ok(); }
  Status OnSessionClose(const std::string&) override { return Status::Ok(); }

  // Resolves every parked speculation against the object map.
  void ResolveAllPending() {
    std::vector<std::pair<ViewPath, Promise<SharedBytes>>> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      parked.swap(pending);
    }
    for (auto& [path, promise] : parked) {
      promise.Set(Serve(path));
    }
  }

  size_t PendingCount() {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending.size();
  }

  std::map<std::string, std::vector<uint8_t>> objects;
  bool manual = false;
  int demand_calls = 0;
  int speculative_calls = 0;
  std::vector<std::pair<ViewPath, Promise<SharedBytes>>> pending;

 private:
  Result<SharedBytes> Serve(const ViewPath& path) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = objects.find(path.Format());
    if (it == objects.end()) {
      return NotFound("no object " + path.Format());
    }
    return std::make_shared<const std::vector<uint8_t>>(it->second);
  }

  std::mutex mutex_;
};

std::string BatchPath(int64_t epoch, int64_t iter) {
  return StrFormat("/t/%lld/%lld/view", static_cast<long long>(epoch),
                   static_cast<long long>(iter));
}

// 2 epochs x 4 iterations of batch views for task "t".
void FillObjects(AsyncFakeProvider& provider) {
  for (int64_t epoch = 0; epoch < 2; ++epoch) {
    for (int64_t iter = 0; iter < 4; ++iter) {
      provider.objects[BatchPath(epoch, iter)] = {static_cast<uint8_t>(epoch),
                                                  static_cast<uint8_t>(iter), 7};
    }
  }
}

Result<SharedBytes> ReadView(SandFs& fs, const std::string& path, OpenOptions options = {}) {
  auto fd = fs.Open(path, options);
  if (!fd.ok()) {
    return fd.status();
  }
  auto bytes = fs.ReadAllShared(*fd);
  Status close = fs.Close(*fd);
  if (bytes.ok() && !close.ok()) {
    return close;
  }
  return bytes;
}

TEST(PrefetcherTest, PredictedAccessServedFromSpeculation) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  PrefetchOptions options;
  options.window = 2;
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  // First access is a demand miss; it triggers speculation of iters 1, 2.
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.issued, 2u);
  EXPECT_EQ(provider.speculative_calls, 2);
  EXPECT_EQ(provider.demand_calls, 1);

  // The predicted accesses hit completed speculations: no new demand work.
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 1)).ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 2)).ok());
  stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u) << "only the stream-starting access misses";
  EXPECT_EQ(provider.demand_calls, 1) << "hits must not re-materialize";
  ASSERT_TRUE(fs.Close(*session).ok());
}

TEST(PrefetcherTest, LearnsEpochLengthAndWrapsPrediction) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  PrefetchOptions options;
  options.window = 2;
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  // Walk to the end of epoch 0: speculating past iter 3 fails NotFound,
  // teaching the prefetcher ipe=4.
  for (int64_t iter = 0; iter < 4; ++iter) {
    ASSERT_TRUE(ReadView(fs, BatchPath(0, iter)).ok());
  }
  // The epoch boundary misprediction was counted as waste, and later
  // predictions wrap into epoch 1.
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_GE(stats.wasted, 1u);
  ASSERT_TRUE(ReadView(fs, BatchPath(1, 0)).ok());
  stats = fs.prefetcher().stats();
  EXPECT_GE(stats.hits, 1u) << "epoch-wrap prediction should cover /t/1/0/view";
  ASSERT_TRUE(fs.Close(*session).ok());
}

TEST(PrefetcherTest, MispredictedInflightSpeculationCancelledOnClose) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  provider.manual = true;  // speculations stay in flight until resolved
  PrefetchOptions options;
  options.window = 2;
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  EXPECT_EQ(fs.prefetcher().InFlight(), 2u);

  // The trainer never consumes the predictions; the session closes while
  // both speculations are still in flight.
  ASSERT_TRUE(fs.Close(*session).ok());
  provider.ResolveAllPending();  // late results arrive with a stale generation
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(fs.prefetcher().InFlight(), 0u);

  // A new session must not see the cancelled generation's results.
  auto session2 = fs.Open("/t");
  ASSERT_TRUE(session2.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 1)).ok());
  EXPECT_EQ(fs.prefetcher().stats().hits, 0u);
  ASSERT_TRUE(fs.Close(*session2).ok());
}

TEST(PrefetcherTest, SessionCloseDropsCompletedSpeculations) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  PrefetchOptions options;
  options.window = 2;
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  ASSERT_TRUE(fs.Close(*session).ok());
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.cancelled, 2u) << "completed-but-unconsumed results die with the session";
}

TEST(PrefetcherTest, InflightBudgetCapsSpeculation) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  provider.manual = true;
  PrefetchOptions options;
  options.window = 3;  // wants 3 speculations...
  options.max_inflight = 2;  // ...but only 2 may fly
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  EXPECT_EQ(fs.prefetcher().InFlight(), 2u);
  EXPECT_EQ(provider.PendingCount(), 2u);
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.issued, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  ASSERT_TRUE(fs.Close(*session).ok());
  provider.ResolveAllPending();
}

TEST(PrefetcherTest, ByteBudgetRejectsSpeculation) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  PrefetchOptions options;
  options.window = 2;
  options.budget_bytes = 1;  // below even the first estimate
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.issued, 0u);
  EXPECT_EQ(stats.rejected, 2u);
  ASSERT_TRUE(fs.Close(*session).ok());
}

TEST(PrefetcherTest, PerSessionWindowOverridesDefault) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  PrefetchOptions options;
  options.window = 2;
  SandFs fs(&provider, options);

  OpenOptions session_options;
  session_options.prefetch_window = 0;  // this task opts out
  auto session = fs.Open("/t", session_options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.issued, 0u);
  EXPECT_EQ(stats.misses, 0u) << "window 0 must not count misses either";
  ASSERT_TRUE(fs.Close(*session).ok());
}

TEST(SandFsAsyncTest, NonblockOpenPollsToCompletion) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  // No prefetching: exercise the pure nonblock demand path. The fake's
  // demand path resolves inline, so Ready() is immediately true; the
  // in-flight branch is covered by the prefetcher tests above.
  SandFs fs(&provider);
  OpenOptions options;
  options.nonblock = true;
  auto fd = fs.Open(BatchPath(0, 0), options);
  ASSERT_TRUE(fd.ok());
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(**bytes, (std::vector<uint8_t>{0, 0, 7}));
  ASSERT_TRUE(fs.Close(*fd).ok());
}

TEST(SandFsAsyncTest, NonblockReturnsUnavailableWhileInFlight) {
  AsyncFakeProvider provider;
  FillObjects(provider);
  provider.manual = true;
  PrefetchOptions options;
  options.window = 1;
  SandFs fs(&provider, options);

  auto session = fs.Open("/t");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(ReadView(fs, BatchPath(0, 0)).ok());  // speculates iter 1 (parked)
  ASSERT_EQ(fs.prefetcher().InFlight(), 1u);

  OpenOptions open_options;
  open_options.nonblock = true;
  auto fd = fs.Open(BatchPath(0, 1), open_options);
  ASSERT_TRUE(fd.ok());
  auto bytes = fs.ReadAllShared(*fd);
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), ErrorCode::kUnavailable);

  provider.ResolveAllPending();
  bytes = fs.ReadAllShared(*fd);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(**bytes, (std::vector<uint8_t>{0, 1, 7}));
  EXPECT_EQ(fs.prefetcher().stats().hits_inflight, 1u);
  ASSERT_TRUE(fs.Close(*fd).ok());
  ASSERT_TRUE(fs.Close(*session).ok());
}

// --- End-to-end: pipelined readahead through SandService --------------------

ServiceOptions DemandOptions() {
  ServiceOptions options;
  options.k_epochs = 2;
  options.total_epochs = 4;
  options.pre_materialize = false;  // pure demand pipeline: readahead matters
  options.num_threads = 2;
  options.storage_budget_bytes = 64ULL << 20;
  options.prefetch.window = 2;
  return options;
}

struct ServiceRig {
  std::shared_ptr<MemoryStore> dataset_store;
  DatasetMeta meta;
  std::shared_ptr<TieredCache> cache;
  std::unique_ptr<SandService> service;
};

ServiceRig MakeServiceRig(ServiceOptions options, int gop_size = 4) {
  ServiceRig rig;
  rig.dataset_store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 4;
  dataset.frames_per_video = 24;
  dataset.height = 24;
  dataset.width = 32;
  dataset.gop_size = gop_size;
  dataset.seed = 77;
  auto meta = BuildSyntheticDataset(*rig.dataset_store, dataset);
  EXPECT_TRUE(meta.ok()) << meta.status().ToString();
  rig.meta = meta.TakeValue();
  rig.cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(64ULL << 20),
                                            std::make_shared<MemoryStore>(256ULL << 20));
  ModelProfile profile;
  profile.videos_per_batch = 2;
  profile.frames_per_video = 3;
  profile.frame_stride = 2;
  profile.resize_h = 20;
  profile.resize_w = 28;
  profile.crop_h = 16;
  profile.crop_w = 16;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(profile, rig.meta.path, "train")};
  rig.service = std::make_unique<SandService>(rig.dataset_store, rig.meta, rig.cache,
                                              std::move(tasks), options);
  EXPECT_TRUE(rig.service->Start().ok());
  return rig;
}

TEST(ServicePrefetchTest, ReadaheadServesTrainingLoop) {
  ServiceRig rig = MakeServiceRig(DemandOptions());
  SandFs& fs = rig.service->fs();
  auto session = fs.Open("/train");
  ASSERT_TRUE(session.ok());
  for (int64_t epoch = 0; epoch < 2; ++epoch) {
    for (int64_t iter = 0; iter < 2; ++iter) {
      std::string path = StrFormat("/train/%lld/%lld/view", static_cast<long long>(epoch),
                                   static_cast<long long>(iter));
      auto bytes = ReadView(fs, path);
      ASSERT_TRUE(bytes.ok()) << path << ": " << bytes.status().ToString();
      EXPECT_GT((*bytes)->size(), 0u);
    }
  }
  ASSERT_TRUE(fs.Close(*session).ok());
  rig.service->WaitForBackgroundWork();

  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_GT(stats.issued, 0u);
  EXPECT_GT(stats.hits + stats.hits_inflight, 0u)
      << "steady-state reads should ride speculation";
  ServiceStats service_stats = rig.service->stats();
  EXPECT_GT(service_stats.speculative_batches, 0u);
  EXPECT_GT(service_stats.async_units, 0u);
  EXPECT_GT(rig.service->scheduler_stats().speculative_pops, 0u);
  rig.service->Shutdown();
  // All speculative pins were released (consumed or cancelled at close).
  PrefetchStats final_stats = fs.prefetcher().stats();
  EXPECT_EQ(final_stats.hits + final_stats.hits_inflight + final_stats.wasted +
                final_stats.cancelled + fs.prefetcher().InFlight() >= final_stats.issued,
            true);
}

TEST(ServicePrefetchTest, PrefetchedBatchesMatchDemandBatches) {
  ServiceOptions with = DemandOptions();
  ServiceOptions without = DemandOptions();
  without.prefetch.window = 0;
  ServiceRig rig_with = MakeServiceRig(with);
  ServiceRig rig_without = MakeServiceRig(without);
  auto session = rig_with.service->fs().Open("/train");
  ASSERT_TRUE(session.ok());
  for (int64_t iter = 0; iter < 2; ++iter) {
    std::string path = StrFormat("/train/0/%lld/view", static_cast<long long>(iter));
    auto a = ReadView(rig_with.service->fs(), path);
    auto b = ReadView(rig_without.service->fs(), path);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(**a, **b) << "speculation must not change batch contents";
  }
  ASSERT_TRUE(rig_with.service->fs().Close(*session).ok());
}

TEST(ServicePrefetchTest, WindowZeroKeepsDemandPathIdentical) {
  ServiceOptions options = DemandOptions();
  options.prefetch.window = 0;
  ServiceRig rig = MakeServiceRig(options);
  SandFs& fs = rig.service->fs();
  auto session = fs.Open("/train");
  ASSERT_TRUE(session.ok());
  for (int64_t iter = 0; iter < 2; ++iter) {
    std::string path = StrFormat("/train/0/%lld/view", static_cast<long long>(iter));
    ASSERT_TRUE(ReadView(fs, path).ok());
  }
  ASSERT_TRUE(fs.Close(*session).ok());
  PrefetchStats stats = fs.prefetcher().stats();
  EXPECT_EQ(stats.issued, 0u);
  EXPECT_EQ(stats.misses, 0u);
  ServiceStats service_stats = rig.service->stats();
  EXPECT_EQ(service_stats.speculative_batches, 0u);
  EXPECT_EQ(service_stats.batches_served, 2u);
}

// One pool, every blocking path at once: demand MaterializeAsync units and
// readahead race background pre-materialization on a single worker with a
// tenant cap of 1 (all in-process work is tenant 0), and views span several
// GOPs, so batch jobs and GOP-slice subtasks all block in the scheduler's
// join. Nothing may hang, and every batch must match a demand-only service
// built from the same plan seed.
TEST(ServicePrefetchTest, OneWorkerJoinNeverDeadlocks) {
  constexpr int kGop = 2;
  ServiceOptions reference_options = DemandOptions();
  reference_options.prefetch.window = 0;
  ServiceRig reference = MakeServiceRig(reference_options, kGop);
  std::vector<std::string> views;
  std::map<std::string, std::vector<uint8_t>> want;
  for (int64_t epoch = 0; epoch < reference_options.total_epochs; ++epoch) {
    auto iterations = reference.service->ListChildren(StrFormat("/train/%lld",
                                                                static_cast<long long>(epoch)));
    ASSERT_TRUE(iterations.ok());
    for (const std::string& iteration : *iterations) {
      views.push_back(StrFormat("/train/%lld/%s/view", static_cast<long long>(epoch),
                                iteration.c_str()));
      auto bytes = ReadView(reference.service->fs(), views.back());
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      want[views.back()] = **bytes;
    }
  }

  ServiceOptions options = DemandOptions();
  options.pre_materialize = true;
  options.num_threads = 1;
  options.prefetch.window = 2;
  ServiceRig rig = MakeServiceRig(options, kGop);
  rig.service->SetTenantRunningCap(0, 1);

  // The watchdog turns a hang into a failure of this test.
  std::mutex mutex;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, std::chrono::seconds(60), [&] { return finished; })) {
      std::fprintf(stderr, "OneWorkerJoinNeverDeadlocks: no finish in 60 s, the pool hung\n");
      std::abort();
    }
  });

  SandFs& fs = rig.service->fs();
  std::thread reader([&] {
    auto session = fs.Open("/train");
    ASSERT_TRUE(session.ok());
    for (const std::string& view : views) {
      auto bytes = ReadView(fs, view);
      ASSERT_TRUE(bytes.ok()) << view << ": " << bytes.status().ToString();
      EXPECT_EQ(**bytes, want[view]) << view;
    }
    ASSERT_TRUE(fs.Close(*session).ok());
  });
  std::thread demand([&] {
    std::vector<std::pair<std::string, Future<SharedBytes>>> pending;
    for (auto it = views.rbegin(); it != views.rend(); ++it) {
      auto view = ViewPath::Parse(*it);
      ASSERT_TRUE(view.ok());
      pending.emplace_back(*it, rig.service->MaterializeAsync(*view, /*speculative=*/false));
    }
    for (auto& [view, future] : pending) {
      auto bytes = future.Get();
      ASSERT_TRUE(bytes.ok()) << view << ": " << bytes.status().ToString();
      EXPECT_EQ(**bytes, want[view]) << view;
    }
  });
  reader.join();
  demand.join();
  rig.service->WaitForBackgroundWork();
  ServiceStats stats = rig.service->stats();
  rig.service->Shutdown();
  {
    std::lock_guard<std::mutex> lock(mutex);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
  EXPECT_GT(stats.async_units, 0u);
  EXPECT_GT(stats.exec.parallel_slices, 0u) << "views must span several GOPs";
}

}  // namespace
}  // namespace sand
