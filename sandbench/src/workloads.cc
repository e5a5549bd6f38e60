#include "sandbench/src/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "sandbench/src/spans.h"
#include "sandbench/src/stats.h"
#include "src/codec/video_codec.h"
#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/graph/view.h"
#include "src/net/sand_client.h"
#include "src/net/sand_server.h"
#include "src/pruning/graph_pruning.h"
#include "src/tensor/image_ops.h"

namespace sandbench {

using namespace sand;

namespace {

constexpr int kSetups = 3;              // set-ups per run; setup_s is their median
constexpr int kMaxAttempts = 50;        // refusals absorbed per op before it counts as failed
constexpr size_t kClientWindow = 8;     // requests each socket client keeps in flight
constexpr int64_t kTotalEpochs = 1 << 20;  // never reached: rounds deliver a few chunks

// --- Workload shapes -------------------------------------------------------

struct Spec {
  std::vector<ModelProfile> profiles;  // one task (and one load thread) each
  std::vector<std::string> tags;
  int k_epochs = 4;
  // Measured work per round after the warm-up chunk: chunks of batches per
  // trainer, or passes over the served chunk's views per socket client.
  int64_t chunks_per_round = 4;
  int segments_per_round = 8;  // must divide the round's ops
  bool pre_materialize = true;
  int prefetch_window = 0;
  double budget_share = 0;  // budget = share x chunk 0's cached bytes (all leaves)
  bool tiered = false;        // memory tier holds a quarter of the budget
  bool compression = false;
  bool serve = false;
};

ModelProfile PipelineBound(ModelProfile profile) {
  profile.gpu_step = 0;
  return profile;
}

bool SpecFor(const std::string& name, Spec& spec) {
  const ModelProfile slowfast = PipelineBound(SlowFastProfile());
  if (name == "train_pipeline") {
    spec.profiles = {slowfast};
    spec.tags = {"slowfast"};
  } else if (name == "budget_multitask") {
    // The Fig. 17 pair on one dataset, with a budget that forces pruning,
    // eviction and compressed demotion.
    spec.profiles = {slowfast, PipelineBound(MaeProfile())};
    spec.tags = {"slowfast", "mae"};
    spec.chunks_per_round = 1;
    spec.segments_per_round = 4;
    spec.budget_share = 0.45;
    spec.tiered = true;
    spec.compression = true;
  } else if (name == "demand_readahead") {
    spec.profiles = {slowfast};
    spec.tags = {"slowfast"};
    spec.chunks_per_round = 6;
    spec.segments_per_round = 12;
    spec.pre_materialize = false;
    spec.prefetch_window = 2;
  } else if (name == "serve_socket") {
    spec.profiles = {slowfast, slowfast};
    spec.tags = {"alpha", "beta"};  // task tag == tenant tag
    spec.chunks_per_round = 80;
    spec.segments_per_round = 8;
    spec.serve = true;
  } else {
    return false;
  }
  if (spec.budget_share == 0) {
    // Holds the whole plan of a round: the warm-up chunk, the measured
    // chunks and the next one planned ahead, under the eviction watermark.
    spec.budget_share =
        static_cast<double>(spec.chunks_per_round + 2) / ServiceOptions{}.evict_watermark;
  }
  return true;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Everything generated from the seed; the program only sees these inputs.
struct World {
  Spec spec;
  uint64_t seed = 0;
  BenchEnv env;
  std::vector<TaskConfig> tasks;
  std::vector<int64_t> iterations_per_epoch;  // per task
  ServiceOptions options;
  uint64_t memory_bytes = 0;
  uint64_t disk_bytes = 0;
};

World MakeWorld(const Spec& spec, uint64_t seed) {
  World world;
  world.spec = spec;
  world.seed = seed;
  world.env = MakeBenchEnv(/*videos=*/48, /*frames=*/48, /*height=*/64, /*width=*/96,
                           /*gop=*/8, seed);
  for (size_t t = 0; t < spec.profiles.size(); ++t) {
    world.tasks.push_back(MakeTaskConfig(spec.profiles[t], world.env.meta.path, spec.tags[t]));
  }
  PlannerOptions planner;
  planner.k_epochs = spec.k_epochs;
  planner.seed = seed;
  Result<MaterializationPlan> plan =
      BuildMaterializationPlan(world.env.meta, world.tasks, 0, planner);
  if (!plan.ok()) {
    std::fprintf(stderr, "sandbench: plan: %s\n", plan.status().ToString().c_str());
    std::exit(1);
  }
  plan->ResetCacheFlagsToLeaves();
  for (size_t t = 0; t < world.tasks.size(); ++t) {
    world.iterations_per_epoch.push_back(plan->IterationsPerEpoch(static_cast<int>(t)));
  }
  const uint64_t budget =
      static_cast<uint64_t>(spec.budget_share * static_cast<double>(plan->CachedBytes()));
  ServiceOptions& options = world.options;
  options.k_epochs = spec.k_epochs;
  options.total_epochs = spec.serve ? spec.k_epochs : kTotalEpochs;
  options.seed = seed;
  options.num_threads = kBenchCpuThreads;
  options.pre_materialize = spec.pre_materialize;
  options.prefetch.window = spec.prefetch_window;
  options.storage_budget_bytes = budget;
  options.compression.enabled = spec.compression;
  world.memory_bytes = spec.tiered ? budget / 4 : budget;
  world.disk_bytes = budget;
  return world;
}

// Batch views whose delivered bytes are CRC-checked: one per chunk per
// task for the trainers (never a chunk's first epoch, whose first batch
// starts the next chunk's planning), two per task on the single chunk the
// socket clients cycle over.
void SampleViews(const World& world, CrcBook& book) {
  const int k = world.spec.k_epochs;
  for (size_t t = 0; t < world.tasks.size(); ++t) {
    const int64_t ipe = world.iterations_per_epoch[t];
    const int64_t chunks = world.spec.serve ? 2 : 1 + world.spec.chunks_per_round;
    for (int64_t c = 0; c < chunks; ++c) {
      uint64_t h = SplitMix(world.seed ^ SplitMix(t * 1000003 + static_cast<uint64_t>(c)));
      int64_t chunk = world.spec.serve ? 0 : c;
      int64_t epoch = chunk * k + 1 + static_cast<int64_t>(h % static_cast<uint64_t>(k - 1));
      int64_t iteration = static_cast<int64_t>((h >> 32) % static_cast<uint64_t>(ipe));
      book.AddToSample(ViewPath::Batch(world.tasks[t].tag, epoch, iteration).Format());
    }
  }
}

// --- Load ------------------------------------------------------------------

struct Load {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> errors{0};     // ops that failed with a non-retryable status
  std::atomic<uint64_t> exhausted{0};  // ops refused kMaxAttempts times
  std::atomic<uint64_t> refused{0};    // RESOURCE_EXHAUSTED replies absorbed by a retry
  std::atomic<uint64_t> bytes{0};      // batch bytes received
  std::atomic<int> running{0};         // load threads still working
};

void NoteError(const char* what, const Status& status) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "sandbench: %s: %s\n", what, status.ToString().c_str());
  }
}

// The Fig. 6 loop a training job runs against SandFs: open -> read ->
// close on each batch view, inside a task session. This is SandBatchSource
// without its one-deep std::async lookahead, which with a zero GPU step
// only adds a thread per batch; here the benchmark can span each verb.
class FsBatchSource : public BatchSource {
 public:
  FsBatchSource(SandFs& fs, std::string task, int64_t iterations_per_epoch)
      : fs_(fs), task_(std::move(task)), iterations_per_epoch_(iterations_per_epoch) {
    Result<int> fd = fs_.Open("/" + task_);
    if (fd.ok()) session_fd_ = *fd;
  }
  ~FsBatchSource() override { Finish(); }
  FsBatchSource(const FsBatchSource&) = delete;
  FsBatchSource& operator=(const FsBatchSource&) = delete;

  Result<SharedBytes> NextBatch(int64_t epoch, int64_t iteration) override {
    ScopedSpan read_span("vfs.read");
    std::string path = ViewPath::Batch(task_, epoch, iteration).Format();
    Result<int> fd = [&] {
      ScopedSpan span("vfs.open");
      return fs_.Open(path);
    }();
    if (!fd.ok()) return fd.status();
    Result<SharedBytes> bytes = [&] {
      ScopedSpan span("vfs.read_all_shared");
      return fs_.ReadAllShared(*fd);
    }();
    Status close_status;
    {
      ScopedSpan span("vfs.close");
      close_status = fs_.Close(*fd);
    }
    if (!bytes.ok()) return bytes.status();
    if (!close_status.ok()) return close_status;
    return bytes;
  }
  int64_t IterationsPerEpoch() const override { return iterations_per_epoch_; }
  void Finish() override {
    if (session_fd_ >= 0) {
      (void)fs_.Close(session_fd_);
      session_fd_ = -1;
    }
  }

 private:
  SandFs& fs_;
  std::string task_;
  int64_t iterations_per_epoch_;
  int session_fd_ = -1;
};

struct Trainer {
  std::string tag;
  uint64_t plan_seed = 0;
  ModelProfile profile;
  int64_t iterations_per_epoch = 0;
  std::unique_ptr<FsBatchSource> source;
  GpuModel gpu;
  int64_t next = 0;  // global iteration of the next batch
  std::vector<double> latency_ms;
};

// Closed loop: fetch a batch, train on it (a zero-length step), repeat.
void RunTrainer(Trainer& trainer, int64_t max_batches, Load& load, CrcBook& book) {
  for (int64_t n = 0; n < max_batches && !load.stop.load(); ++n, ++trainer.next) {
    const int64_t epoch = trainer.next / trainer.iterations_per_epoch;
    const int64_t iteration = trainer.next % trainer.iterations_per_epoch;
    load.attempted.fetch_add(1);
    const int64_t start = NowNs();
    Result<SharedBytes> batch = [&] {
      ScopedSpan span("trainer.next_batch");
      return trainer.source->NextBatch(epoch, iteration);
    }();
    const int64_t end = NowNs();
    if (!batch.ok()) {
      NoteError("NextBatch", batch.status());
      load.errors.fetch_add(1);
      continue;
    }
    trainer.gpu.TrainStep(trainer.profile.gpu_step);
    book.Observe(trainer.plan_seed, ViewPath::Batch(trainer.tag, epoch, iteration).Format(),
                 **batch);
    trainer.latency_ms.push_back(static_cast<double>(end - start) / 1e6);
    load.bytes.fetch_add((*batch)->size());
    load.batches.fetch_add(1);
  }
}

struct Client {
  std::string tag;
  uint64_t plan_seed = 0;
  int64_t iterations_per_epoch = 0;
  int64_t views = 0;  // batch views in the served chunk
  std::unique_ptr<net::SandClient> client;
  int64_t next = 0;
  std::vector<double> latency_ms;
};

struct ClientOp {
  std::string view;
  int64_t start_ns = 0;  // first Open issue
  int64_t read_start_ns = 0;
  int attempts = 0;
  int fd = -1;
  Future<SharedBytes> read;
};

void Backoff(int attempt) {
  std::this_thread::sleep_for(std::chrono::microseconds(100 * std::min(attempt, 20)));
}

// Opens the op's view (retrying refusals) and issues its async read.
bool IssueOp(Client& client, ClientOp& op, Load& load) {
  for (;;) {
    Result<int> fd = [&] {
      ScopedSpan span("net.open");
      return client.client->Open(op.view);
    }();
    if (fd.ok()) {
      op.fd = *fd;
      op.read_start_ns = NowNs();
      op.read = client.client->ReadAllSharedAsync(*fd);
      return true;
    }
    if (fd.status().code() == ErrorCode::kResourceExhausted && ++op.attempts < kMaxAttempts) {
      load.refused.fetch_add(1);
      Backoff(op.attempts);
      continue;
    }
    NoteError("Open", fd.status());
    (fd.status().code() == ErrorCode::kResourceExhausted ? load.exhausted : load.errors)
        .fetch_add(1);
    return false;
  }
}

// Closed loop with a window: keeps kClientWindow Open -> ReadAllSharedAsync
// -> Close requests in flight, completing them in issue order.
void RunClient(Client& client, int64_t max_ops, Load& load, CrcBook& book) {
  std::deque<ClientOp> window;
  int64_t issued = 0;
  for (;;) {
    while (window.size() < kClientWindow && issued < max_ops && !load.stop.load()) {
      ClientOp op;
      const int64_t slot = client.next++ % client.views;
      op.view = ViewPath::Batch(client.tag, slot / client.iterations_per_epoch,
                                slot % client.iterations_per_epoch)
                    .Format();
      op.start_ns = NowNs();
      ++issued;
      load.attempted.fetch_add(1);
      if (IssueOp(client, op, load)) window.push_back(std::move(op));
    }
    if (window.empty()) break;
    ClientOp op = std::move(window.front());
    window.pop_front();
    Result<SharedBytes> bytes = op.read.Get();
    const int64_t done = NowNs();
    RecordInterval("net.read", op.read_start_ns, done);
    Status close_status;
    {
      ScopedSpan span("net.close");
      close_status = client.client->Close(op.fd);
    }
    if (bytes.ok() && close_status.ok()) {
      client.latency_ms.push_back(static_cast<double>(done - op.start_ns) / 1e6);
      book.Observe(client.plan_seed, op.view, **bytes);
      load.bytes.fetch_add((*bytes)->size());
      load.batches.fetch_add(1);
      continue;
    }
    const Status& status = bytes.ok() ? close_status : bytes.status();
    if (status.code() == ErrorCode::kResourceExhausted && ++op.attempts < kMaxAttempts) {
      load.refused.fetch_add(1);
      Backoff(op.attempts);
      if (IssueOp(client, op, load)) window.push_back(std::move(op));
      continue;
    }
    NoteError("ReadAllShared", status);
    (status.code() == ErrorCode::kResourceExhausted ? load.exhausted : load.errors).fetch_add(1);
  }
}

// --- One set-up of a workload ---------------------------------------------

class Deployment {
 public:
  explicit Deployment(const World& world) : world_(world) {}
  ~Deployment() {
    trainers_.clear();  // closes the task sessions
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    if (service_ != nullptr) service_->Shutdown();
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Service construction, Start, and (serve_socket) the pre-materialization
  // the clients wait for plus the socket front-end.
  bool Start(int index, const std::string& socket_dir) {
    cache_ = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(world_.memory_bytes),
                                           std::make_shared<MemoryStore>(world_.disk_bytes));
    service_ = std::make_unique<SandService>(world_.env.dataset_store, world_.env.meta, cache_,
                                             world_.tasks, world_.options);
    Status status;
    {
      ScopedSpan span("core.start");
      status = service_->Start();
    }
    if (!status.ok()) {
      std::fprintf(stderr, "sandbench: Start: %s\n", status.ToString().c_str());
      return false;
    }
    if (!world_.spec.serve) {
      for (size_t t = 0; t < world_.tasks.size(); ++t) {
        auto trainer = std::make_unique<Trainer>();
        trainer->tag = world_.tasks[t].tag;
        trainer->plan_seed = world_.options.seed;
        trainer->profile = world_.spec.profiles[t];
        trainer->iterations_per_epoch = world_.iterations_per_epoch[t];
        trainer->source = std::make_unique<FsBatchSource>(service_->fs(), trainer->tag,
                                                          trainer->iterations_per_epoch);
        trainers_.push_back(std::move(trainer));
      }
      return true;
    }
    service_->WaitForBackgroundWork();
    socket_path_ = socket_dir + "/serve-" + std::to_string(::getpid()) + "-" +
                   std::to_string(index) + ".sock";
    ::unlink(socket_path_.c_str());
    net::SandServer::Options server_options;
    server_options.unix_path = socket_path_;
    SandService* service = service_.get();
    server_options.sched_cap_hook = [service](uint32_t tenant_id, int cap) {
      service->SetTenantRunningCap(tenant_id, cap);
    };
    server_ = std::make_unique<net::SandServer>(&service_->fs(), server_options);
    if (Status listen = server_->Start(); !listen.ok()) {
      std::fprintf(stderr, "sandbench: listen: %s\n", listen.ToString().c_str());
      return false;
    }
    for (size_t t = 0; t < world_.tasks.size(); ++t) {
      auto client = std::make_unique<Client>();
      client->tag = world_.tasks[t].tag;
      client->plan_seed = world_.options.seed;
      client->iterations_per_epoch = world_.iterations_per_epoch[t];
      client->views = client->iterations_per_epoch * world_.spec.k_epochs;
      net::SandClient::Options client_options;
      client_options.unix_path = socket_path_;
      client_options.tenant = client->tag;
      Result<std::unique_ptr<net::SandClient>> connected =
          net::SandClient::Connect(client_options);
      if (!connected.ok()) {
        std::fprintf(stderr, "sandbench: connect: %s\n", connected.status().ToString().c_str());
        return false;
      }
      client->client = connected.TakeValue();
      clients_.push_back(std::move(client));
    }
    return true;
  }

  // Starts every load thread on `chunks` chunks' worth of ops: a trainer's
  // next `chunks` x k epochs of batches, or a client's `chunks` passes over
  // the served chunk's batch views.
  std::vector<std::thread> StartLoad(int64_t chunks, Load& load, CrcBook& book) {
    std::vector<std::thread> threads;
    load.running.store(static_cast<int>(trainers_.size() + clients_.size()));
    for (size_t t = 0; t < trainers_.size(); ++t) {
      Trainer* trainer = trainers_[t].get();
      int64_t ops = chunks * world_.iterations_per_epoch[t] * world_.spec.k_epochs;
      threads.emplace_back([trainer, ops, &load, &book] {
        RunTrainer(*trainer, ops, load, book);
        load.running.fetch_sub(1);
      });
    }
    for (size_t t = 0; t < clients_.size(); ++t) {
      Client* client = clients_[t].get();
      int64_t ops = chunks * client->views;
      threads.emplace_back([client, ops, &load, &book] {
        RunClient(*client, ops, load, book);
        load.running.fetch_sub(1);
      });
    }
    return threads;
  }

  // Ops the load threads do in `chunks` chunks.
  uint64_t OpsPerRound(int64_t chunks) const {
    uint64_t ops = 0;
    for (size_t t = 0; t < trainers_.size() + clients_.size(); ++t) {
      ops += static_cast<uint64_t>(chunks * world_.iterations_per_epoch[t] * world_.spec.k_epochs);
    }
    return ops;
  }

  // Chunks each load thread has delivered in full.
  std::vector<int64_t> ChunksDelivered() const {
    std::vector<int64_t> out;
    for (const auto& trainer : trainers_) {
      out.push_back(trainer->next / (trainer->iterations_per_epoch * world_.spec.k_epochs));
    }
    for (const auto& client : clients_) out.push_back(client->next / client->views);
    return out;
  }

  // Latency samples of every load thread since the last call.
  std::vector<double> TakeLatencies() {
    std::vector<double> out;
    for (auto& trainer : trainers_) {
      out.insert(out.end(), trainer->latency_ms.begin(), trainer->latency_ms.end());
      trainer->latency_ms.clear();
    }
    for (auto& client : clients_) {
      out.insert(out.end(), client->latency_ms.begin(), client->latency_ms.end());
      client->latency_ms.clear();
    }
    return out;
  }

 private:
  const World& world_;
  std::shared_ptr<TieredCache> cache_;
  std::unique_ptr<SandService> service_;
  std::unique_ptr<net::SandServer> server_;
  std::string socket_path_;
  std::vector<std::unique_ptr<Trainer>> trainers_;
  std::vector<std::unique_ptr<Client>> clients_;
};

void JoinAll(std::vector<std::thread>& threads) {
  for (std::thread& thread : threads) thread.join();
  threads.clear();
}

// --- Measurement helpers ---------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double SecondsSince(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// Median wall time of `fn` in ms over `reps` calls.
double MedianMs(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    int64_t start = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Quantile(samples, 0.5);
}

const std::vector<std::string> kCounters = {
    "sand.cache.demotions",         "sand.cache.disk.hits",
    "sand.cache.memory.hits",       "sand.cache.misses",
    "sand.cache.promotions",        "sand.compress.compressed_bytes",
    "sand.compress.fallbacks",      "sand.compress.raw_bytes",
    "sand.container_cache.hits",    "sand.container_cache.misses",
    "sand.decode.frames_decoded",   "sand.decode.frames_requested",
    "sand.exec.aug_ops",            "sand.prefetch.hits",
    "sand.prefetch.hits_inflight",  "sand.prefetch.issued",
    "sand.prefetch.wasted",         "sand.sched.jobs_run",
    "sand.service.chunks_planned",  "sand.service.demand_materializations",
    "sand.service.evictions",       "sand.trace.dropped",
};
const std::vector<std::string> kHistograms = {
    "sand.compress.decode_ns",   "sand.compress.encode_ns",
    "sand.decode.frame_latency_ns", "sand.fs.materialize_wait_ns",
    "sand.sched.job_latency_ns", "sand.service.batch_assemble_ns",
};

// Largest values two gauges reach during a traced window.
class GaugeSampler {
 public:
  GaugeSampler()
      : queue_depth_(obs::Registry::Get().GetGauge("sand.sched.queue_depth")),
        memory_used_(obs::Registry::Get().GetGauge("sand.cache.memory.used_bytes")),
        thread_([this] {
          while (!stop_.load()) {
            queue_depth_max_ = std::max(queue_depth_max_, queue_depth_->Value());
            memory_used_max_ = std::max(memory_used_max_, memory_used_->Value());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  int64_t queue_depth_max() const { return queue_depth_max_; }
  int64_t memory_used_max() const { return memory_used_max_; }

 private:
  obs::Gauge* queue_depth_;
  obs::Gauge* memory_used_;
  std::atomic<bool> stop_{false};
  int64_t queue_depth_max_ = 0;  // written by thread_ only until Stop joins it
  int64_t memory_used_max_ = 0;
  std::thread thread_;  // last: starts after the members it reads
};

// Reference CRCs of the delivered (plan seed, view) pairs: for each plan
// seed, a demand-only service (no pre-materialization, pruning,
// compression or readahead) on the same inputs materializes the views.
std::map<CrcBook::Key, uint32_t> ReferenceCrcs(const World& world,
                                               const std::vector<CrcBook::Key>& keys) {
  std::map<uint64_t, std::vector<std::string>> views_by_seed;
  for (const auto& [plan_seed, view] : keys) views_by_seed[plan_seed].push_back(view);
  std::map<CrcBook::Key, uint32_t> out;
  for (const auto& [plan_seed, views] : views_by_seed) {
    ServiceOptions options = world.options;
    options.seed = plan_seed;
    options.pre_materialize = false;
    options.enable_pruning = false;
    options.compression = CompressionPolicy{};
    options.prefetch = PrefetchOptions{};
    options.storage_budget_bytes = 1ULL * kGiB;
    auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(1ULL * kGiB),
                                               std::make_shared<MemoryStore>(1ULL * kGiB));
    SandService service(world.env.dataset_store, world.env.meta, cache, world.tasks, options);
    if (Status status = service.Start(); !status.ok()) {
      std::fprintf(stderr, "sandbench: reference Start: %s\n", status.ToString().c_str());
      continue;
    }
    std::vector<int> sessions;
    for (const TaskConfig& task : world.tasks) {
      if (Result<int> fd = service.fs().Open("/" + task.tag); fd.ok()) sessions.push_back(*fd);
    }
    for (const std::string& view : views) {
      Result<int> fd = service.fs().Open(view);
      if (!fd.ok()) continue;
      Result<SharedBytes> bytes = service.fs().ReadAllShared(*fd);
      (void)service.fs().Close(*fd);
      if (bytes.ok()) out[{plan_seed, view}] = Crc32(**bytes);
    }
    for (int fd : sessions) (void)service.fs().Close(fd);
    service.Shutdown();
  }
  return out;
}

// The task's image_ops chain (resize -> crop -> flip [-> jitter]) applied
// directly to frames of the workload's own videos: microseconds per frame.
double AugmentUsPerFrame(const World& world, double* ops_per_frame) {
  std::vector<Frame> frames;
  const DatasetMeta& meta = world.env.meta;
  for (int v = 0; v < 8; ++v) {
    for (int t = 0; t < 4; ++t) {
      frames.push_back(SynthesizeFrame(VideoSeed(world.seed, v), t, meta.height, meta.width,
                                       meta.channels));
    }
  }
  double total_us = 0;
  double total_ops = 0;
  for (const ModelProfile& profile : world.spec.profiles) {
    Rng rng(world.seed);
    double ms = MedianMs(15, [&] {
      for (const Frame& frame : frames) {
        Result<Frame> resized = Resize(frame, profile.resize_h, profile.resize_w);
        if (!resized.ok()) continue;
        Result<Frame> cropped =
            Crop(*resized, (profile.resize_h - profile.crop_h) / 2,
                 (profile.resize_w - profile.crop_w) / 2, profile.crop_h, profile.crop_w);
        if (!cropped.ok()) continue;
        Frame out = FlipHorizontal(*cropped);
        if (profile.color_jitter) out = ColorJitter(out, rng, 20, 0.2);
      }
    });
    total_us += ms * 1e3 / static_cast<double>(frames.size());
    total_ops += profile.color_jitter ? 4 : 3;
  }
  const double n = static_cast<double>(world.spec.profiles.size());
  *ops_per_frame = total_ops / n;
  return total_us / n;
}

// StackBatch of one batch of the task's augmented frame shape (the copy
// batch assembly makes): microseconds per batch, averaged over the tasks.
double StackUsPerBatch(const World& world) {
  double total_us = 0;
  for (const ModelProfile& profile : world.spec.profiles) {
    std::vector<Clip> clips(static_cast<size_t>(profile.videos_per_batch));
    for (Clip& clip : clips) {
      for (int f = 0; f < profile.frames_per_video; ++f) {
        clip.frames.push_back(SynthesizeFrame(VideoSeed(world.seed, f), f, profile.crop_h,
                                              profile.crop_w, world.env.meta.channels));
        clip.frame_indices.push_back(f);
      }
    }
    total_us += MedianMs(25, [&] { (void)StackBatch(clips); }) * 1e3;
  }
  return total_us / static_cast<double>(world.spec.profiles.size());
}

// Sequential decode of every frame of a few of the workload's videos:
// microseconds per decoded frame.
double DecodeUsPerFrame(const World& world) {
  std::vector<SharedBytes> containers;
  for (int v = 0; v < 4 && v < world.env.meta.num_videos(); ++v) {
    Result<SharedBytes> bytes = world.env.dataset_store->GetShared(
        world.env.meta.path + "/" + world.env.meta.video_names[static_cast<size_t>(v)] + ".svc");
    if (bytes.ok()) containers.push_back(*bytes);
  }
  int64_t frames = 0;
  const double ms = MedianMs(5, [&] {
    frames = 0;
    for (const SharedBytes& container : containers) {
      Result<VideoDecoder> decoder = VideoDecoder::Open(container);
      if (!decoder.ok()) continue;
      for (int64_t i = 0; i < decoder->frame_count(); ++i) {
        frames += decoder->DecodeFrame(i).ok() ? 1 : 0;
      }
    }
  });
  return frames > 0 ? ms * 1e3 / static_cast<double>(frames) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"train_pipeline", "budget_multitask",
                                                 "demand_readahead", "serve_socket"};
  return names;
}

bool RunWorkload(const RunOptions& opts, Report& report) {
  Spec spec;
  if (!SpecFor(opts.workload, spec)) {
    std::fprintf(stderr, "sandbench: unknown workload '%s'\n", opts.workload.c_str());
    return false;
  }
  SetLogLevel(LogLevel::kWarning);
  const int64_t run_start = NowNs();

  // Inputs and the CRC sample: timed, not gated.
  const World world = MakeWorld(spec, opts.seed);
  CrcBook book;
  SampleViews(world, book);
  const double inputs_s = SecondsSince(run_start);

  // Rounds: set up (construct, Start, warm-up chunk), then measure a fixed
  // amount of work, then tear down. Every round does the same amount of
  // work, so a faster program runs more rounds rather than longer ones, and
  // state the service accumulates per chunk cannot grow with the window.
  // Each round plans with its own seed drawn from --seed, so one run
  // averages over several sets of random draws (sampled frames, crops,
  // flips) instead of repeating one. Rounds repeat until the measured time
  // reaches --seconds (at least kSetups of them).
  const int64_t give_up_ns = run_start + static_cast<int64_t>(120e9);
  std::vector<double> setup_s;
  Load warmup;
  Load load;
  double measured_s = 0;
  double cpu_s = 0;
  std::vector<double> latencies;     // every round's, pooled
  std::vector<double> round_p50_ms;
  std::vector<TailResult> round_tails;
  RegistryDelta delta;
  RegistryDelta first_round;
  std::vector<std::pair<int64_t, int64_t>> measured;  // [start, end) of each measured phase
  std::map<int, std::vector<double>> segment_s;      // traced run: round -> segment wall times
  std::vector<double> round_rates;                   // batches/s of each round
  std::vector<double> round_cpu_ms;                  // CPU ms per batch of each round
  int64_t queue_depth_max = 0;
  int64_t memory_used_max = 0;
  std::vector<int64_t> chunks_delivered(world.tasks.size(), 0);
  std::vector<uint64_t> round_seeds;
  int rounds = 0;
  SpanLog::Get().SetEnabled(opts.trace);
  while (rounds < kSetups || (measured_s < opts.seconds && NowNs() < give_up_ns)) {
    const int64_t setup_start = NowNs();
    World round_world = world;
    round_world.options.seed = SplitMix(SplitMix(opts.seed) + static_cast<uint64_t>(rounds));
    round_seeds.push_back(round_world.options.seed);
    Deployment deployment(round_world);
    if (!deployment.Start(rounds, opts.out_dir)) return false;
    std::vector<std::thread> threads = deployment.StartLoad(1, warmup, book);
    JoinAll(threads);
    setup_s.push_back(SecondsSince(setup_start));
    (void)deployment.TakeLatencies();

    std::unique_ptr<GaugeSampler> sampler;
    if (opts.trace) sampler = std::make_unique<GaugeSampler>();
    const RegistrySnapshot before = TakeSnapshot(kCounters, kHistograms);
    const uint64_t batches_before = load.batches.load();
    const double cpu_before = CpuSeconds();
    const int64_t start = NowNs();
    threads = deployment.StartLoad(spec.chunks_per_round, load, book);
    if (opts.trace) {
      // The measured phase is cut into segments of equal work. A segment
      // records spans when its round and position differ in parity, and
      // pairs with the same position in the next round: each pair compares
      // the same stretch of the workload with spans on and off.
      const uint64_t per_segment =
          deployment.OpsPerRound(spec.chunks_per_round) / spec.segments_per_round;
      for (int segment = 0; segment < spec.segments_per_round; ++segment) {
        SpanLog::Get().SetEnabled((rounds + segment) % 2 == 1);
        const uint64_t target = batches_before + per_segment * (segment + 1);
        const int64_t t0 = NowNs();
        while (load.batches.load() < target && load.running.load() > 0) {
          if (NowNs() > give_up_ns) load.stop.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (load.batches.load() < target) break;
        segment_s[rounds].push_back(SecondsSince(t0));
      }
    }
    // The main thread wakes rarely, to stay out of the load's way.
    while (load.running.load() > 0) {
      if (NowNs() > give_up_ns) load.stop.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    JoinAll(threads);
    const int64_t end = NowNs();
    const double round_cpu_s = CpuSeconds() - cpu_before;
    const double round_s = static_cast<double>(end - start) / 1e9;
    const uint64_t round_batches = load.batches.load() - batches_before;
    round_rates.push_back(static_cast<double>(round_batches) / round_s);
    round_cpu_ms.push_back(round_cpu_s * 1e3 /
                           static_cast<double>(std::max<uint64_t>(round_batches, 1)));
    std::fprintf(stderr,
                 "sandbench: round %d: set-up %.3f s, %llu batches in %.3f s, %.3f cpu ms/batch\n",
                 rounds, setup_s.back(), static_cast<unsigned long long>(round_batches), round_s,
                 round_cpu_ms.back());
    cpu_s += round_cpu_s;
    measured_s += round_s;
    measured.emplace_back(start, end);
    RegistryDelta round_delta(before, TakeSnapshot(kCounters, kHistograms));
    delta.Accumulate(round_delta);
    if (rounds == 0) first_round = round_delta;
    if (sampler != nullptr) {
      sampler->Stop();
      queue_depth_max = std::max(queue_depth_max, sampler->queue_depth_max());
      memory_used_max = std::max(memory_used_max, sampler->memory_used_max());
    }
    SpanLog::Get().SetEnabled(opts.trace);
    std::vector<double> round_latencies = deployment.TakeLatencies();
    latencies.insert(latencies.end(), round_latencies.begin(), round_latencies.end());
    round_p50_ms.push_back(Quantile(round_latencies, 0.5));
    round_tails.push_back(TailQuantile(round_latencies, 0.99));
    chunks_delivered = deployment.ChunksDelivered();
    ++rounds;
  }
  SpanLog::Get().SetEnabled(false);

  // Output check against an independent demand-only reference: every
  // chunk a load thread delivered must have had its sampled view checked.
  const int64_t check_start = NowNs();
  const std::vector<CrcBook::Key> observed = book.Observed();
  const uint64_t mismatches = book.Verify(ReferenceCrcs(world, observed));
  const double check_s = SecondsSince(check_start);
  std::map<std::pair<uint64_t, size_t>, int64_t> checked_chunks;  // (plan seed, task) -> views
  for (const auto& [plan_seed, view] : observed) {
    for (size_t t = 0; t < world.tasks.size(); ++t) {
      if (view.rfind("/" + world.tasks[t].tag + "/", 0) == 0) ++checked_chunks[{plan_seed, t}];
    }
  }
  bool covered = book.checked() > 0;
  for (uint64_t plan_seed : round_seeds) {
    for (size_t t = 0; t < world.tasks.size(); ++t) {
      const int64_t needed = spec.serve ? 1 : chunks_delivered[t];  // clients cycle one chunk
      covered = covered && checked_chunks[{plan_seed, t}] >= needed;
    }
  }

  const double batches = static_cast<double>(load.batches.load());
  const double nb = std::max(batches, 1.0);
  const uint64_t attempted = load.attempted.load() + warmup.attempted.load();
  report.attempted = attempted;
  report.failed = load.errors.load() + load.exhausted.load() + warmup.errors.load() +
                  warmup.exhausted.load() + mismatches;
  report.correct = mismatches == 0 && covered && report.failed == 0;
  const double failed_ratio =
      Ratio(static_cast<double>(report.failed), static_cast<double>(attempted));
  const std::string per_batch = "per batch over " + std::to_string(load.batches.load());
  const std::string rounds_base = std::to_string(rounds) + " rounds, " +
                                  std::to_string(measured_s) + " s measured";
  std::fprintf(stderr,
               "sandbench: inputs %.3f s, %d rounds, output check %.3f s (%llu CRCs of %zu "
               "views)\n",
               inputs_s, rounds, check_s, static_cast<unsigned long long>(book.checked()),
               observed.size());

  std::vector<Metric>& m = report.metrics;
  if (!opts.trace) {
    // Medians over rounds: a stall of the shared host slows one round, not
    // the reported figure. The tail is a median of per-round p99s when
    // every round resolves p99 on its own (10 samples beyond it), and comes
    // from the pooled samples otherwise.
    bool rounds_resolve_p99 = true;
    std::vector<double> round_p99_ms;
    for (const TailResult& tail : round_tails) {
      rounds_resolve_p99 = rounds_resolve_p99 && tail.resolved && tail.quantile == 0.99;
      round_p99_ms.push_back(tail.value);
    }
    const TailResult pooled = TailQuantile(latencies, 0.99);
    char tail_base[128];
    if (rounds_resolve_p99) {
      std::snprintf(tail_base, sizeof(tail_base), "median of %d per-round p99s, %zu samples",
                    rounds, latencies.size());
    } else {
      std::snprintf(tail_base, sizeof(tail_base), "pooled p%g of %llu samples, %llu beyond",
                    pooled.quantile * 100, static_cast<unsigned long long>(pooled.samples),
                    static_cast<unsigned long long>(pooled.beyond));
    }
    m.push_back({"batches_per_s", Quantile(round_rates, 0.5), "1/s", "median of " + rounds_base});
    m.push_back({"cpu_ms_per_batch", Quantile(round_cpu_ms, 0.5), "ms",
                 "process user+sys, median of " + rounds_base});
    m.push_back({"batch_p50_ms", Quantile(round_p50_ms, 0.5), "ms",
                 "median of per-round p50s, " + std::to_string(latencies.size()) + " samples"});
    m.push_back({"batch_p99_ms", rounds_resolve_p99 ? Quantile(round_p99_ms, 0.5) : pooled.value,
                 "ms", tail_base});
    m.push_back({"ok_op_ratio", 1.0 - failed_ratio, "ratio",
                 std::to_string(report.failed) + " failed of " + std::to_string(attempted)});
    m.push_back({"setup_s", Quantile(setup_s, 0.5), "s",
                 "median of " + std::to_string(setup_s.size()) + " set-ups"});
    m.push_back({"rss_peak_mib", PeakRssMib(), "MiB", "ru_maxrss at exit"});
    return true;
  }

  // --- Traced run: the per-layer table ------------------------------------
  auto span_ms = [&](const char* name, bool measured_only) {
    std::vector<double> out;
    for (const SpanRecord& span : SpanLog::Get().Named(name)) {
      bool inside = !measured_only;
      for (const auto& [start, end] : measured) {
        inside = inside || (span.start_ns >= start && span.start_ns < end);
      }
      if (inside) out.push_back(span.DurationMs());
    }
    return out;
  };
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  auto counter = [&](const char* name) { return static_cast<double>(delta.Counter(name)); };
  auto hist = [&](const char* name) -> const HistogramSnapshot& { return delta.Histogram(name); };

  // Direct calls on the workload's own inputs.
  PlannerOptions planner;
  planner.k_epochs = world.spec.k_epochs;
  planner.seed = world.seed;
  MaterializationPlan plan;
  const double plan_ms = MedianMs(5, [&] {
    Result<MaterializationPlan> built =
        BuildMaterializationPlan(world.env.meta, world.tasks, 0, planner);
    if (built.ok()) plan = built.TakeValue();
  });
  const uint64_t prune_target = static_cast<uint64_t>(
      static_cast<double>(world.options.storage_budget_bytes) * world.options.evict_watermark);
  PruningReport pruning;
  const double prune_ms = MedianMs(5, [&] {
    MaterializationPlan copy = plan;
    pruning = PruneToBudget(copy, prune_target);
  });
  double ops_per_frame = 1;
  const double augment_us = AugmentUsPerFrame(world, &ops_per_frame);
  const double decode_direct_us = DecodeUsPerFrame(world);

  const std::vector<double> stall = span_ms("trainer.next_batch", true);
  const TailResult stall_tail = TailQuantile(stall, 0.99);
  const std::vector<double> starts = span_ms("core.start", false);
  const HistogramSnapshot& job_latency = hist("sand.sched.job_latency_ns");
  // Rounds r and r + 1 run the same segments with spans on in one and off
  // in the other, so each pair of rounds times the same work both ways.
  std::vector<double> overhead_pct;
  for (int r = 0; r + 1 < rounds; r += 2) {
    const std::vector<double>& a = segment_s[r];
    const std::vector<double>& b = segment_s[r + 1];
    if (a.size() != b.size() || a.empty()) continue;
    double traced_s = 0;
    double untraced_s = 0;
    for (size_t j = 0; j < a.size(); ++j) {
      const bool a_traced = (r + static_cast<int>(j)) % 2 == 1;
      traced_s += a_traced ? a[j] : b[j];
      untraced_s += a_traced ? b[j] : a[j];
    }
    overhead_pct.push_back(100.0 * (1.0 - untraced_s / traced_s));
  }
  const Quartiles overhead = QuartilesOf(overhead_pct);
  const double cache_hits = counter("sand.cache.memory.hits") + counter("sand.cache.disk.hits");
  const HistogramSnapshot& decode_hist = hist("sand.decode.frame_latency_ns");

  // Layer rows that account for process CPU, each a count of work from
  // the window's registry delta times that work's direct single-thread cost
  // (plus the codec's own encode/decode time for compress), so no row
  // double-counts another's time the way wall-clock histograms that wait
  // on each other (batch assembly waits on decode) would. The rest is
  // `other`: scheduling, cache and container lookups, locks, the trainer.
  const double stack_us = StackUsPerBatch(world);
  const double cpu_ms_per_batch = cpu_s * 1e3 / nb;
  const double decode_row = counter("sand.decode.frames_decoded") * decode_direct_us / 1e3 / nb;
  const double augment_row =
      counter("sand.exec.aug_ops") * augment_us / ops_per_frame / 1e3 / nb;
  const double assemble_row =
      static_cast<double>(hist("sand.service.batch_assemble_ns").count) * stack_us / 1e3 / nb;
  const double compress_row = static_cast<double>(hist("sand.compress.encode_ns").sum +
                                                  hist("sand.compress.decode_ns").sum) /
                              1e6 / nb;
  const double plan_row = counter("sand.service.chunks_planned") *
                          (plan_ms + (world.options.enable_pruning ? prune_ms : 0.0)) / nb;
  const double accounted_ms = decode_row + augment_row + assemble_row + compress_row + plan_row;

  char tail_base[64];
  std::snprintf(tail_base, sizeof(tail_base), "p%g of %llu NextBatch spans",
                stall_tail.quantile * 100, static_cast<unsigned long long>(stall_tail.samples));
  m.push_back({"base.batches", batches, "count", rounds_base});
  m.push_back({"base.measured_s", measured_s, "s", rounds_base});
  m.push_back({"failed_op_ratio", failed_ratio, "ratio", "errors + exhausted + CRC mismatches"});
  m.push_back({"trainer.stall_p50_ms", Quantile(stall, 0.5), "ms", "NextBatch spans"});
  m.push_back({"trainer.stall_p99_ms", stall_tail.value, "ms", tail_base});
  m.push_back({"trainer.stall_samples", static_cast<double>(stall.size()), "count",
               "traced segments only"});
  m.push_back({"vfs.read_ms_mean", mean(span_ms("vfs.read", true)), "ms",
               "Open+ReadAllShared+Close spans"});
  m.push_back({"vfs.materialize_wait_ms_per_batch",
               static_cast<double>(hist("sand.fs.materialize_wait_ns").sum) / 1e6 / nb, "ms",
               per_batch});
  m.push_back({"vfs.prefetch_useful_ratio",
               Ratio(counter("sand.prefetch.hits") + counter("sand.prefetch.hits_inflight"),
                     counter("sand.prefetch.issued")),
               "ratio", std::to_string(delta.Counter("sand.prefetch.issued")) + " issued"});
  m.push_back({"vfs.prefetch_wasted", counter("sand.prefetch.wasted"), "count", rounds_base});
  m.push_back({"core.start_ms", Quantile(starts, 0.5), "ms",
               "median of " + std::to_string(starts.size()) + " Start spans"});
  m.push_back({"core.batch_assemble_us_mean", hist("sand.service.batch_assemble_ns").Mean() / 1e3,
               "us", std::to_string(hist("sand.service.batch_assemble_ns").count) + " assemblies"});
  m.push_back({"core.demand_materializations_per_batch",
               counter("sand.service.demand_materializations") / nb, "count", per_batch});
  m.push_back({"core.evictions_per_batch", counter("sand.service.evictions") / nb, "count",
               per_batch});
  m.push_back({"core.container_cache_hit_ratio",
               Ratio(counter("sand.container_cache.hits"),
                     counter("sand.container_cache.hits") + counter("sand.container_cache.misses")),
               "ratio", "container fetches"});
  m.push_back({"graph.plan_ms_per_chunk", plan_ms, "ms", "median of 5 direct plans"});
  m.push_back({"graph.plan_us_per_video",
               plan_ms * 1e3 / static_cast<double>(world.env.meta.num_videos()), "us",
               std::to_string(world.env.meta.num_videos()) + " videos"});
  const OpCounts planned = plan.CountOps();
  m.push_back({"graph.planned_decodes_per_chunk", static_cast<double>(planned.decode_unique), "count",
               std::to_string(planned.decode_requested) + " requested before merging"});
  m.push_back({"graph.planned_aug_ops_per_chunk", static_cast<double>(planned.aug_unique), "count",
               std::to_string(planned.aug_requested) + " requested before merging"});
  m.push_back({"pruning.prune_ms_per_chunk", prune_ms, "ms", "median of 5 direct prunes"});
  m.push_back({"pruning.rounds", static_cast<double>(pruning.rounds), "count",
               "at budget x watermark"});
  m.push_back({"sched.job_latency_p50_ms",
               static_cast<double>(job_latency.QuantileValue(0.5)) / 1e6, "ms",
               std::to_string(job_latency.count) + " jobs"});
  m.push_back({"sched.job_latency_p99_ms",
               static_cast<double>(job_latency.QuantileValue(0.99)) / 1e6, "ms",
               std::to_string(job_latency.count) + " jobs"});
  m.push_back({"sched.jobs_run_per_batch", counter("sand.sched.jobs_run") / nb, "count",
               per_batch});
  m.push_back({"sched.queue_depth_max", static_cast<double>(queue_depth_max), "count",
               "1 ms gauge samples"});
  m.push_back({"codec.decode_us_per_frame", decode_hist.Mean() / 1e3, "us",
               std::to_string(decode_hist.count) + " frames in the program histogram"});
  m.push_back({"codec.decode_us_per_frame_direct", decode_direct_us, "us",
               "direct sequential decode of 4 videos"});
  m.push_back({"codec.frames_decoded_per_batch", counter("sand.decode.frames_decoded") / nb,
               "count", per_batch});
  m.push_back({"codec.decode_amplification",
               Ratio(counter("sand.decode.frames_decoded"), counter("sand.decode.frames_requested")),
               "ratio", "frames decoded / requested"});
  m.push_back({"tensor.augment_us_per_frame", augment_us, "us", "direct chain, 32 frames"});
  m.push_back({"tensor.aug_ops_per_batch", counter("sand.exec.aug_ops") / nb, "count", per_batch});
  m.push_back({"storage.hit_ratio", Ratio(cache_hits, cache_hits + counter("sand.cache.misses")),
               "ratio", "cache lookups"});
  m.push_back({"storage.demotions_per_batch", counter("sand.cache.demotions") / nb, "count",
               per_batch});
  m.push_back({"storage.promotions_per_batch", counter("sand.cache.promotions") / nb, "count",
               per_batch});
  m.push_back({"storage.mem_used_mib_peak",
               static_cast<double>(memory_used_max) / static_cast<double>(kMiB), "MiB",
               "1 ms gauge samples"});
  m.push_back({"compress.encode_us_per_object", hist("sand.compress.encode_ns").Mean() / 1e3, "us",
               std::to_string(hist("sand.compress.encode_ns").count) + " encodes"});
  m.push_back({"compress.decode_us_per_hit", hist("sand.compress.decode_ns").Mean() / 1e3, "us",
               std::to_string(hist("sand.compress.decode_ns").count) + " decodes"});
  m.push_back({"compress.ratio",
               Ratio(counter("sand.compress.raw_bytes"), counter("sand.compress.compressed_bytes")),
               "ratio", "raw / compressed bytes"});
  m.push_back({"compress.fallbacks", counter("sand.compress.fallbacks"), "count", rounds_base});
  m.push_back({"net.open_us_mean", mean(span_ms("net.open", true)) * 1e3, "us",
               "SandClient::Open spans"});
  m.push_back({"net.read_us_mean", mean(span_ms("net.read", true)) * 1e3, "us",
               "ReadAllSharedAsync issue to bytes in hand"});
  m.push_back({"net.bytes_per_batch",
               spec.serve ? static_cast<double>(load.bytes.load()) / nb : 0.0, "B", per_batch});
  m.push_back({"net.refused_per_batch", static_cast<double>(load.refused.load()) / nb, "count",
               per_batch});
  m.push_back({"obs.trace_overhead_pct", overhead.median, "%",
               "median of " + std::to_string(overhead_pct.size()) + " round pairs"});
  m.push_back({"obs.trace_overhead_q1_pct", overhead.q1, "%", "first quartile"});
  m.push_back({"obs.trace_overhead_q3_pct", overhead.q3, "%", "third quartile"});
  m.push_back({"obs.trace_dropped", counter("sand.trace.dropped"), "count", rounds_base});
  m.push_back({"layer.cpu_ms_per_batch", cpu_ms_per_batch, "ms", "process user+sys " + per_batch});
  m.push_back({"layer.codec_cpu_ms_per_batch", decode_row, "ms", "frames decoded x direct cost"});
  m.push_back({"layer.tensor_cpu_ms_per_batch", augment_row, "ms", "aug ops x direct cost"});
  m.push_back({"layer.core_assemble_cpu_ms_per_batch", assemble_row, "ms",
               "assemblies x direct StackBatch cost"});
  m.push_back({"layer.compress_cpu_ms_per_batch", compress_row, "ms", "encode + decode time"});
  m.push_back({"layer.plan_cpu_ms_per_batch", plan_row, "ms",
               "chunks planned x direct plan + prune cost"});
  m.push_back({"layer.other_share", 1.0 - Ratio(accounted_ms, cpu_ms_per_batch), "ratio",
               "of layer.cpu_ms_per_batch"});
  m.push_back({"repeat.round_frames_decoded",
               static_cast<double>(first_round.Counter("sand.decode.frames_decoded")), "count",
               "first round's measured work"});
  m.push_back({"repeat.round_aug_ops",
               static_cast<double>(first_round.Counter("sand.exec.aug_ops")), "count",
               "first round's measured work"});
  m.push_back({"repeat.round_demand_materializations",
               static_cast<double>(first_round.Counter("sand.service.demand_materializations")),
               "count", "first round's measured work"});

  const std::string span_file =
      opts.out_dir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) + ".trace.json";
  if (!SpanLog::Get().WriteChromeJson(span_file)) {
    std::fprintf(stderr, "sandbench: cannot write %s\n", span_file.c_str());
    return false;
  }
  std::fprintf(stderr, "sandbench: spans written to %s\n", span_file.c_str());
  return true;
}

}  // namespace sandbench
