// Multi-client serving bench: per-tenant tail latency through the socket
// front-end (DESIGN.md §13), the fair-share acceptance check for the
// tenant scheduler caps, and the pipeline-depth throughput sweep.
//
// Part 1 — fair share. Three scenarios, each against a fresh sand server
// on a unix socket:
//
//   solo               4 "alpha" clients, one task each, no contention
//   greedy-uncapped    + 4 "greedy" clients hammering their own tasks
//   greedy-capped      same, but tenant greedy capped at 1 scheduler job
//
// Every client runs the remote_trainer loop (open / readall / getxattr /
// close per batch, RESOURCE_EXHAUSTED -> backoff + retry) and records the
// client-observed latency of each batch, retries included. The check: a
// greedy tenant behind a scheduler cap must not degrade alpha's p99 batch
// latency more than 2x over solo. The uncapped scenario is the contrast —
// what the same load does without the cap.
//
// Part 2 — pipelining. One connection, one cache-resident ~14 KB batch,
// N ReadAll round trips with a sliding window of `depth`
// ReadAllSharedAsync requests in flight; depth 1 is one request per round
// trip. Small payloads make the run latency-dominated, which is exactly
// what the request ids buy back: the gate is depth-16 throughput >= 1.5x
// depth 1 on the same connection. A server that serializes requests
// scores about 1.0x.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/units.h"
#include "src/graph/view.h"
#include "src/net/sand_client.h"
#include "src/net/sand_server.h"

namespace sand {
namespace {

constexpr int kClientsPerTenant = 4;
constexpr int kItersPerEpoch = 2;  // 8 videos / 4-clip batches

struct ClientResult {
  std::vector<int64_t> latencies_ns;  // one sample per batch served
  uint64_t refused = 0;               // RESOURCE_EXHAUSTED replies absorbed
  uint64_t failed = 0;                // non-retryable errors (counted, not fatal)
};

// One client: connect as `tenant`, train over `task` for `epochs`,
// timing each batch from first attempt to success.
ClientResult RunClient(const std::string& socket_path, const std::string& tenant,
                       const std::string& task, int epochs) {
  ClientResult result;
  net::SandClient::Options options;
  options.unix_path = socket_path;
  options.tenant = tenant;
  auto client = net::SandClient::Connect(options);
  if (!client.ok()) {
    result.failed = static_cast<uint64_t>(epochs) * kItersPerEpoch;
    return result;
  }
  SandApi& api = **client;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int iter = 0; iter < kItersPerEpoch; ++iter) {
      std::string path = ViewPath::Batch(task, epoch, iter).Format();
      auto start = std::chrono::steady_clock::now();
      bool served = false;
      for (int attempt = 0; attempt < 200 && !served; ++attempt) {
        auto fd = api.Open(path);
        Result<SharedBytes> batch = fd.ok() ? api.ReadAllShared(*fd)
                                            : Result<SharedBytes>(fd.status());
        if (fd.ok()) (void)api.Close(*fd);
        if (batch.ok()) {
          served = true;
          break;
        }
        if (batch.status().code() != ErrorCode::kResourceExhausted) {
          ++result.failed;
          break;
        }
        ++result.refused;
        std::this_thread::sleep_for(std::chrono::milliseconds(2 * (attempt + 1)));
      }
      if (served) {
        result.latencies_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      }
    }
  }
  return result;
}

struct TenantStats {
  uint64_t batches = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;
  int64_t wall_ns = 0;
  int64_t p50_ns = 0;
  int64_t p95_ns = 0;
  int64_t p99_ns = 0;
  int64_t max_ns = 0;
};

TenantStats Summarize(std::vector<ClientResult> results, int64_t wall_ns) {
  TenantStats stats;
  stats.wall_ns = wall_ns;
  std::vector<int64_t> all;
  for (auto& r : results) {
    stats.refused += r.refused;
    stats.failed += r.failed;
    all.insert(all.end(), r.latencies_ns.begin(), r.latencies_ns.end());
  }
  stats.batches = all.size();
  if (all.empty()) return stats;
  std::sort(all.begin(), all.end());
  auto at = [&](double q) {
    size_t idx = static_cast<size_t>(q * static_cast<double>(all.size() - 1));
    return all[idx];
  };
  stats.p50_ns = at(0.50);
  stats.p95_ns = at(0.95);
  stats.p99_ns = at(0.99);
  stats.max_ns = all.back();
  return stats;
}

struct ScenarioResult {
  TenantStats alpha;
  TenantStats greedy;
  net::ServerStats server;
};

// Stands up a fresh dataset + service + socket server, runs the client
// fleet, tears everything down. greedy_clients == 0 means solo.
ScenarioResult RunScenario(const std::string& name, int epochs, int greedy_clients,
                           int greedy_sched_cap) {
  obs::Registry::Get().ResetAll();

  auto dataset_store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 8;
  dataset.frames_per_video = 48;
  dataset.height = 48;
  dataset.width = 64;
  auto meta = BuildSyntheticDataset(*dataset_store, dataset);
  if (!meta.ok()) {
    std::fprintf(stderr, "dataset: %s\n", meta.status().ToString().c_str());
    std::exit(1);
  }

  std::vector<std::pair<std::string, std::string>> assignments;  // tenant, task
  for (int i = 0; i < kClientsPerTenant; ++i) {
    assignments.emplace_back("alpha", "alpha" + std::to_string(i));
  }
  for (int i = 0; i < greedy_clients; ++i) {
    assignments.emplace_back("greedy", "greedy" + std::to_string(i));
  }
  std::vector<TaskConfig> configs;
  for (const auto& [tenant, task] : assignments) {
    auto config = ParseTaskConfigText(MakeTaskConfigYaml(SlowFastProfile(), meta->path, task));
    if (!config.ok()) {
      std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
      std::exit(1);
    }
    configs.push_back(*config);
  }

  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(128ULL * kMiB),
                                             std::make_shared<MemoryStore>(512ULL * kMiB));
  ServiceOptions service_options;
  service_options.k_epochs = 2;
  service_options.total_epochs = epochs;
  service_options.storage_budget_bytes = 256 * kMiB;
  SandService service(dataset_store, *meta, cache, configs, service_options);
  if (auto status = service.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  std::string socket_path = std::string(::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp") +
                            "/bench_net_" + std::to_string(::getpid()) + "_" + name + ".sock";
  net::SandServer::Options server_options;
  server_options.unix_path = socket_path;
  server_options.request_threads = 4;
  server_options.sched_cap_hook = [&service](uint32_t tenant_id, int cap) {
    service.SetTenantRunningCap(tenant_id, cap);
  };
  net::SandServer server(&service.fs(), server_options);
  server.RegisterTenant("alpha", {});
  if (greedy_clients > 0) {
    net::TenantQuotas quotas;
    quotas.sched_max_running = greedy_sched_cap;
    server.RegisterTenant("greedy", quotas);
  }
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "listen: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<ClientResult> results(assignments.size());
  std::vector<std::thread> clients;
  clients.reserve(assignments.size());
  for (size_t i = 0; i < assignments.size(); ++i) {
    clients.emplace_back([&, i] {
      results[i] = RunClient(socket_path, assignments[i].first, assignments[i].second, epochs);
    });
  }
  for (auto& t : clients) t.join();
  int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  ScenarioResult scenario;
  scenario.server = server.stats();
  std::vector<ClientResult> alpha_results, greedy_results;
  for (size_t i = 0; i < assignments.size(); ++i) {
    (assignments[i].first == "alpha" ? alpha_results : greedy_results)
        .push_back(std::move(results[i]));
  }
  scenario.alpha = Summarize(std::move(alpha_results), wall_ns);
  scenario.greedy = Summarize(std::move(greedy_results), wall_ns);
  server.Stop();
  service.Shutdown();
  return scenario;
}

void PrintRow(const std::string& scenario, const std::string& tenant, const TenantStats& s) {
  std::printf("%-16s %-7s %7llu %8llu %9.2f %9.2f %9.2f %9.2f\n", scenario.c_str(),
              tenant.c_str(), static_cast<unsigned long long>(s.batches),
              static_cast<unsigned long long>(s.refused), ToMillis(s.p50_ns),
              ToMillis(s.p95_ns), ToMillis(s.p99_ns), ToMillis(s.max_ns));
}

// RecordBenchResult speaks PipelineRun; map one tenant's client-side view
// onto it (batches, wall, exact p50/p95 from the recorded samples).
void RecordTenant(const std::string& scenario, const std::string& tenant,
                  const TenantStats& s) {
  PipelineRun run;
  run.metrics.batches = s.batches;
  run.metrics.wall_ns = s.wall_ns;
  run.metrics.iter_p50_ns = s.p50_ns;
  run.metrics.iter_p95_ns = s.p95_ns;
  RecordBenchResult("net_multiclient",
                    {{"scenario", scenario},
                     {"tenant", tenant},
                     {"p99_ms", std::to_string(ToMillis(s.p99_ns))},
                     {"refused", std::to_string(s.refused)},
                     {"failed", std::to_string(s.failed)}},
                    run);
}

// ---------------------------------------------------------------------------
// Pipeline-depth sweep.

// A deliberately tiny batch (2 clips x 4 frames x 24x24 crop ~ 14 KB): at
// this size one RPC is dominated by round-trip latency, not payload
// bytes, so the sweep isolates what pipelining actually changes.
ModelProfile TinyRpcProfile() {
  ModelProfile profile = SlowFastProfile();
  profile.name = "tiny_rpc";
  profile.videos_per_batch = 2;
  profile.frames_per_video = 4;
  profile.crop_h = 24;
  profile.crop_w = 24;
  return profile;
}

struct SweepPoint {
  int depth = 1;  // window size
  uint64_t ops = 0;
  uint64_t refused = 0;
  int64_t wall_ns = 0;
  double ops_per_sec = 0.0;
};

// Keeps `depth` ReadAllSharedAsync requests in flight on one connection,
// completing them in issue order; RESOURCE_EXHAUSTED replies are absorbed
// and reissued the way a trainer's read-ahead window would.
SweepPoint RunPipelinedReads(SandApi& api, int fd, int depth, int total_ops) {
  SweepPoint point;
  point.depth = depth;
  std::deque<Future<SharedBytes>> window;
  int to_issue = total_ops;
  auto start = std::chrono::steady_clock::now();
  while (to_issue > 0 || !window.empty()) {
    while (to_issue > 0 && static_cast<int>(window.size()) < depth) {
      window.push_back(api.ReadAllSharedAsync(fd));
      --to_issue;
    }
    auto result = window.front().Get();
    window.pop_front();
    if (result.ok()) {
      ++point.ops;
    } else if (result.status().code() == ErrorCode::kResourceExhausted) {
      ++point.refused;
      ++to_issue;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else {
      std::fprintf(stderr, "pipelined read: %s\n", result.status().ToString().c_str());
      std::exit(1);
    }
  }
  point.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  point.ops_per_sec =
      point.wall_ns > 0 ? 1e9 * static_cast<double>(point.ops) / point.wall_ns : 0.0;
  return point;
}

void PrintSweepRow(const SweepPoint& point, double depth1_ops_per_sec) {
  double speedup = depth1_ops_per_sec > 0 ? point.ops_per_sec / depth1_ops_per_sec : 0.0;
  std::printf("%5d %7llu %8llu %9.2f %11.0f %8.2fx\n",
              point.depth, static_cast<unsigned long long>(point.ops),
              static_cast<unsigned long long>(point.refused), ToMillis(point.wall_ns),
              point.ops_per_sec, speedup);
}

void RecordSweepPoint(const SweepPoint& point, double depth1_ops_per_sec) {
  PipelineRun run;
  run.metrics.batches = point.ops;
  run.metrics.wall_ns = point.wall_ns;
  double speedup = depth1_ops_per_sec > 0 ? point.ops_per_sec / depth1_ops_per_sec : 0.0;
  RecordBenchResult("net_pipeline",
                    {{"depth", std::to_string(point.depth)},
                     {"ops_per_sec", std::to_string(point.ops_per_sec)},
                     {"refused", std::to_string(point.refused)},
                     {"speedup_vs_depth1", std::to_string(speedup)}},
                    run);
}

// Returns the depth-16 speedup over depth 1 on the same connection (the
// gated acceptance number).
double RunPipelineSweep(bool smoke) {
  obs::Registry::Get().ResetAll();

  auto dataset_store = std::make_shared<MemoryStore>();
  SyntheticDatasetOptions dataset;
  dataset.num_videos = 8;
  auto meta = BuildSyntheticDataset(*dataset_store, dataset);
  if (!meta.ok()) {
    std::fprintf(stderr, "dataset: %s\n", meta.status().ToString().c_str());
    std::exit(1);
  }
  auto config = ParseTaskConfigText(MakeTaskConfigYaml(TinyRpcProfile(), meta->path, "pipe0"));
  if (!config.ok()) {
    std::fprintf(stderr, "config: %s\n", config.status().ToString().c_str());
    std::exit(1);
  }
  auto cache = std::make_shared<TieredCache>(std::make_shared<MemoryStore>(128ULL * kMiB),
                                             std::make_shared<MemoryStore>(512ULL * kMiB));
  ServiceOptions service_options;
  service_options.k_epochs = 2;
  service_options.total_epochs = 2;
  service_options.storage_budget_bytes = 256 * kMiB;
  SandService service(dataset_store, *meta, cache, {*config}, service_options);
  if (auto status = service.Start(); !status.ok()) {
    std::fprintf(stderr, "start: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  std::string socket_path = std::string(::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp") +
                            "/bench_net_" + std::to_string(::getpid()) + "_pipeline.sock";
  net::SandServer::Options server_options;
  server_options.unix_path = socket_path;
  server_options.request_threads = 4;
  // Deep windows must be absorbed by the queue, not bounced: the sweep
  // measures pipelining, not admission control.
  server_options.request_queue_depth = 128;
  net::SandServer server(&service.fs(), server_options);
  if (auto status = server.Start(); !status.ok()) {
    std::fprintf(stderr, "listen: %s\n", status.ToString().c_str());
    std::exit(1);
  }

  const int total_ops = smoke ? 400 : 2000;
  const std::string batch_path = ViewPath::Batch("pipe0", 0, 0).Format();

  net::SandClient::Options client_options;
  client_options.unix_path = socket_path;
  client_options.tenant = "alpha";

  std::printf("\nPipeline depth sweep: %d cache-resident ~14 KB ReadAll round trips, "
              "one connection\n\n",
              total_ops);
  std::printf("%5s %7s %8s %9s %11s %9s\n", "depth", "ops", "refused", "wall ms", "ops/s",
              "speedup");
  PrintRule();

  double depth1_ops_per_sec = 0.0;
  double depth16_speedup = 0.0;
  double depth16_ops_per_sec = 0.0;
  {
    auto client = net::SandClient::Connect(client_options);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      std::exit(1);
    }
    auto fd = (*client)->Open(batch_path);
    if (!fd.ok() || !(*client)->ReadAllShared(*fd).ok()) {  // warm the cache
      std::fprintf(stderr, "warmup failed\n");
      std::exit(1);
    }
    for (int depth : {1, 4, 16, 64}) {
      SweepPoint point = RunPipelinedReads(**client, *fd, depth, total_ops);
      if (depth == 1) {
        depth1_ops_per_sec = point.ops_per_sec;
      }
      PrintSweepRow(point, depth1_ops_per_sec);
      RecordSweepPoint(point, depth1_ops_per_sec);
      if (depth == 16) {
        depth16_speedup =
            depth1_ops_per_sec > 0 ? point.ops_per_sec / depth1_ops_per_sec : 0.0;
        depth16_ops_per_sec = point.ops_per_sec;
      }
    }
  }

  PrintRule();
  bool pipeline_ok = depth16_speedup >= 1.5;
  std::printf("pipeline check: depth-16 speedup %.2fx over depth 1 (budget >= 1.50x) -> %s\n",
              depth16_speedup, pipeline_ok ? "OK" : "VIOLATED");
  if (JsonOutEnabled()) {
    PipelineRun verdict;
    verdict.metrics.batches = static_cast<uint64_t>(total_ops);
    RecordBenchResult("net_pipeline_speedup",
                      {{"depth1_ops_per_sec", std::to_string(depth1_ops_per_sec)},
                       {"depth16_ops_per_sec", std::to_string(depth16_ops_per_sec)},
                       {"speedup", std::to_string(depth16_speedup)},
                       {"budget", "1.5"},
                       {"pipeline_ok", pipeline_ok ? "true" : "false"}},
                      verdict);
  }

  server.Stop();
  service.Shutdown();
  return depth16_speedup;
}

}  // namespace
}  // namespace sand

int main(int argc, char** argv) {
  using namespace sand;
  ParseBenchFlags(argc, argv);
  const int epochs = SmokeMode() ? 3 : 6;

  PrintBenchHeader("Multi-tenant serving: per-tenant tail latency over the socket",
                   "DESIGN.md §13 / ISSUE 8 acceptance (fair share under a greedy tenant)");
  std::printf("%d clients/tenant, 1 task/client, %d epochs x %d iters, unix socket\n\n",
              kClientsPerTenant, epochs, kItersPerEpoch);
  std::printf("%-16s %-7s %7s %8s %9s %9s %9s %9s\n", "scenario", "tenant", "batches",
              "refused", "p50 ms", "p95 ms", "p99 ms", "max ms");
  PrintRule();

  ScenarioResult solo = RunScenario("solo", epochs, 0, 0);
  PrintRow("solo", "alpha", solo.alpha);
  RecordTenant("solo", "alpha", solo.alpha);

  ScenarioResult uncapped = RunScenario("uncapped", epochs, kClientsPerTenant, 0);
  PrintRow("greedy-uncapped", "alpha", uncapped.alpha);
  PrintRow("greedy-uncapped", "greedy", uncapped.greedy);
  RecordTenant("greedy-uncapped", "alpha", uncapped.alpha);
  RecordTenant("greedy-uncapped", "greedy", uncapped.greedy);

  ScenarioResult capped = RunScenario("capped", epochs, kClientsPerTenant, 1);
  PrintRow("greedy-capped", "alpha", capped.alpha);
  PrintRow("greedy-capped", "greedy", capped.greedy);
  RecordTenant("greedy-capped", "alpha", capped.alpha);
  RecordTenant("greedy-capped", "greedy", capped.greedy);

  PrintRule();
  double solo_p99 = ToMillis(solo.alpha.p99_ns);
  double capped_p99 = ToMillis(capped.alpha.p99_ns);
  double uncapped_p99 = ToMillis(uncapped.alpha.p99_ns);
  double ratio = solo_p99 > 0 ? capped_p99 / solo_p99 : 0.0;
  bool fair = ratio <= 2.0;
  std::printf("alpha p99: solo %.2f ms, greedy uncapped %.2f ms, greedy capped %.2f ms\n",
              solo_p99, uncapped_p99, capped_p99);
  std::printf("fair-share check: capped/solo p99 ratio %.2fx (budget 2.00x) -> %s\n", ratio,
              fair ? "OK" : "VIOLATED");
  if (JsonOutEnabled()) {
    PipelineRun verdict;
    verdict.metrics.batches = capped.alpha.batches;
    verdict.metrics.wall_ns = capped.alpha.wall_ns;
    RecordBenchResult("net_multiclient_fairshare",
                      {{"solo_p99_ms", std::to_string(solo_p99)},
                       {"capped_p99_ms", std::to_string(capped_p99)},
                       {"uncapped_p99_ms", std::to_string(uncapped_p99)},
                       {"ratio", std::to_string(ratio)},
                       {"budget", "2.0"},
                       {"fair_share_ok", fair ? "true" : "false"}},
                      verdict);
  }

  RunPipelineSweep(SmokeMode());
  return 0;
}
