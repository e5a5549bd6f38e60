// Microbenchmarks of the substrates (google-benchmark): codec encode /
// sequential decode / random access, the lossless cache codec, and the
// hot augmentation ops. These are the per-op costs the CostModel's
// planning coefficients abstract.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/codec/video_codec.h"
#include "src/common/rng.h"
#include "src/compress/lossless.h"
#include "src/tensor/image_ops.h"
#include "src/pruning/graph_pruning.h"
#include "src/workloads/models.h"
#include "src/workloads/synthetic.h"

namespace sand {
namespace {

Frame BenchFrame(int h = 64, int w = 96) { return SynthesizeFrame(123, 7, h, w, 3); }

std::vector<uint8_t> BenchContainer(int frames, int gop) {
  VideoEncoderOptions options;
  options.gop_size = gop;
  VideoEncoder encoder(64, 96, 3, options);
  for (int64_t t = 0; t < frames; ++t) {
    (void)encoder.AddFrame(SynthesizeFrame(123, t, 64, 96, 3));
  }
  return encoder.Finish().TakeValue();
}

void BM_CodecEncodeFrame(benchmark::State& state) {
  Frame frame = BenchFrame();
  for (auto _ : state) {
    VideoEncoder encoder(64, 96, 3);
    (void)encoder.AddFrame(frame);
    benchmark::DoNotOptimize(encoder.Finish());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size_bytes()));
}
BENCHMARK(BM_CodecEncodeFrame);

void BM_CodecSequentialDecode(benchmark::State& state) {
  auto container = BenchContainer(32, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto decoder = VideoDecoder::Open(container);
    for (int64_t t = 0; t < 32; ++t) {
      benchmark::DoNotOptimize(decoder->DecodeFrame(t));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_CodecSequentialDecode)->Arg(1)->Arg(8)->Arg(32);

void BM_CodecRandomAccess(benchmark::State& state) {
  auto container = BenchContainer(32, static_cast<int>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    auto decoder = VideoDecoder::Open(container);
    for (int i = 0; i < 8; ++i) {
      benchmark::DoNotOptimize(
          decoder->DecodeFrame(static_cast<int64_t>(rng.NextBounded(32))));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_CodecRandomAccess)->Arg(1)->Arg(8)->Arg(32);

void BM_LosslessCompressFrame(benchmark::State& state) {
  Frame frame = BenchFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressFrame(frame));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(frame.size_bytes()));
}
BENCHMARK(BM_LosslessCompressFrame);

void BM_LosslessDecompressFrame(benchmark::State& state) {
  auto compressed = CompressFrame(BenchFrame()).TakeValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecompressFrame(compressed));
  }
}
BENCHMARK(BM_LosslessDecompressFrame);

void BM_ResizeBilinear(benchmark::State& state) {
  Frame frame = BenchFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Resize(frame, 48, 64));
  }
}
BENCHMARK(BM_ResizeBilinear);

void BM_RandomCrop(benchmark::State& state) {
  Frame frame = BenchFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crop(frame, 8, 12, 40, 40));
  }
}
BENCHMARK(BM_RandomCrop);

void BM_FlipHorizontal(benchmark::State& state) {
  Frame frame = BenchFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FlipHorizontal(frame));
  }
}
BENCHMARK(BM_FlipHorizontal);

void BM_ColorJitter(benchmark::State& state) {
  Frame frame = BenchFrame();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColorJitter(frame, rng, 20, 0.2));
  }
}
BENCHMARK(BM_ColorJitter);

// Planner metadata overhead (paper §5.5: concrete graphs "generate in
// milliseconds" and are orders of magnitude cheaper than the preprocessing
// they orchestrate). Measures BuildMaterializationPlan + pruning per chunk.
void BM_PlanChunk(benchmark::State& state) {
  DatasetMeta meta;
  meta.path = "/bench";
  for (int v = 0; v < static_cast<int>(state.range(0)); ++v) {
    meta.video_names.push_back("vid" + std::to_string(v));
  }
  meta.frames_per_video = 300;  // the paper's "typical 300-frame video"
  meta.height = 64;
  meta.width = 96;
  meta.channels = 3;
  meta.gop_size = 8;
  meta.encoded_bytes_per_video = 1 << 20;
  std::vector<TaskConfig> tasks = {MakeTaskConfig(SlowFastProfile(), meta.path, "a"),
                                   MakeTaskConfig(MaeProfile(), meta.path, "b")};
  PlannerOptions options;
  options.k_epochs = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildMaterializationPlan(meta, tasks, 0, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_PlanChunk)->Arg(8)->Arg(32)->Arg(128);

// Metadata-only dataset: planning and pruning never touch pixels.
DatasetMeta PruneBenchMeta(int videos, int frames, int height, int width) {
  DatasetMeta meta;
  meta.path = "/bench";
  for (int v = 0; v < videos; ++v) {
    meta.video_names.push_back("vid" + std::to_string(v));
  }
  meta.frames_per_video = frames;
  meta.height = height;
  meta.width = width;
  meta.channels = 3;
  meta.gop_size = 8;
  meta.encoded_bytes_per_video = 1 << 20;
  return meta;
}

// Times PruneToBudget alone (copying the plan and freeing the previous
// copy are untimed); items are videos, so the per-video prune cost reads
// directly off items/s.
void RunPruneBench(benchmark::State& state, const DatasetMeta& meta,
                   const std::vector<TaskConfig>& tasks, double budget_share) {
  PlannerOptions options;
  options.k_epochs = 4;
  options.seed = 1;
  auto plan = BuildMaterializationPlan(meta, tasks, 0, options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  const uint64_t budget =
      static_cast<uint64_t>(budget_share * static_cast<double>(plan->CachedBytes()));
  int64_t rounds = 0;
  MaterializationPlan copy;
  for (auto _ : state) {
    state.PauseTiming();
    copy = *plan;
    state.ResumeTiming();
    PruningReport report = PruneToBudget(copy, budget);
    rounds = report.rounds;
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * meta.num_videos());
  size_t nodes = 0;
  for (const VideoObjectGraph& graph : plan->videos) {
    nodes += graph.nodes.size();
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["nodes_per_video"] =
      static_cast<double>(nodes) / static_cast<double>(meta.num_videos());
}

// Scaling with the dataset: one SlowFast task on 300-frame videos, budget
// a quarter of the all-leaves footprint.
void BM_PruneToBudget(benchmark::State& state) {
  DatasetMeta meta = PruneBenchMeta(static_cast<int>(state.range(0)), 300, 64, 96);
  RunPruneBench(state, meta, {MakeTaskConfig(SlowFastProfile(), meta.path, "a")}, 0.25);
}
BENCHMARK(BM_PruneToBudget)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

// The budget-bound service shape: SlowFast + MAE on sandbench's 48 videos
// of 48 frames at 64x96, pruned to 0.45 of the footprint under the 0.9
// eviction watermark.
void BM_PruneToBudgetMultitask(benchmark::State& state) {
  DatasetMeta meta = PruneBenchMeta(48, 48, 64, 96);
  RunPruneBench(state, meta,
                {MakeTaskConfig(SlowFastProfile(), meta.path, "slowfast"),
                 MakeTaskConfig(MaeProfile(), meta.path, "mae")},
                0.405);
}
BENCHMARK(BM_PruneToBudgetMultitask)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sand

BENCHMARK_MAIN();
