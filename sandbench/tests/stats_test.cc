// Self-tests of the benchmark's statistics: the tail-percentile rule, the
// bucket-wise histogram diff, and the CRC output check.

#include "sandbench/src/stats.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/crc32.h"

namespace sandbench {
namespace {

using sand::obs::Histogram;

std::vector<double> Range(int n) {
  std::vector<double> out;
  for (int i = 1; i <= n; ++i) out.push_back(i);
  return out;
}

TEST(TailQuantile, ReportsTargetWhenTenSamplesLieBeyondIt) {
  TailResult tail = TailQuantile(Range(1000), 0.99);
  EXPECT_TRUE(tail.resolved);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 990);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(TailQuantile, FallsBackToALowerLevelWithTooFewSamples) {
  // 999 samples: p99 has only 9 beyond it, p95 has 49.
  TailResult tail = TailQuantile(Range(999), 0.99);
  EXPECT_TRUE(tail.resolved);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.95);
  EXPECT_DOUBLE_EQ(tail.value, 950);
  EXPECT_EQ(tail.beyond, 49u);
}

TEST(TailQuantile, UnresolvedBelowTwentySamples) {
  TailResult tail = TailQuantile(Range(15), 0.99);
  EXPECT_FALSE(tail.resolved);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.5);
  EXPECT_DOUBLE_EQ(tail.value, 8);
}

TEST(TailQuantile, NeverReportsAboveTheTarget) {
  TailResult tail = TailQuantile(Range(100000), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
}

TEST(Quartiles, NearestRank) {
  Quartiles q = QuartilesOf({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(q.q1, 1);
  EXPECT_DOUBLE_EQ(q.median, 2);
  EXPECT_DOUBLE_EQ(q.q3, 3);
}

TEST(HistogramSnapshot, RecoversEveryBucketExactly) {
  Histogram histogram;
  BucketCounts expected{};
  uint64_t value = 1;
  for (int i = 0; i < 3000; ++i) {
    value = value * 6364136223846793005ULL + 1442695040888963407ULL;
    uint64_t sample = (value >> 40) % (1 + (i % 7) * 100000);
    histogram.Record(sample);
    ++expected[Histogram::BucketIndex(sample)];
  }
  HistogramSnapshot snapshot = Snapshot(histogram);
  EXPECT_EQ(snapshot.buckets, expected);
  EXPECT_EQ(snapshot.count, 3000u);
  EXPECT_EQ(snapshot.sum, histogram.Sum());
}

TEST(HistogramSnapshot, DiffKeepsOnlyTheWindowsSamples) {
  Histogram histogram;
  for (int i = 0; i < 500; ++i) histogram.Record(1000000);  // an earlier run: 1 ms
  HistogramSnapshot before = Snapshot(histogram);
  for (int i = 0; i < 100; ++i) histogram.Record(10);  // this window: 10 ns
  HistogramSnapshot delta = Diff(Snapshot(histogram), before);
  EXPECT_EQ(delta.count, 100u);
  EXPECT_EQ(delta.sum, 1000u);
  EXPECT_EQ(delta.buckets[Histogram::BucketIndex(10)], 100u);
  EXPECT_EQ(delta.buckets[Histogram::BucketIndex(1000000)], 0u);
  // The cumulative histogram's p99 is the earlier run's 1 ms; the window's
  // is 10 ns.
  EXPECT_GT(histogram.Quantile(0.99), 900000u);
  EXPECT_EQ(delta.QuantileValue(0.99), 10u);
  EXPECT_DOUBLE_EQ(delta.Mean(), 10.0);
}

TEST(RegistryDelta, CountersByValueHistogramsByBucket) {
  auto& registry = sand::obs::Registry::Get();
  registry.GetCounter("sandbench.test.count")->Add(7);
  registry.GetHistogram("sandbench.test.ns")->Record(5);
  RegistrySnapshot before = TakeSnapshot({"sandbench.test.count"}, {"sandbench.test.ns"});
  registry.GetCounter("sandbench.test.count")->Add(3);
  registry.GetHistogram("sandbench.test.ns")->Record(40);
  RegistryDelta delta(before, TakeSnapshot({"sandbench.test.count"}, {"sandbench.test.ns"}));
  EXPECT_EQ(delta.Counter("sandbench.test.count"), 3u);
  EXPECT_EQ(delta.Histogram("sandbench.test.ns").count, 1u);
  EXPECT_EQ(delta.Histogram("sandbench.test.ns").sum, 40u);
  EXPECT_EQ(delta.Counter("sandbench.test.absent"), 0u);
}

TEST(CrcBook, CorruptedBatchCountsAsFailed) {
  const std::string view = "/t/1/0/view";
  std::vector<uint8_t> batch(4096);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<uint8_t>(i * 31);
  std::vector<uint8_t> corrupted = batch;
  corrupted[1234] ^= 0x01;

  CrcBook book;
  book.AddToSample(view);
  EXPECT_TRUE(book.Observe(7, view, batch));
  EXPECT_TRUE(book.Observe(7, view, corrupted));
  EXPECT_FALSE(book.Observe(7, "/t/2/0/view", batch));  // not sampled: not checked
  EXPECT_EQ(book.checked(), 2u);
  const std::vector<CrcBook::Key> observed = {{7, view}};
  EXPECT_EQ(book.Observed(), observed);
  const std::map<CrcBook::Key, uint32_t> reference = {{{7, view}, sand::Crc32(batch)}};
  EXPECT_EQ(book.Verify(reference), 1u);  // only the corrupted copy
}

TEST(CrcBook, ReferenceIsPerPlanSeed) {
  const std::string view = "/t/1/0/view";
  const std::vector<uint8_t> batch(64, 3);
  CrcBook book;
  book.AddToSample(view);
  book.Observe(1, view, batch);
  book.Observe(2, view, batch);
  // A reference for plan seed 1 only: seed 2's delivery has nothing to
  // match and counts as failed.
  const std::map<CrcBook::Key, uint32_t> reference = {{{1, view}, sand::Crc32(batch)}};
  EXPECT_EQ(book.Verify(reference), 1u);
}

}  // namespace
}  // namespace sandbench
