#include "sandbench/src/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/crc32.h"

namespace sandbench {

using sand::obs::Histogram;

namespace {

// Index (0-based) of the nearest-rank q-quantile among n sorted samples.
size_t NearestRankIndex(size_t n, double q) {
  q = std::clamp(q, 0.0, 1.0);
  // The epsilon keeps q * n that lands a rounding error above an integer
  // (0.99 * 1000) on that integer's rank.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::max<size_t>(rank, 1) - 1;
}

// One pass over the histogram's quantile curve. Rank r (1-based) lands in
// bucket BucketIndex(Quantile((r - 0.5) / count)); the curve is monotone,
// so each bucket's run of ranks is found by exponential + binary search.
HistogramSnapshot ReadBuckets(const Histogram& histogram) {
  HistogramSnapshot snapshot;
  snapshot.sum = histogram.Sum();
  const uint64_t count = histogram.Count();
  snapshot.count = count;
  auto bucket_of_rank = [&](uint64_t rank) {
    double q = (static_cast<double>(rank) - 0.5) / static_cast<double>(count);
    return Histogram::BucketIndex(histogram.Quantile(q));
  };
  uint64_t rank = 1;
  while (rank <= count) {
    const size_t bucket = bucket_of_rank(rank);
    uint64_t lo = rank;  // last rank known to be in `bucket`
    uint64_t hi = count + 1;  // first rank known past it
    for (uint64_t step = 1;; step *= 2) {
      uint64_t probe = lo + step;
      if (probe > count || bucket_of_rank(probe) != bucket) {
        hi = std::min(probe, count + 1);
        break;
      }
      lo = probe;
    }
    while (hi - lo > 1) {
      uint64_t mid = lo + (hi - lo) / 2;
      (bucket_of_rank(mid) == bucket ? lo : hi) = mid;
    }
    snapshot.buckets[bucket] += lo - rank + 1;
    rank = lo + 1;
  }
  return snapshot;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  size_t index = NearestRankIndex(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

TailResult TailQuantile(std::vector<double> samples, double target, uint64_t min_beyond) {
  TailResult result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double levels[] = {target, 0.95, 0.9, 0.75, 0.5};
  for (double level : levels) {
    if (level > target) continue;
    size_t index = NearestRankIndex(samples.size(), level);
    uint64_t beyond = samples.size() - 1 - index;
    result.quantile = level;
    result.value = samples[index];
    result.beyond = beyond;
    result.resolved = beyond >= min_beyond;
    if (result.resolved) break;
  }
  return result;
}

Quartiles QuartilesOf(std::vector<double> samples) {
  Quartiles out;
  out.q1 = Quantile(samples, 0.25);
  out.median = Quantile(samples, 0.5);
  out.q3 = Quantile(std::move(samples), 0.75);
  return out;
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t HistogramSnapshot::QuantileValue(double q) const {
  if (count == 0) return 0;
  uint64_t rank = NearestRankIndex(count, q) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::BucketMidpoint(i);
  }
  return Histogram::BucketMidpoint(buckets.size() - 1);
}

HistogramSnapshot Snapshot(const Histogram& histogram) {
  HistogramSnapshot snapshot;
  for (int attempt = 0; attempt < 5; ++attempt) {
    uint64_t count_before = histogram.Count();
    snapshot = ReadBuckets(histogram);
    uint64_t total = 0;
    for (uint64_t n : snapshot.buckets) total += n;
    if (total == count_before && histogram.Count() == count_before) break;
  }
  return snapshot;
}

HistogramSnapshot Diff(const HistogramSnapshot& after, const HistogramSnapshot& before) {
  HistogramSnapshot out;
  for (size_t i = 0; i < out.buckets.size(); ++i) {
    out.buckets[i] = after.buckets[i] > before.buckets[i] ? after.buckets[i] - before.buckets[i]
                                                         : 0;
    out.count += out.buckets[i];
  }
  out.sum = after.sum > before.sum ? after.sum - before.sum : 0;
  return out;
}

RegistrySnapshot TakeSnapshot(const std::vector<std::string>& counters,
                              const std::vector<std::string>& histograms) {
  sand::obs::Registry& registry = sand::obs::Registry::Get();
  RegistrySnapshot snapshot;
  for (const std::string& name : counters) {
    snapshot.counters[name] = registry.GetCounter(name)->Value();
  }
  for (const std::string& name : histograms) {
    snapshot.histograms[name] = Snapshot(*registry.GetHistogram(name));
  }
  return snapshot;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    counters_[name] = value > base ? value - base : 0;
  }
  for (const auto& [name, histogram] : after.histograms) {
    auto it = before.histograms.find(name);
    histograms_[name] =
        it == before.histograms.end() ? histogram : Diff(histogram, it->second);
  }
}

void RegistryDelta::Accumulate(const RegistryDelta& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, histogram] : other.histograms_) {
    HistogramSnapshot& sum = histograms_[name];
    for (size_t i = 0; i < sum.buckets.size(); ++i) sum.buckets[i] += histogram.buckets[i];
    sum.count += histogram.count;
    sum.sum += histogram.sum;
  }
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const HistogramSnapshot& RegistryDelta::Histogram(const std::string& name) const {
  static const HistogramSnapshot kEmpty;
  auto it = histograms_.find(name);
  return it == histograms_.end() ? kEmpty : it->second;
}

void CrcBook::AddToSample(const std::string& view) {
  std::lock_guard<std::mutex> lock(mutex_);
  sample_.insert(view);
}

bool CrcBook::InSample(const std::string& view) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sample_.count(view) != 0;
}

bool CrcBook::Observe(uint64_t plan_seed, const std::string& view,
                      std::span<const uint8_t> bytes) {
  if (!InSample(view)) return false;
  uint32_t crc = sand::Crc32(bytes);
  std::lock_guard<std::mutex> lock(mutex_);
  observations_.push_back({{plan_seed, view}, crc});
  return true;
}

std::vector<CrcBook::Key> CrcBook::Observed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<Key> keys;
  for (const auto& [key, crc] : observations_) keys.insert(key);
  return {keys.begin(), keys.end()};
}

uint64_t CrcBook::Verify(const std::map<Key, uint32_t>& reference) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t mismatches = 0;
  for (const auto& [key, crc] : observations_) {
    auto it = reference.find(key);
    if (it == reference.end() || it->second != crc) ++mismatches;
  }
  return mismatches;
}

uint64_t CrcBook::checked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observations_.size();
}

}  // namespace sandbench
