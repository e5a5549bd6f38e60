// Statistics the SAND benchmark reports from, kept apart from the workloads
// so the self-tests can check them on known inputs:
//
//   - TailQuantile: a latency percentile that is only reported at a level
//     with at least `min_beyond` samples above it, so a p99 from 200
//     samples is never passed off as resolved.
//   - HistogramSnapshot / Diff: per-run deltas of the program's log-linear
//     histograms, bucket by bucket. The buckets are recovered through the
//     histogram's public quantile API, so no program code changes.
//   - RegistrySnapshot / RegistryDelta: counters diffed by value and
//     histograms bucket by bucket around each measured window, then summed
//     over windows, so no number carries an earlier run's or workload's
//     work.
//   - CrcBook: the output check. Delivered bytes of sampled batch views are
//     CRC'd and later compared against a reference computed independently.

#ifndef SANDBENCH_SRC_STATS_H_
#define SANDBENCH_SRC_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace sandbench {

// Nearest-rank quantile of unsorted samples (0 when empty).
double Quantile(std::vector<double> samples, double q);

struct TailResult {
  double quantile = 0;     // level actually reported (<= the target)
  double value = 0;        // sample at that level
  uint64_t samples = 0;    // total samples
  uint64_t beyond = 0;     // samples strictly ranked above the reported one
  bool resolved = false;   // beyond >= min_beyond at the reported level
};

// The highest of {target, 0.95, 0.9, 0.75, 0.5} (levels above `target`
// are never used) whose nearest-rank sample has at least `min_beyond`
// samples ranked beyond it. With too few samples for any level, reports the
// median unresolved.
TailResult TailQuantile(std::vector<double> samples, double target, uint64_t min_beyond = 10);

// Quartiles (nearest-rank q=0.25, 0.5, 0.75) of unsorted samples.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> samples);

// --- Histograms ---------------------------------------------------------

using BucketCounts = std::array<uint64_t, sand::obs::Histogram::kNumBuckets>;

struct HistogramSnapshot {
  BucketCounts buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  double Mean() const;
  // Bucket-midpoint nearest-rank quantile, the same estimate
  // Histogram::Quantile gives over the whole history.
  uint64_t QuantileValue(double q) const;
};

// Reads `histogram` bucket by bucket. Exact when no thread records into it
// meanwhile; under concurrent writes it retries until two reads of the
// total agree (a few attempts), then keeps the last reading.
HistogramSnapshot Snapshot(const sand::obs::Histogram& histogram);

// after - before, bucket by bucket (a bucket that reads lower afterwards,
// which only a concurrent reset could cause, counts as 0).
HistogramSnapshot Diff(const HistogramSnapshot& after, const HistogramSnapshot& before);

// --- Registry windows ---------------------------------------------------

struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
};

// Values of the named counters and histograms now (registering absent
// names, which the program does on first use anyway).
RegistrySnapshot TakeSnapshot(const std::vector<std::string>& counters,
                              const std::vector<std::string>& histograms);

// Work done between two snapshots of the same names.
class RegistryDelta {
 public:
  RegistryDelta() = default;
  RegistryDelta(const RegistrySnapshot& before, const RegistrySnapshot& after);
  // Adds another window's work: counters by value, histograms by bucket.
  void Accumulate(const RegistryDelta& other);
  uint64_t Counter(const std::string& name) const;
  const HistogramSnapshot& Histogram(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, HistogramSnapshot> histograms_;
};

// --- Output check -------------------------------------------------------

// Records the CRC of every delivered batch whose view path is in the
// sample, filed under the plan seed that produced it, then compares each
// against a reference. Thread-safe.
class CrcBook {
 public:
  using Key = std::pair<uint64_t, std::string>;  // (plan seed, view path)

  void AddToSample(const std::string& view);
  // CRCs `bytes` when `view` is sampled; returns whether it was.
  bool Observe(uint64_t plan_seed, const std::string& view, std::span<const uint8_t> bytes);
  // Distinct sampled (plan seed, view) pairs delivered at least once.
  std::vector<Key> Observed() const;
  // Compares every observation with `reference`; an observation with no
  // reference counts as a mismatch. Returns the number of mismatches.
  uint64_t Verify(const std::map<Key, uint32_t>& reference) const;
  uint64_t checked() const;

 private:
  bool InSample(const std::string& view) const;

  mutable std::mutex mutex_;
  std::set<std::string> sample_;
  std::vector<std::pair<Key, uint32_t>> observations_;
};

}  // namespace sandbench

#endif  // SANDBENCH_SRC_STATS_H_
