// The benchmark's own spans, recorded around each call it makes into a
// layer's public functions (BatchSource::NextBatch, SandFs verbs,
// SandService::Start, SandClient verbs). Nothing is added inside the
// program. Spans are kept in memory while recording is on and written out
// as Chrome trace-event JSON when the benchmark ends.

#ifndef SANDBENCH_SRC_SPANS_H_
#define SANDBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sandbench {

struct SpanRecord {
  const char* name = nullptr;  // static string
  int64_t start_ns = 0;        // steady clock
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // enclosing span on the same thread; 0 = none
  uint64_t thread = 0;

  double DurationMs() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class SpanLog {
 public:
  static SpanLog& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const SpanRecord& span);
  // Every recorded span called `name`.
  std::vector<SpanRecord> Named(const char* name) const;
  // Writes every recorded span as Chrome trace-event JSON; false on I/O
  // failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

int64_t NowNs();

// Records a span that began and ended on different calls (an async request
// from issue to completion) when recording is on; it has no parent.
void RecordInterval(const char* name, int64_t start_ns, int64_t end_ns);

// Records one span on the SpanLog for its scope when recording is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

}  // namespace sandbench

#endif  // SANDBENCH_SRC_SPANS_H_
