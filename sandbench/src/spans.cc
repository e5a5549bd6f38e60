#include "sandbench/src/spans.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace sandbench {

namespace {

thread_local uint64_t t_current_span = 0;
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_thread{1};

uint64_t ThreadNumber() {
  thread_local uint64_t number = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return number;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();  // outlives every recording thread
  return *log;
}

void SpanLog::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<SpanRecord> SpanLog::Named(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRecord> out;
  for (const SpanRecord& span : spans_) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span);
  }
  return out;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, \"parent\": %llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.thread),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

void RecordInterval(const char* name, int64_t start_ns, int64_t end_ns) {
  if (!SpanLog::Get().enabled()) return;
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record.thread = ThreadNumber();
  SpanLog::Get().Record(record);
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!SpanLog::Get().enabled()) return;
  record_.name = name;
  record_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_current_span;
  record_.thread = ThreadNumber();
  saved_parent_ = t_current_span;
  t_current_span = record_.id;
  record_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (record_.name == nullptr) return;
  record_.end_ns = NowNs();
  t_current_span = saved_parent_;
  SpanLog::Get().Record(record_);
}

}  // namespace sandbench
