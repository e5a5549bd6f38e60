#include "src/obs/history.h"

#include <chrono>
#include <sstream>

#include "src/common/threading.h"
#include "src/obs/metrics.h"

namespace sand {
namespace obs {

HistoryRecorder& HistoryRecorder::Get() {
  static HistoryRecorder* recorder = new HistoryRecorder();  // never destroyed
  return *recorder;
}

void HistoryRecorder::Start(const Options& options) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (running_) {
    return;
  }
  options_ = options;
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
  if (options_.interval_ms <= 0) {
    return;  // manual SampleNow() only
  }
  running_ = true;
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> tick_lock(mutex_);
    while (running_) {
      SampleLocked();
      cv_.wait_for(tick_lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return !running_; });
    }
  });
  NameThread(thread_, "sand-history");
}

void HistoryRecorder::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      return;
    }
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) {
    to_join.join();
  }
}

uint64_t HistoryRecorder::AddSampler(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t handle = next_sampler_id_++;
  samplers_.emplace_back(handle, std::move(fn));
  return handle;
}

void HistoryRecorder::RemoveSampler(uint64_t handle) {
  // The tick holds mutex_ while running samplers, so once we own it the
  // callback is guaranteed not to be mid-flight.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = samplers_.begin(); it != samplers_.end(); ++it) {
    if (it->first == handle) {
      samplers_.erase(it);
      return;
    }
  }
}

void HistoryRecorder::SampleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  SampleLocked();
}

void HistoryRecorder::SampleLocked() {
  for (auto& [handle, fn] : samplers_) {
    fn();
  }
  Sample sample;
  sample.t_ms = SinceProcessStart() / 1'000'000;
  sample.values.resize(names_.size(), 0);
  Registry::Get().VisitNumeric([this, &sample](const std::string& name, int64_t value) {
    auto it = name_index_.find(name);
    size_t index;
    if (it == name_index_.end()) {
      index = names_.size();
      names_.push_back(name);
      name_index_.emplace(name, index);
      sample.values.resize(names_.size(), 0);
    } else {
      index = it->second;
    }
    sample.values[index] = value;
  });
  samples_.push_back(std::move(sample));
  size_t capacity = options_.capacity == 0 ? 1200 : options_.capacity;
  while (samples_.size() > capacity) {
    samples_.pop_front();
  }
}

std::string HistoryRecorder::ToJson() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"interval_ms\": " << options_.interval_ms << ",\n  \"names\": [";
  for (size_t i = 0; i < names_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << names_[i] << "\"";
  }
  out << "],\n  \"samples\": [";
  bool first = true;
  for (const Sample& sample : samples_) {
    out << (first ? "\n" : ",\n") << "    {\"t_ms\": " << sample.t_ms << ", \"v\": [";
    for (size_t i = 0; i < names_.size(); ++i) {
      // Older samples predate later-registered metrics: render 0.
      int64_t v = i < sample.values.size() ? sample.values[i] : 0;
      out << (i == 0 ? "" : ", ") << v;
    }
    out << "]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
  return out.str();
}

void HistoryRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  samples_.clear();
  names_.clear();
  name_index_.clear();
}

size_t HistoryRecorder::SampleCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

}  // namespace obs
}  // namespace sand
