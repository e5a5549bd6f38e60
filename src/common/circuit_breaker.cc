#include "src/common/circuit_breaker.h"

namespace sand {

CircuitBreaker::CircuitBreaker(int offline_threshold, Nanos reprobe_interval,
                               const Clock& clock)
    : offline_threshold_(offline_threshold), reprobe_interval_(reprobe_interval), clock_(clock) {}

bool CircuitBreaker::Allow() {
  if (!offline_.load(std::memory_order_relaxed)) {
    return true;
  }
  const Nanos now = clock_.Now();
  Nanos probe_at = probe_at_.load(std::memory_order_relaxed);
  while (now >= probe_at) {
    // Claim the probe slot: exactly one caller per reprobe interval gets to
    // test the resource; everyone else is refused.
    if (probe_at_.compare_exchange_weak(probe_at, now + reprobe_interval_,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

CircuitBreaker::Transition CircuitBreaker::Note(bool healthy) {
  if (healthy) {
    failure_streak_.store(0, std::memory_order_relaxed);
    return offline_.exchange(false, std::memory_order_relaxed) ? Transition::kRecovered
                                                               : Transition::kNone;
  }
  const int streak = failure_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak >= offline_threshold_ && !offline_.exchange(true, std::memory_order_relaxed)) {
    probe_at_.store(clock_.Now() + reprobe_interval_, std::memory_order_relaxed);
    return Transition::kTripped;
  }
  if (offline_.load(std::memory_order_relaxed)) {
    // A failed probe: push the next probe out a full interval.
    probe_at_.store(clock_.Now() + reprobe_interval_, std::memory_order_relaxed);
  }
  return Transition::kNone;
}

}  // namespace sand
