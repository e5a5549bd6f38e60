// CircuitBreaker: trip-and-reprobe state for a resource that can go away,
// shared by the TieredCache disk tier (DESIGN.md §10) and each cluster
// peer (DESIGN.md §14).
//
// `offline_threshold` consecutive failed ops trip the breaker. While it is
// open, Allow() admits one caller per `reprobe_interval`: the probe slot is
// claimed by CAS, so a dead resource costs one failed op per interval
// rather than one per caller. A failed probe pushes the next probe a full
// interval out; any healthy result closes the breaker and resets the
// streak. Lock-free; Allow() on a closed breaker is one relaxed load.

#ifndef SAND_COMMON_CIRCUIT_BREAKER_H_
#define SAND_COMMON_CIRCUIT_BREAKER_H_

#include <atomic>

#include "src/common/clock.h"

namespace sand {

class CircuitBreaker {
 public:
  // What one Note() did to the breaker; callers log and publish gauges on
  // the two edges.
  enum class Transition { kNone, kTripped, kRecovered };

  // `clock` must outlive the breaker (tests pass a ManualClock).
  CircuitBreaker(int offline_threshold, Nanos reprobe_interval,
                 const Clock& clock = WallClock::Get());

  // True when an op may be attempted: online, or offline with an expired
  // reprobe clock (the caller becomes the probe).
  bool Allow();
  // Records one op's outcome. `healthy` = the op did not end in a failure
  // of the guarded resource itself.
  Transition Note(bool healthy);

  bool offline() const { return offline_.load(std::memory_order_relaxed); }
  int failure_streak() const { return failure_streak_.load(std::memory_order_relaxed); }

 private:
  const int offline_threshold_;
  const Nanos reprobe_interval_;
  const Clock& clock_;
  std::atomic<int> failure_streak_{0};
  std::atomic<bool> offline_{false};
  std::atomic<Nanos> probe_at_{0};
};

}  // namespace sand

#endif  // SAND_COMMON_CIRCUIT_BREAKER_H_
