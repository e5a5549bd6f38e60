#include "src/common/threading.h"

#include <pthread.h>

#include <atomic>

namespace sand {

uint32_t SmallThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Nanos SinceProcessStart() {
  static const Nanos anchor = WallClock::Get().Now();
  return WallClock::Get().Now() - anchor;
}

void NameThread(std::thread& thread, const std::string& name) {
  pthread_setname_np(thread.native_handle(), name.substr(0, 15).c_str());
}

}  // namespace sand
