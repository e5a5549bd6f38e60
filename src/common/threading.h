// Process-wide thread identity and a shared monotonic epoch.
//
// Log lines, metric counter shards, and trace events all need to name the
// calling thread, and logs must be correlatable with trace spans; both
// therefore come from here: one dense small id per thread, one process
// start anchor for timestamps.

#ifndef SAND_COMMON_THREADING_H_
#define SAND_COMMON_THREADING_H_

#include <cstdint>
#include <string>
#include <thread>

#include "src/common/clock.h"

namespace sand {

// Dense id of the calling thread: 0 for the first thread that asks, 1 for
// the next, ... Stable for the thread's lifetime; ids are never reused.
uint32_t SmallThreadId();

// Nanoseconds on the monotonic clock since the process anchor (captured on
// first use). SAND_LOG prefixes and trace-event timestamps share this
// epoch, so a log line at t=1.234s sits inside the span covering it.
Nanos SinceProcessStart();

// Names `thread` (pthread_setname_np keeps 15 bytes) for top -H, gdb and
// /proc/<pid>/task/*/comm. SAND names each thread it starts "sand-..."
// right after constructing it, so the name shows before the thread runs.
void NameThread(std::thread& thread, const std::string& name);

}  // namespace sand

#endif  // SAND_COMMON_THREADING_H_
