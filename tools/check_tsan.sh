#!/usr/bin/env bash
# Builds the concurrency-sensitive tests with ThreadSanitizer and runs
# them. Covers the circuit breaker's CAS-claimed reprobe slot
# (common_test), the sharded stores / tiered cache (storage_test,
# object_path_test), the executor + scheduler paths (core_test,
# sched_test: the one CPU pool, its group join with inline runs, tenant
# caps), the lock-free metrics/trace ring (obs_test), the async demand
# path / prefetcher as scheduler jobs, including the one-worker
# join-deadlock test (prefetch_test), the GOP-parallel decode path
# (codec_test: slice decoders fanned out on a WorkerPool),
# the fault-injection / disk-degradation machinery
# (fault_injection_test: retry + circuit-breaker state under chaos),
# trace-context propagation across pool/future/scheduler hand-offs
# (trace_context_test), the socket front-end (net_test: concurrent
# client connections, per-tenant admission, disconnect teardown), and
# the sharded store cluster (cluster_test: peer probe, breaker
# transitions, node-kill failover).
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
TESTS=(common_test storage_test object_path_test sched_test core_test obs_test prefetch_test codec_test fault_injection_test compress_tier_test trace_context_test net_test cluster_test)

cmake -B "$BUILD_DIR" -S . -DSAND_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TESTS[@]}"

status=0
for test in "${TESTS[@]}"; do
  echo "==== TSAN: $test ===="
  # halt_on_error keeps the first report close to its cause.
  if ! TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
      "$BUILD_DIR/tests/$test"; then
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "TSAN: all clean"
else
  echo "TSAN: failures detected" >&2
fi
exit "$status"
