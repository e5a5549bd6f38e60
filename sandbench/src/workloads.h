// The SAND benchmark's workloads. Every workload is pipeline-bound: the
// benchmark zeroes ModelProfile::gpu_step on its own copy of each model
// profile, so delivered batches/s and process CPU per batch measure SAND's
// data path rather than the simulated GPU.
//
//   train_pipeline    1 SlowFast trainer, pre-materialization on, k = 4
//                     chunks, a budget that holds the whole plan
//   budget_multitask  SlowFast + MAE trainers, budget 0.45x the chunk's
//                     cached bytes, cache compression on
//   demand_readahead  1 SlowFast trainer, no pre-materialization, SandFs
//                     readahead window 2
//   serve_socket      2 tenants over a unix socket, one SandClient thread
//                     each keeping 8 Open -> ReadAllSharedAsync -> Close
//                     requests in flight on a pre-materialized chunk
//
// Load comes from at most 2 closed-loop threads (trainers or clients).

#ifndef SANDBENCH_SRC_WORKLOADS_H_
#define SANDBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sandbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;        // per-layer run (spans on) instead of end-to-end
  std::string out_dir = ".";  // where the traced run writes its span file
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // what a ratio or mean is taken over (printed, not in JSON)
};

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload; false (with a message on stderr) when it cannot run.
bool RunWorkload(const RunOptions& options, Report& report);

}  // namespace sandbench

#endif  // SANDBENCH_SRC_WORKLOADS_H_
