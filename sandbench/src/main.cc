// sand_bench: runs one SAND benchmark workload and prints its metrics.
//
//   sand_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that writes the span file and the per-layer table. Every
// metric is printed by name with its unit and base on stderr; the last line
// of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sandbench/src/workloads.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\nworkloads:",
               argv0);
  for (const std::string& name : sandbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  sandbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    auto number = [&]() {
      const char* text = value();
      char* end = nullptr;
      double v = std::strtod(text, &end);
      if (end == text || *end != '\0') Usage(argv[0]);
      return v;
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      options.workload = value();
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = static_cast<uint64_t>(number());
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      options.seconds = number();
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      options.trace = number() != 0;
    } else if (std::strcmp(argv[i], "--out-dir") == 0) {
      options.out_dir = value();
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload || !(options.seconds > 0)) Usage(argv[0]);

  sandbench::Report report;
  if (!sandbench::RunWorkload(options, report)) return 1;

  std::fprintf(stderr, "%-40s %16s  %-6s %s\n", "metric", "value", "unit", "base");
  for (const sandbench::Metric& metric : report.metrics) {
    std::fprintf(stderr, "%-40s %16.6g  %-6s %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str(), metric.base.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const sandbench::Metric& metric = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            JsonNumber(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
