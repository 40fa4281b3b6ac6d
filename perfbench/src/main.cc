// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload batch-static|serve-net|churn-dynamic --seed N
//             --seconds S --trace 0|1 [--scale X] [--trace-dir DIR]
//             [--source DIGEST]
//
// Generates seeded inputs, runs the workload against the public API,
// checks every answer, and prints a fingerprint line followed by the
// result as the last line of stdout. Exits 1 when any answer failed a
// check, 2 on a usage or set-up error.
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch-static|serve-net|churn-dynamic --seed N --seconds S "
               "--trace 0|1 [--scale X] [--trace-dir DIR] [--source DIGEST]\n",
               msg);
  std::exit(2);
}

double ParseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) Usage((std::string("missing value for ") + flag).c_str());
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      char* end = nullptr;
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("bad value for --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = ParseNumber(flag, value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = ParseNumber(flag, value) != 0.0;
    } else if (std::strcmp(flag, "--scale") == 0) {
      args.scale = ParseNumber(flag, value);
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      args.trace_dir = value;
    } else if (std::strcmp(flag, "--source") == 0) {
      args.source_digest = value;
    } else {
      Usage((std::string("unknown flag ") + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0) || !(args.scale > 0.0)) {
    Usage("--seconds and --scale must be positive");
  }

  perfbench::Report report;
  if (args.workload == "batch-static") {
    report = perfbench::RunBatchStatic(args);
  } else if (args.workload == "serve-net") {
    report = perfbench::RunServeNet(args);
  } else if (args.workload == "churn-dynamic") {
    report = perfbench::RunChurnDynamic(args);
  } else {
    Usage("unknown --workload");
  }
  std::printf("fingerprint %s\n",
              perfbench::FingerprintJson(args.workload, args.seed,
                                         PERFBENCH_BUILD_TYPE, args.source_digest,
                                         report.steal_share)
                  .c_str());
  perfbench::PrintResult(report);
  return report.checks_ok ? 0 : 1;
}
