// The benchmark program: perfbench --workload answer|serve|ingest --seed N
//   --seconds S --trace 0|1 --scratch DIR
//
// Runs one workload for about S seconds (each workload repeats whole
// sessions until the time is spent), checks every output, and prints one
// JSON result object as the last line of stdout. Exits 1 when an output
// diverges or an argument is invalid.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (argc % 2 != 1) {
    std::fprintf(stderr, "perfbench: every flag takes one value\n");
    return 1;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 1;
    }
  }
  if (options.scratch.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload answer|serve|ingest --seed N "
                 "--seconds S --trace 0|1 --scratch DIR\n");
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.scratch, ec);

  perfbench::Report report;
  if (options.workload == "answer") {
    perfbench::RunAnswer(options, &report);
  } else if (options.workload == "serve") {
    perfbench::RunServe(options, &report);
  } else if (options.workload == "ingest") {
    perfbench::RunIngest(options, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 1;
  }
  if (report.attempted == 0) report.Diverged("no operation was attempted");
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
