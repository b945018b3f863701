#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads (see ../README.md for why each exists and which
// layers it loads). Each fills `report` with its end-to-end metrics, or
// with every per-layer metric when options.trace is set.

#include "common.h"

namespace perfbench {

void RunAnswer(const RunOptions& options, Report* report);
void RunServe(const RunOptions& options, Report* report);
void RunIngest(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
