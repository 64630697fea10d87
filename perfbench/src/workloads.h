#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common/config.h"
#include "harness.h"

namespace perfbench {

/// The cluster constants every workload runs with: the scaled-down sparksim
/// cluster of EXPERIMENTS.md (8 slots, 8 partitions).
inline rheem::Config BenchConfig() {
  rheem::Config config;
  config.SetInt("sparksim.slots", 8);
  config.SetInt("sparksim.partitions", 8);
  return config;
}

/// Each returns the process exit code; metrics and failures go to `report`.
int RunAppsBatch(const Args& args, Report* report);
int RunSqlInteractive(const Args& args, Report* report);
int RunSqlAnalytic(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
