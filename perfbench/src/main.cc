// rheem_perfbench: runs one workload of the RHEEM-CPP benchmark and prints
// its report, ending with one JSON line holding every metric it measured.
//
//   rheem_perfbench --workload apps_batch|sql_interactive|sql_analytic
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--data-dir DIR]
//
// perfbench/run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: rheem_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--data-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--data-dir") {
      args.data_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();
  ::mkdir(args.out_dir.c_str(), 0755);

  perfbench::Report report;
  perfbench::StampHost(&report);
  report.Stamp("seed", static_cast<double>(args.seed));
  report.Stamp("seconds", args.seconds);
  int rc = 0;
  if (args.workload == "apps_batch") {
    rc = perfbench::RunAppsBatch(args, &report);
  } else if (args.workload == "sql_interactive") {
    rc = perfbench::RunSqlInteractive(args, &report);
  } else if (args.workload == "sql_analytic") {
    rc = perfbench::RunSqlAnalytic(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  const double attempted = static_cast<double>(report.attempted());
  report.Set("error_rate",
             attempted > 0 ? static_cast<double>(report.failed()) / attempted
                           : 1.0,
             "share");
  std::printf("%s\n", report.ToJson(args).c_str());
  std::fflush(stdout);
  if (rc != 0) return rc;
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
