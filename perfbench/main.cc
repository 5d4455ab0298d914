// Benchmark runner binary: runs one workload in this process and prints
// the raw measurements as one JSON object on stdout. perfbench/run.py
// builds it, runs each workload in fresh processes (so one workload's
// heap never prices another's, e.g. through fork page-table copies) and
// reduces the samples to the reported metrics.
//
//   qox_perfbench --workload nightly_serial|nightly_parallel|cdc_supervised
//                 --seed N --seconds S --trace 0|1 --work-dir DIR

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace qox::perfbench {

namespace {

int Usage(const std::string& message) {
  std::cerr << "qox_perfbench: " << message
            << "\nusage: qox_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  Status status;
  if (options.workload == "nightly_serial") {
    status = RunNightly(options, /*parallel=*/false, &report);
  } else if (options.workload == "nightly_parallel") {
    status = RunNightly(options, /*parallel=*/true, &report);
  } else if (options.workload == "cdc_supervised") {
    status = RunCdcSupervised(options, &report);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!status.ok()) {
    std::cerr << "qox_perfbench: " << options.workload
              << " could not run: " << status.ToString() << "\n";
    return 1;
  }
  std::cout << report.ToJson() << std::endl;
  return 0;
}

}  // namespace
}  // namespace qox::perfbench

int main(int argc, char** argv) { return qox::perfbench::Main(argc, argv); }
