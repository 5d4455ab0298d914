// Transform throughput: columnar fast path vs row-at-a-time kernels.
//
// Runs two flows of the Fig. 3 scenario for real with in-memory sources
// (so the transform segment, not extraction, is the subject) as the engine
// runs them (columnar wherever an op has a kernel) and as their row-kernel
// baseline (every factory wrapped in testing_util::RowOnly, the decorator
// the tests use), across batch sizes and worker counts, and reports
// rows/sec of the transform phase for each combination:
//
//   * click_top (S3 -> Flt -> Func -> SK -> DW3): the whole chain is
//     per-row and columnar-capable, so the entire transform segment runs
//     vectorized — the headline speedup.
//   * sales_bottom (S1 -> Δ -> Lkp x2 -> Flt -> Func -> SK x2 -> DW1): the
//     blocking Δ stays on the row path; the six ops behind it form one
//     columnar run (shared-dimension flat probes included).
//
// Every combination also byte-compares the two warehouses: the fast path
// must be a pure throughput change. Like perf_streaming this measures real
// wall time, so it skips the virtual N-CPU scheduler and the
// google-benchmark harness. Results go to stdout AND BENCH_transform.json.
//
// Usage: perf_transform [--quick]   (--quick: small sweep for ctest smoke)

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/sales_workflow.h"
#include "engine/executor.h"
#include "row_only.h"

namespace qox {
namespace {

constexpr int kRepeats = 3;  // best-of, to shed cold-cache noise

struct Sweep {
  size_t rows = 120000;
  std::vector<size_t> batch_sizes = {256, kDefaultBatchSize, 4096};
  std::vector<size_t> worker_counts = {1, 4};
  int repeats = kRepeats;
};

ExecutionConfig MakeConfig(size_t batch_size, size_t workers,
                           bool has_delta) {
  ExecutionConfig config;
  config.batch_size = batch_size;
  config.num_threads = workers;
  if (workers > 1) {
    config.parallel.partitions = workers;
    // The Δ serializes on the shared snapshot: partition the chain behind it.
    if (has_delta) config.parallel.range_begin = 1;
  }
  return config;
}

/// Best-of-repeats transform time for one configuration, plus the first
/// run's warehouse contents (for the byte-identity check across modes).
struct Sample {
  int64_t transform_micros = 0;
  int64_t total_micros = 0;
  int64_t rows_loaded = 0;
  size_t columnar_batches = 0;
  size_t columnar_rows = 0;
  std::vector<Row> warehouse;
  bool ok = false;
};

Sample Measure(SalesScenario* scenario, const LogicalFlow& flow,
               const DataStorePtr& warehouse, size_t batch_size,
               size_t workers, bool columnar, bool has_delta, int repeats) {
  Sample best;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    if (!scenario->ResetWarehouse().ok()) return best;
    FlowSpec spec = flow.ToFlowSpec();
    if (!columnar) spec = testing_util::RowOnly(std::move(spec));
    const Result<RunMetrics> metrics =
        Executor::Run(spec, MakeConfig(batch_size, workers, has_delta));
    if (!metrics.ok()) {
      std::cerr << "perf_transform run failed (flow=" << flow.id()
                << " batch=" << batch_size << " workers=" << workers
                << " columnar=" << columnar << "): " << metrics.status()
                << "\n";
      return best;
    }
    if (repeat == 0) {
      best.warehouse = warehouse->ReadAll().value().rows();
    }
    if (!best.ok || metrics.value().transform_micros < best.transform_micros) {
      best.transform_micros = metrics.value().transform_micros;
      best.total_micros = metrics.value().total_micros;
      best.rows_loaded = static_cast<int64_t>(metrics.value().rows_loaded);
      best.columnar_batches = metrics.value().columnar_batches;
      best.columnar_rows = metrics.value().columnar_rows;
      best.ok = true;
    }
  }
  return best;
}

double TransformRowsPerSec(const Sample& sample) {
  if (!sample.ok || sample.transform_micros <= 0) return 0.0;
  return static_cast<double>(sample.rows_loaded) * 1e6 /
         static_cast<double>(sample.transform_micros);
}

int RunBench(const Sweep& sweep) {
  SalesScenarioConfig config;
  config.s1_rows = sweep.rows;
  config.s2_rows = 2000;
  config.s3_rows = sweep.rows;
  Result<std::unique_ptr<SalesScenario>> scenario =
      SalesScenario::Create(config);
  if (!scenario.ok()) {
    std::cerr << "scenario build failed: " << scenario.status() << "\n";
    return 1;
  }

  std::ostringstream json;
  json << "{\"bench\":\"perf_transform\",\"rows\":" << sweep.rows
       << ",\"default_batch_size\":" << kDefaultBatchSize << ",\"flows\":[";
  bool first_flow = true;
  int failures = 0;
  for (const bool has_delta : {false, true}) {
    const LogicalFlow& flow = has_delta ? scenario.value()->bottom_flow()
                                        : scenario.value()->top_flow();
    const DataStorePtr& warehouse =
        has_delta ? scenario.value()->dw1() : scenario.value()->dw3();
    if (!first_flow) json << ",";
    first_flow = false;
    json << "{\"flow\":\"" << flow.id() << "\",\"results\":[";
    bool first = true;
    for (const size_t batch_size : sweep.batch_sizes) {
      for (const size_t workers : sweep.worker_counts) {
        const Sample row_mode =
            Measure(scenario.value().get(), flow, warehouse, batch_size,
                    workers, /*columnar=*/false, has_delta, sweep.repeats);
        const Sample col_mode =
            Measure(scenario.value().get(), flow, warehouse, batch_size,
                    workers, /*columnar=*/true, has_delta, sweep.repeats);
        if (!row_mode.ok || !col_mode.ok) return 1;
        const bool identical = row_mode.warehouse == col_mode.warehouse;
        if (!identical) {
          std::cerr << "BYTE-IDENTITY VIOLATION: flow=" << flow.id()
                    << " batch=" << batch_size << " workers=" << workers
                    << "\n";
          ++failures;
        }
        if (col_mode.columnar_batches == 0) {
          std::cerr << "fast path never engaged: flow=" << flow.id()
                    << " batch=" << batch_size << " workers=" << workers
                    << "\n";
          ++failures;
        }
        if (row_mode.columnar_batches != 0) {
          std::cerr << "row baseline ran columnar: flow=" << flow.id()
                    << " batch=" << batch_size << " workers=" << workers
                    << "\n";
          ++failures;
        }
        const double speedup =
            col_mode.transform_micros > 0
                ? static_cast<double>(row_mode.transform_micros) /
                      static_cast<double>(col_mode.transform_micros)
                : 0.0;
        if (!first) json << ",";
        first = false;
        json << "{\"batch_size\":" << batch_size << ",\"workers\":" << workers
             << ",\"row_transform_us\":" << row_mode.transform_micros
             << ",\"columnar_transform_us\":" << col_mode.transform_micros
             << ",\"row_rows_per_s\":"
             << static_cast<int64_t>(TransformRowsPerSec(row_mode))
             << ",\"columnar_rows_per_s\":"
             << static_cast<int64_t>(TransformRowsPerSec(col_mode))
             << ",\"transform_speedup\":" << speedup
             << ",\"columnar_batches\":" << col_mode.columnar_batches
             << ",\"columnar_rows\":" << col_mode.columnar_rows
             << ",\"identical_output\":" << (identical ? "true" : "false")
             << "}";
      }
    }
    json << "]}";
  }
  json << "]}";
  std::cout << json.str() << std::endl;
  std::ofstream out("BENCH_transform.json");
  out << json.str() << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace qox

int main(int argc, char** argv) {
  qox::Sweep sweep;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      // ctest smoke: one batch size, one worker count, small input — checks
      // engagement + byte identity, not the headline throughput numbers.
      sweep.rows = 20000;
      sweep.batch_sizes = {qox::kDefaultBatchSize};
      sweep.worker_counts = {1};
      sweep.repeats = 2;
    }
  }
  return qox::RunBench(sweep);
}
