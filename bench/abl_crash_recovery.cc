// Ablation — crash recovery: injected SIGKILL count x journal-sync policy.
//
// Question: what does crash safety cost, and what does it buy back when
// the process actually dies? Every cell runs the same journaled flow under
// FlowSupervisor with k in-flight SIGKILLs (armed crash points at the
// warehouse-append boundary, one per child incarnation), against a durable
// FlatFile warehouse, and reports the measured end-to-end wall time, the
// recovery overhead over the same cell's crash-free baseline, and the
// journal-derived re-execution bound (attempts started by dead
// incarnations x input rows — an upper bound: the durable-prefix skip and
// adopted recovery points make the true number smaller). The cost model's
// restart term
// (EstimateRestartCost at the cell's observed crash rate) sits alongside
// for comparison. Emits one BENCH JSON line (prefix
// "{\"bench\":\"abl_crash_recovery\""). Exits non-zero unless every
// cell's supervised flow converged (ctest `abl_crash_recovery`, label
// "crash").

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/crash_point.h"
#include "core/cost_model.h"
#include "core/design.h"
#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "engine/supervisor.h"
#include "storage/flat_file.h"
#include "storage/mem_table.h"
#include "storage/recovery_store.h"

namespace qox {
namespace {

constexpr size_t kRows = 8000;
constexpr char kScratchRoot[] = "/tmp/qox_bench_crash";

Schema SourceSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"category", DataType::kString, true},
                 {"amount", DataType::kDouble, true}});
}

DataStorePtr BaseSource() {
  static const DataStorePtr source = [] {
    auto table = std::make_shared<MemTable>("src", SourceSchema());
    RowBatch batch(SourceSchema());
    const char* categories[] = {"a", "b", "c"};
    for (size_t i = 0; i < kRows; ++i) {
      batch.Append(Row({Value::Int64(static_cast<int64_t>(i)),
                        Value::String(categories[i % 3]),
                        Value::Double(static_cast<double>(i % 100))}));
    }
    (void)table->Append(batch);
    return table;
  }();
  return source;
}

Schema TargetSchema() {
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(SourceSchema()).value();
}

FlowSpec MakeFlow(DataStorePtr source, DataStorePtr target) {
  FlowSpec spec;
  spec.id = "crashbench_flow";
  spec.source = std::move(source);
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = std::move(target);
  return spec;
}

/// The same flow as a PhysicalDesign, so the model can price it.
PhysicalDesign MakeDesign(bool journaled, JournalSync sync) {
  std::vector<LogicalOp> ops;
  ops.push_back(
      MakeFilter("flt", {Predicate::NotNull("amount")}, /*selectivity=*/1.0));
  ops.push_back(
      MakeFunction("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)}));
  ops.push_back(MakeSort("sort", {{"id", false}}));
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  PhysicalDesign design;
  design.flow = LogicalFlow("crashbench_flow", BaseSource(), std::move(ops),
                            std::move(target));
  design.recovery_points = {2};
  design.journaled = journaled;
  design.journal_sync = sync;
  return design;
}

struct Cell {
  std::string sync;
  size_t kills = 0;
  std::string outcome;
  size_t incarnations = 0;
  /// Attempts started by dead incarnations, from the supervisor's journal
  /// peeks (survives the post-commit compaction that drops the records).
  size_t attempts_lost = 0;
  int64_t total_micros = 0;
  /// total_micros minus the crash-free baseline at the same sync policy.
  int64_t recovery_micros = 0;
  /// Lost attempts x input rows: journal-derived upper bound on rows
  /// re-executed by restarted incarnations (the durable-prefix skip and
  /// adopted recovery points make the true number smaller).
  size_t reexec_rows_bound = 0;
  double predicted_restart_s = 0.0;
};
std::map<int, Cell>& Cells() {
  static auto* const cells = new std::map<int, Cell>();
  return *cells;
}

SupervisorReport RunCell(const std::string& scratch, JournalSync sync,
                         size_t kills) {
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  SupervisorOptions options;
  options.scratch_dir = scratch;
  options.max_incarnations = kills + 2;
  options.journal_sync = sync;
  options.child_setup = [kills](int incarnation) {
    // Kill the first `kills` incarnations partway through the warehouse
    // load (the 3rd durable append), leaving a durable prefix to resume
    // over; later incarnations run unarmed to convergence.
    const bool armed = static_cast<size_t>(incarnation) <= kills;
    ArmCrashPoints(armed ? "flat.append:3" : "");
  };
  const auto body = [&scratch](const FlowEnv& env) {
    QOX_ASSIGN_OR_RETURN(
        auto target, FlatFile::Open("wh", TargetSchema(), scratch + "/wh.csv"));
    QOX_ASSIGN_OR_RETURN(auto rp_store,
                         RecoveryPointStore::Open(scratch + "/rp"));
    ExecutionConfig config;
    config.batch_size = 256;
    config.recovery_points = {2};
    config.rp_store = rp_store;
    config.retry.max_attempts = 16;
    config.retry.initial_backoff_micros = 50;
    config.journal = env.journal;
    return Executor::Run(MakeFlow(BaseSource(), target), config).status();
  };
  return FlowSupervisor::Run("crashbench_flow", body, options).value();
}

void BM_AblCrashRecovery(benchmark::State& state) {
  const std::vector<std::pair<std::string, JournalSync>> syncs = {
      {"none", JournalSync::kNone},
      {"commit", JournalSync::kCommit},
      {"always", JournalSync::kAlways}};
  const std::vector<size_t> kill_counts = {0, 1, 2};
  for (auto _ : state) {
    int cell_idx = 0;
    for (const auto& [sync_name, sync] : syncs) {
      int64_t baseline_micros = 0;
      for (const size_t kills : kill_counts) {
        // Per-process root: concurrent runs (a plain and a sanitizer
        // ctest) must not share one another's journals.
        const std::string scratch =
            std::string(kScratchRoot) + "." + std::to_string(::getpid()) +
            "_" + sync_name + "_" + std::to_string(kills);
        const SupervisorReport report = RunCell(scratch, sync, kills);
        Cell cell;
        cell.sync = sync_name;
        cell.kills = kills;
        cell.outcome = report.success
                           ? "ok"
                           : StatusCodeName(report.final_status.code());
        cell.incarnations = report.incarnations;
        cell.attempts_lost = report.attempts_observed;
        cell.total_micros = report.total_micros;
        if (kills == 0) baseline_micros = report.total_micros;
        cell.recovery_micros = report.total_micros - baseline_micros;
        cell.reexec_rows_bound = cell.attempts_lost * kRows;

        // The model's restart term at this cell's observed crash rate
        // (crashes per second of crash-free execution).
        const PhysicalDesign design = MakeDesign(/*journaled=*/true, sync);
        const CostModel model{CostModelParams{}};
        const PhaseEstimate phases =
            model.EstimatePhases(design, static_cast<double>(kRows));
        WorkloadParams workload;
        workload.rows_per_run = static_cast<double>(kRows);
        const double baseline_s =
            static_cast<double>(baseline_micros) / 1e6;
        workload.crash_rate_per_s =
            baseline_s > 0.0 ? static_cast<double>(kills) / baseline_s : 0.0;
        cell.predicted_restart_s =
            model.EstimateRestartCost(design, phases, workload);
        Cells()[cell_idx++] = cell;
        std::filesystem::remove_all(scratch);
      }
    }
    state.SetIterationTime(1e-3);
  }
}

BENCHMARK(BM_AblCrashRecovery)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void PrintFigure() {
  bench::Table table({"sync", "kills", "outcome", "incarnations",
                      "attempts_lost", "total_ms", "recovery_ms",
                      "reexec_rows_ub", "pred_restart_ms"});
  std::ostringstream json;
  json << "{\"bench\":\"abl_crash_recovery\",\"rows\":" << kRows
       << ",\"results\":[";
  bool first = true;
  for (const auto& [idx, cell] : Cells()) {
    table.AddRow({cell.sync, std::to_string(cell.kills), cell.outcome,
                  std::to_string(cell.incarnations),
                  std::to_string(cell.attempts_lost),
                  bench::Ms(cell.total_micros), bench::Ms(cell.recovery_micros),
                  std::to_string(cell.reexec_rows_bound),
                  bench::Ms(static_cast<int64_t>(cell.predicted_restart_s *
                                                 1e6))});
    if (!first) json << ",";
    first = false;
    json << "{\"sync\":\"" << cell.sync << "\",\"kills\":" << cell.kills
         << ",\"outcome\":\"" << cell.outcome
         << "\",\"incarnations\":" << cell.incarnations
         << ",\"attempts_lost\":" << cell.attempts_lost
         << ",\"total_micros\":" << cell.total_micros
         << ",\"recovery_micros\":" << cell.recovery_micros
         << ",\"reexec_rows_bound\":" << cell.reexec_rows_bound
         << ",\"predicted_restart_s\":" << cell.predicted_restart_s << "}";
  }
  json << "]}";
  table.Print(
      "Ablation: crash recovery — injected SIGKILL count x journal-sync "
      "policy (8k rows, FlatFile warehouse, RP at cut 2, kills at the 3rd "
      "durable append of each doomed incarnation; recovery_ms over the "
      "same policy's crash-free baseline; prediction from the cost "
      "model's restart term at the observed crash rate)");
  std::cout << json.str() << std::endl;
}

/// True when every cell ran and its supervised flow converged; otherwise
/// names the failing cells on stderr.
bool AllCellsConverged() {
  bool ok = !Cells().empty();
  for (const auto& [idx, cell] : Cells()) {
    if (cell.outcome != "ok") {
      std::cerr << "abl_crash_recovery: sync=" << cell.sync
                << " kills=" << cell.kills << " ended " << cell.outcome
                << std::endl;
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace qox

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  qox::PrintFigure();
  return qox::AllCellsConverged() ? 0 : 1;
}
