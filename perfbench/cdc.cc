// cdc_supervised: sharded CDC ingestion windows through CdcCoordinator.
//
// One window = CdcCoordinator::Run over a seeded CdcSource stream, cut
// into slices of kSliceEvents and key-partitioned across 4 shards. Every
// (shard, slice) flow is forked under a FlowSupervisor (supervised), the
// journals fsync every append (JournalSync::kAlways), the shard flows
// stream, and the lookup dimension is set. Many small slices make fork,
// reap, fsync, lease, staging and the WAL merge dominate, with little
// operator work.
//
// Set-up builds the stream and dimension, runs the unsupervised 1-shard
// reference window whose folded warehouse state every measured window
// must equal, the same 4-shard window in-process (the supervision-free
// slice latency), and one unmeasured supervised warm-up window. Each window
// writes into a fresh scratch directory (a reused one would resume from
// its journals instead of loading).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "engine/cdc_coordinator.h"
#include "engine/dimension_cache.h"
#include "storage/mem_table.h"
#include "workloads.h"

namespace qox::perfbench {
namespace {

constexpr size_t kShards = 4;
constexpr size_t kNumKeys = 512;
constexpr size_t kTotalEvents = 2048;
constexpr size_t kSliceEvents = 128;
/// Nominal update rate for the cost model's freshness law; its
/// slice-fill term is subtracted again, like the measured freshness.
constexpr double kNominalRatePerS = 1e6;

double Ms(int64_t micros) { return static_cast<double>(micros) / 1000.0; }

Schema DimensionSchema() {
  return Schema{{"cat_key", DataType::kString, false},
                {"cat_label", DataType::kString, false}};
}

/// Labels for six of the stream's eight categories; the other two miss
/// and get a NULL label (LookupMissPolicy::kNull).
Result<DataStorePtr> MakeDimension() {
  auto dimension = std::make_shared<MemTable>("CDC_CATEGORY", DimensionSchema());
  RowBatch rows(DimensionSchema());
  for (int c = 0; c < 6; ++c) {
    rows.Append(Row(std::vector<Value>{
        Value::String("c" + std::to_string(c)),
        Value::String("category " + std::to_string(c))}));
  }
  QOX_RETURN_IF_ERROR(dimension->Append(rows));
  return DataStorePtr(dimension);
}

size_t LoadableEvents(const CdcStreamSpec& spec) {
  const CdcSource source(spec);
  const size_t amount = CdcSchema().FieldIndex("amount").value();
  size_t loadable = 0;
  for (size_t i = 0; i < spec.total_events; ++i) {
    if (!source.EventAt(i).value(amount).is_null()) ++loadable;
  }
  return loadable;
}

class CdcBench {
 public:
  CdcBench(const Options& options, Report* report)
      : options_(options), report_(report) {}

  Status Setup();
  Status MeasuredLoad(bool traced, LoadSample* sample);
  Tracer* tracer() { return &tracer_; }

 private:
  CdcOptions WindowOptions(const std::string& dir) const;
  Status TimeOptimizer(const CdcOptions& window);

  const Options options_;
  Report* const report_;
  Tracer tracer_;
  DataStorePtr dimension_;
  Schema staged_schema_;
  std::vector<Row> reference_;
  size_t loadable_ = 0;
  size_t windows_ = 0;
  double predicted_slice_ms_ = 0.0;
  double unsupervised_slice_ms_ = 0.0;
};

CdcOptions CdcBench::WindowOptions(const std::string& dir) const {
  CdcOptions window;
  window.scratch_dir = dir;
  window.stream.seed = options_.seed;
  window.stream.num_keys = kNumKeys;
  window.stream.total_events = kTotalEvents;
  window.topology.shards = kShards;
  window.topology.slice_events = kSliceEvents;
  window.streaming = true;
  window.supervised = true;
  window.journal_sync = JournalSync::kAlways;
  window.dimension = dimension_;
  return window;
}

Status CdcBench::TimeOptimizer(const CdcOptions& window) {
  // The shard flow's chain as a logical flow over the stream, for the
  // optimizer and the cost model's CDC freshness law.
  LogicalFlow flow(
      "cdc_shard", std::make_shared<CdcSource>(window.stream),
      {MakeFilter("flt_nn", {Predicate::NotNull("amount")}),
       MakeFunction("scale", {ColumnTransform::Scale("scaled", "amount", 2.0)}),
       MakeLookup("dim", dimension_, "category", "cat_key", {"cat_label"},
                  LookupMissPolicy::kNull),
       MakeSort("by_version", {{"version", false}})},
      std::make_shared<MemTable>("CDC_WAREHOUSE", staged_schema_));
  PhysicalDesign design;
  design.flow = flow;
  design.streaming = true;
  design.journaled = true;
  design.journal_sync = JournalSync::kAlways;
  design.cdc_shards = kShards;
  design.cdc_slice_events = kSliceEvents;
  design.cdc_update_rate_per_s = kNominalRatePerS;
  const CostModel model;
  predicted_slice_ms_ =
      (model.EstimateCdcFreshness(design, WorkloadParams{}) -
       static_cast<double>(kSliceEvents) / (2.0 * kNominalRatePerS)) *
      1000.0;

  OptimizerOptions optimizer_options;
  optimizer_options.threads = kShards;
  const QoxOptimizer optimizer(model, optimizer_options);
  WorkloadParams workload;
  workload.rows_per_run = static_cast<double>(kTotalEvents);
  const int64_t start = NowUs();
  QOX_ASSIGN_OR_RETURN(
      const OptimizationResult result,
      optimizer.Optimize(flow, QoxObjective::FreshnessFirst(1.0), workload));
  report_->run_layers["core.optimizer.optimize_ms"] = Ms(NowUs() - start);
  report_->run_layers["core.optimizer.designs_explored"] =
      static_cast<double>(result.designs_explored);
  return Status::OK();
}

Status CdcBench::Setup() {
  DimensionCache::Instance().Clear();
  QOX_ASSIGN_OR_RETURN(dimension_, MakeDimension());
  const std::string root = options_.work_dir + "/cdc";
  std::filesystem::remove_all(root);

  // Reference: the same stream, unsupervised, on one shard.
  CdcOptions reference = WindowOptions(root + "/reference");
  reference.topology.shards = 1;
  reference.supervised = false;
  QOX_ASSIGN_OR_RETURN(const CdcReport ref_report,
                       CdcCoordinator::Run(reference));
  QOX_ASSIGN_OR_RETURN(staged_schema_, CdcCoordinator::StagedSchema(reference));
  QOX_ASSIGN_OR_RETURN(reference_, CdcWarehouseState(ref_report.warehouse_path,
                                                     staged_schema_));
  loadable_ = LoadableEvents(reference.stream);
  if (ref_report.wal_rows != loadable_) {
    return Status::Internal("reference window loaded " +
                            std::to_string(ref_report.wal_rows) + " of " +
                            std::to_string(loadable_) + " loadable events");
  }

  // The same 4-shard window in-process: the supervision-free slice
  // latency that supervised slices are compared against.
  CdcOptions in_process = WindowOptions(root + "/in_process");
  in_process.supervised = false;
  QOX_ASSIGN_OR_RETURN(const CdcReport in_process_report,
                       CdcCoordinator::Run(in_process));
  std::vector<double> in_process_ms;
  for (const int64_t us : in_process_report.slice_latency_micros) {
    in_process_ms.push_back(Ms(us));
  }
  unsupervised_slice_ms_ = Median(in_process_ms);
  report_->run_layers["engine.supervisor.unsupervised_slice_ms"] =
      unsupervised_slice_ms_;

  // Warm-up: one supervised window, unmeasured.
  const CdcOptions warm = WindowOptions(root + "/warmup");
  QOX_ASSIGN_OR_RETURN(const CdcReport warm_report, CdcCoordinator::Run(warm));
  for (const CdcReport* run : {&in_process_report, &warm_report}) {
    if (run->wal_rows != loadable_) {
      return Status::Internal("set-up window loaded the wrong row count");
    }
  }
  QOX_RETURN_IF_ERROR(TimeOptimizer(warm));
  std::filesystem::remove_all(root);
  return Status::OK();
}

Status CdcBench::MeasuredLoad(bool traced, LoadSample* sample) {
  const size_t window_id = windows_++;
  const std::string dir =
      options_.work_dir + "/cdc/window" + std::to_string(window_id);
  std::filesystem::remove_all(dir);
  const CdcOptions window = WindowOptions(dir);
  if (traced) tracer_.Enable(window_id);
  const double self_before = SelfCpuSeconds();
  const double child_before = ChildCpuSeconds();
  const int64_t start = NowUs();
  const Result<CdcReport> run = CdcCoordinator::Run(window);
  const int64_t end = NowUs();
  const double self_cpu = SelfCpuSeconds() - self_before;
  const double child_cpu = ChildCpuSeconds() - child_before;
  tracer_.AddSpan("CdcCoordinator::Run", "cdc", start, end);
  tracer_.Disable();

  sample->traced = traced;
  sample->rss_mb = CurrentRssMb();
  sample->wall_s = static_cast<double>(end - start) / 1e6;
  sample->cpu_s = self_cpu + child_cpu;
  if (!run.ok()) {
    sample->ok = false;
    report_->Error("CDC window failed: " + run.status().ToString());
    std::filesystem::remove_all(dir);
    return Status::OK();
  }
  const CdcReport& report = run.value();
  sample->rows = static_cast<double>(report.wal_rows);
  int64_t slice_sum_us = 0;
  for (const int64_t us : report.slice_latency_micros) {
    slice_sum_us += us;
    sample->freshness_ms.push_back(Ms(us));
  }

  // Output checks: exactly the loadable events, the reference state, and
  // slice latencies that fit inside the externally measured wall time.
  auto fail = [&](const std::string& message) {
    sample->ok = false;
    report_->Error(message);
  };
  if (report.wal_rows != loadable_) {
    fail("WAL holds " + std::to_string(report.wal_rows) + " rows, expected " +
         std::to_string(loadable_));
  }
  if (report.degraded || report.shards_dead > 0) fail("CDC window degraded");
  const Result<std::vector<Row>> state =
      CdcWarehouseState(report.warehouse_path, staged_schema_);
  if (!state.ok()) {
    fail("cannot fold WAL: " + state.status().ToString());
  } else if (state.value() != reference_) {
    fail("CDC warehouse state differs from the 1-shard reference");
  }
  if (slice_sum_us > end - start) {
    fail("slice latencies exceed the measured Run wall time");
  }

  if (traced) {
    LayerValues& l = sample->layers;
    double incarnations = 0, max_rows = 0, sum_rows = 0;
    for (const ShardStats& shard : report.metrics.shard_stats) {
      incarnations += static_cast<double>(shard.incarnations);
      max_rows = std::max(max_rows, static_cast<double>(shard.rows_staged));
      sum_rows += static_cast<double>(shard.rows_staged);
    }
    const double shards = static_cast<double>(
        std::max<size_t>(1, report.metrics.shard_stats.size()));
    l["engine.cdc_coordinator.slice_ms"] = Ms(slice_sum_us);
    l["engine.cdc_coordinator.outside_slice_ms"] =
        Ms((end - start) - slice_sum_us);
    l["engine.supervisor.incarnations"] = incarnations;
    l["engine.supervisor.child_cpu_ms"] = child_cpu * 1000.0;
    l["engine.supervisor.parent_cpu_ms"] = self_cpu * 1000.0;
    l["engine.cdc.shard_rows_skew"] =
        sum_rows > 0 ? max_rows / (sum_rows / shards) : 0.0;
    l["engine.dimension_cache.builds"] =
        static_cast<double>(report.metrics.dim_cache_builds);
    l["engine.dimension_cache.hits"] =
        static_cast<double>(report.metrics.dim_cache_hits);
    const double measured = Median(sample->freshness_ms);
    l["engine.supervisor.slice_overhead_ratio"] =
        unsupervised_slice_ms_ > 0 ? measured / unsupervised_slice_ms_ : 0.0;
    l["core.cost_model.rel_err"] =
        measured > 0 ? std::abs(predicted_slice_ms_ - measured) / measured
                     : 0.0;
  }
  std::filesystem::remove_all(dir);
  return Status::OK();
}

}  // namespace

Status RunCdcSupervised(const Options& options, Report* report) {
  CdcBench bench(options, report);
  // The coordinator runs shards one after another from one thread, and
  // its windows fork, reap and fsync.
  ProbeSpec probe;
  probe.system_work = true;
  probe.dir = options.work_dir + "/probe";
  std::filesystem::create_directories(probe.dir);
  return MeasureLoads(options, probe, &bench, report);
}

}  // namespace qox::perfbench
