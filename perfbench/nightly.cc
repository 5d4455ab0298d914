// nightly_serial / nightly_parallel: the Fig. 3 nightly warehouse load.
//
// One load = bottom (S1 -> DW1), middle (S2 -> DW2) and top (S3 -> DW3)
// flows of SalesScenario, then an aggregate refresh over DW1 (group by
// customer, sort by quantity bought) under a memory budget smaller than
// its working set, so it spills. S1/S2 are CSV files in the work directory; the
// bandwidth throttle is off, so nothing sleeps.
//
//   serial:   one worker, phased, flows in sequence.
//   parallel: one FlowService (4 workers, EDF, one slot per flow); each
//             flow streams and is partitioned 4-way behind its Δ (4PF-p;
//             the top flow has no Δ and is partitioned whole). The
//             aggregate refresh has blocking operators only and is
//             submitted unpartitioned once DW1 has committed.
//
// Set-up lands the data, builds the service and runs one unmeasured
// serial warm-up load, whose warehouse fingerprints are the reference
// every measured load must match. ResetWarehouse clears the warehouse
// tables and Δ snapshots but keeps the surrogate-key registries and the
// process-wide DimensionCache, so measured loads are steady-state
// reloads; warm registries also make concurrent key assignment in the
// parallel load deterministic.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/sales_workflow.h"
#include "engine/dimension_cache.h"
#include "engine/flow_service.h"
#include "common/column_batch.h"
#include "storage/flat_file.h"
#include "workloads.h"

namespace qox::perfbench {
namespace {

constexpr size_t kS1Rows = 60000;
constexpr size_t kS2Rows = 8000;
constexpr size_t kS3Rows = 30000;
constexpr size_t kWorkers = 4;
/// Well below the aggregate's working set (one group per customer).
constexpr size_t kAggBudgetBytes = 256 * 1024;

/// Microseconds of one flow's last post_success hook (the Δ snapshot
/// commit).
using HookClock = std::atomic<int64_t>;

struct BenchFlow {
  LogicalFlow plain;
  LogicalFlow traced;
  /// The design measured loads run (serial or parallel shape).
  PhysicalDesign design;
  /// One phased worker: the warm-up load and nightly_serial's loads.
  ExecutionConfig serial_config;
  /// From `design`: nightly_parallel's loads.
  ExecutionConfig parallel_config;
  std::shared_ptr<HookClock> hook_us = std::make_shared<HookClock>(0);
};

struct TableRef {
  size_t rows = 0;
  size_t fingerprint = 0;
};

double Ms(int64_t micros) { return static_cast<double>(micros) / 1000.0; }

class Nightly {
 public:
  Nightly(const Options& options, bool parallel, Report* report)
      : options_(options), parallel_(parallel), report_(report) {}

  /// One complete set-up: data, flows, service, warm-up, reference.
  Status Setup();
  /// One measured load into `sample`; output mismatches are recorded in
  /// the report and clear sample->ok.
  Status MeasuredLoad(bool traced, LoadSample* sample);

  Tracer* tracer() { return &tracer_; }

 private:
  Status BuildFlows();
  Status ResetTables();
  Result<std::vector<RunMetrics>> LoadSerial(bool traced);
  Result<std::vector<RunMetrics>> LoadParallel(bool traced);
  Result<std::vector<TableRef>> Fingerprints() const;
  Status TimeOptimizer(const RunMetrics& warm_bottom);
  void TraceLayers(const std::vector<RunMetrics>& metrics, double wall_ms,
                   const WorkerPool::Stats& pool_before, LoadSample* sample);

  const Options options_;
  const bool parallel_;
  Report* const report_;
  Tracer tracer_;
  std::unique_ptr<SalesScenario> scenario_;
  std::unique_ptr<FlowService> service_;
  DataStorePtr agg_table_;
  /// bottom, middle, top, aggregate.
  std::vector<BenchFlow> flows_;
  std::vector<std::shared_ptr<TracedStore>> csv_sources_;
  std::vector<std::shared_ptr<TracedStore>> targets_;
  double csv_bytes_ = 0.0;
  std::vector<TableRef> reference_;
  CostModel cost_model_;
  size_t loads_ = 0;
};

LogicalFlow WithStores(const LogicalFlow& flow, DataStorePtr source,
                       DataStorePtr target,
                       const std::shared_ptr<HookClock>& hook_us,
                       Tracer* tracer) {
  LogicalFlow out(flow.id(), std::move(source), flow.ops(), std::move(target));
  const std::function<Status()> inner = flow.post_success();
  const std::string span = "post_success " + flow.id();
  out.set_post_success([inner, hook_us, tracer, span]() -> Status {
    const int64_t start = NowUs();
    const Status status = inner ? inner() : Status::OK();
    const int64_t end = NowUs();
    *hook_us = end - start;
    tracer->AddSpan(span, "executor", start, end);
    return status;
  });
  return out;
}

Status Nightly::BuildFlows() {
  const SalesScenario& s = *scenario_;
  // Only order-insensitive aggregates: a double SUM depends on the order
  // rows arrive in, and the parallel load hands DW1 over in a different
  // order than the serial one, so SUM(net_amount) would differ in its last
  // bits from the serial reference. SUM(quantity) adds small integers,
  // which a double holds exactly.
  std::vector<LogicalOp> agg_ops = {
      MakeGroup("Grp_customer", {"customer_key"},
                {Aggregate::Count("num_sales"),
                 Aggregate::Sum("quantity", "total_quantity"),
                 Aggregate::Min("net_amount", "min_net"),
                 Aggregate::Max("net_amount", "max_net")}),
      MakeSort("Sort_quantity",
               {{"total_quantity", true}, {"customer_key", false}}),
  };
  QOX_ASSIGN_OR_RETURN(const std::vector<Schema> agg_schemas,
                       BindLogicalChain(s.dw1()->schema(), agg_ops));
  agg_table_ = std::make_shared<MemTable>("CUSTOMER_SPEND", agg_schemas.back());
  const LogicalFlow agg("dw1_aggregate", s.dw1(), std::move(agg_ops),
                        agg_table_);

  auto traced = [this](const DataStorePtr& store) {
    return std::make_shared<TracedStore>(store, &tracer_);
  };
  csv_sources_ = {traced(s.s1()), traced(s.s2())};
  csv_bytes_ = 0.0;
  for (const DataStorePtr& source : {s.s1(), s.s2()}) {
    const auto file = std::dynamic_pointer_cast<FlatFile>(source);
    if (file == nullptr) return Status::Internal("S1/S2 must be CSV files");
    csv_bytes_ += static_cast<double>(std::filesystem::file_size(file->path()));
  }
  targets_ = {traced(s.dw1()), traced(s.dw2()), traced(s.dw3()),
              traced(agg_table_)};
  const std::vector<DataStorePtr> traced_sources = {
      csv_sources_[0], csv_sources_[1], traced(s.s3()), targets_[0]};

  const std::vector<const LogicalFlow*> logical = {
      &s.bottom_flow(), &s.middle_flow(), &s.top_flow(), &agg};
  flows_.clear();
  flows_.resize(logical.size());
  for (size_t i = 0; i < logical.size(); ++i) {
    const LogicalFlow& base = *logical[i];
    BenchFlow& flow = flows_[i];
    flow.plain = WithStores(base, base.source(), base.target(), flow.hook_us,
                            &tracer_);
    flow.traced = WithStores(base, traced_sources[i], targets_[i],
                             flow.hook_us, &tracer_);
    PhysicalDesign& design = flow.design;
    design.flow = flow.plain;
    const bool is_agg = i == 3;
    if (is_agg) design.memory_budget_bytes = kAggBudgetBytes;
    flow.serial_config = design.ToExecutionConfig(nullptr, nullptr);
    flow.serial_config.spill_dir = options_.work_dir + "/spill";
    if (parallel_) {
      design.threads = kWorkers;
      design.streaming = true;
      if (!is_agg) {
        design.parallel.partitions = kWorkers;
        // 4PF-p: partition behind the Δ, whose snapshot serializes anyway.
        const bool has_delta = base.ops().front().kind == "delta";
        design.parallel.range_begin = has_delta ? 1 : 0;
      }
    }
    flow.parallel_config = design.ToExecutionConfig(nullptr, nullptr);
    flow.parallel_config.spill_dir = flow.serial_config.spill_dir;
  }
  return Status::OK();
}

Status Nightly::ResetTables() {
  QOX_RETURN_IF_ERROR(scenario_->ResetWarehouse());
  return agg_table_->Truncate();
}

Result<std::vector<RunMetrics>> Nightly::LoadSerial(bool traced) {
  std::vector<RunMetrics> out;
  for (const BenchFlow& flow : flows_) {
    const LogicalFlow& logical = traced ? flow.traced : flow.plain;
    const int64_t start = NowUs();
    QOX_ASSIGN_OR_RETURN(RunMetrics metrics,
                         Executor::Run(logical.ToFlowSpec(),
                                       flow.serial_config));
    tracer_.AddSpan("Executor::Run " + logical.id(), "flow", start, NowUs());
    out.push_back(std::move(metrics));
  }
  return out;
}

Result<std::vector<RunMetrics>> Nightly::LoadParallel(bool traced) {
  std::vector<int64_t> submitted(flows_.size(), 0);
  std::vector<uint64_t> tickets(flows_.size(), 0);
  auto submit = [&](size_t i) -> Status {
    const LogicalFlow& logical =
        traced ? flows_[i].traced : flows_[i].plain;
    submitted[i] = NowUs();
    QOX_ASSIGN_OR_RETURN(tickets[i],
                         service_->Submit(FlowSubmission{
                             logical.ToFlowSpec(), flows_[i].parallel_config,
                             0}));
    return Status::OK();
  };
  std::vector<RunMetrics> out(flows_.size());
  auto wait = [&](size_t i) -> Status {
    QOX_ASSIGN_OR_RETURN(out[i], service_->Wait(tickets[i]));
    tracer_.AddSpan("FlowService " + flows_[i].plain.id(), "flow",
                    submitted[i], NowUs());
    return Status::OK();
  };
  for (size_t i = 0; i < 3; ++i) QOX_RETURN_IF_ERROR(submit(i));
  // The aggregate refresh reads DW1, so it is submitted once DW1 commits.
  QOX_RETURN_IF_ERROR(wait(0));
  QOX_RETURN_IF_ERROR(submit(3));
  for (size_t i = 1; i < flows_.size(); ++i) QOX_RETURN_IF_ERROR(wait(i));
  return out;
}

Result<std::vector<TableRef>> Nightly::Fingerprints() const {
  std::vector<TableRef> out;
  for (const DataStorePtr& table : {scenario_->dw1(), scenario_->dw2(),
                                    scenario_->dw3(), agg_table_}) {
    QOX_ASSIGN_OR_RETURN(const RowBatch batch, table->ReadAll());
    out.push_back({batch.num_rows(), FingerprintRows(batch.rows())});
  }
  return out;
}

Status Nightly::TimeOptimizer(const RunMetrics& warm_bottom) {
  const LogicalFlow& bottom = scenario_->bottom_flow();
  cost_model_ = CostModel(CostModel::Calibrate(
      CostModelParams{}, warm_bottom, bottom,
      static_cast<double>(warm_bottom.rows_extracted)));
  OptimizerOptions optimizer_options;
  optimizer_options.threads = kWorkers;
  const QoxOptimizer optimizer(cost_model_, optimizer_options);
  WorkloadParams workload;
  workload.rows_per_run = static_cast<double>(kS1Rows);
  const int64_t start = NowUs();
  QOX_ASSIGN_OR_RETURN(
      const OptimizationResult result,
      optimizer.Optimize(bottom, QoxObjective::PerformanceFirst(60.0),
                         workload));
  report_->run_layers["core.optimizer.optimize_ms"] = Ms(NowUs() - start);
  report_->run_layers["core.optimizer.designs_explored"] =
      static_cast<double>(result.designs_explored);
  return Status::OK();
}

Status Nightly::Setup() {
  // Tear down the previous set-up first, so each one starts equally cold.
  service_.reset();
  flows_.clear();
  scenario_.reset();
  DimensionCache::Instance().Clear();

  SalesScenarioConfig config;
  config.workload.seed = options_.seed;
  config.s1_rows = kS1Rows;
  config.s2_rows = kS2Rows;
  config.s3_rows = kS3Rows;
  config.data_dir = options_.work_dir + "/data";
  config.source_bandwidth_bytes_per_s = 0.0;
  std::filesystem::create_directories(config.data_dir);
  QOX_ASSIGN_OR_RETURN(scenario_, SalesScenario::Create(config));
  QOX_RETURN_IF_ERROR(BuildFlows());
  if (parallel_) {
    FlowServiceConfig service_config;
    service_config.num_workers = kWorkers;
    service_config.max_concurrent_flows = flows_.size();
    service_config.policy = QueuePolicy::kEdf;
    service_ = std::make_unique<FlowService>(service_config);
  }
  // Warm-up: one serial load, whatever the workload; its output is the
  // reference for every measured load.
  QOX_ASSIGN_OR_RETURN(const std::vector<RunMetrics> warm, LoadSerial(false));
  QOX_ASSIGN_OR_RETURN(reference_, Fingerprints());
  for (size_t i = 0; i < reference_.size(); ++i) {
    if (reference_[i].rows == 0) {
      return Status::Internal("warm-up left warehouse table " +
                              std::to_string(i) + " empty");
    }
  }
  if (warm[3].spill_runs == 0) {
    return Status::Internal("aggregate refresh did not spill");
  }
  QOX_RETURN_IF_ERROR(TimeOptimizer(warm[0]));
  return ResetTables();
}

void Nightly::TraceLayers(const std::vector<RunMetrics>& metrics,
                          double wall_ms,
                          const WorkerPool::Stats& pool_before,
                          LoadSample* sample) {
  LayerValues& l = sample->layers;
  double extract = 0, transform = 0, load = 0, post = 0, ops = 0;
  double extracted = 0, columnar = 0, spill_runs = 0, spill_bytes = 0;
  double high_water = 0, part_max = 0, part_skew = 0, merge = 0;
  double stall = 0, backpressure = 0, queue_wait = 0, builds = 0, hits = 0;
  std::vector<double> rel_err;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const RunMetrics& m = metrics[i];
    extract += Ms(m.extract_micros);
    transform += Ms(m.transform_micros);
    load += Ms(m.load_micros);
    post += Ms(*flows_[i].hook_us);
    for (const OpStats& op : m.op_stats) {
      ops += Ms(op.micros);
      l["engine.op." + op.name + ".ms"] += Ms(op.micros);
      l["engine.op." + op.name + ".rows_out"] += static_cast<double>(op.rows_out);
    }
    extracted += static_cast<double>(m.rows_extracted);
    columnar += static_cast<double>(m.columnar_rows);
    spill_runs += static_cast<double>(m.spill_runs);
    spill_bytes += static_cast<double>(m.spill_bytes);
    high_water = std::max(high_water, static_cast<double>(
                                          m.mem_high_water_bytes) / 1048576.0);
    // Partition branch times: parallel units in phased mode, "part*"
    // stages in streaming mode.
    std::vector<std::vector<int64_t>> branches;
    for (const ParallelUnitStats& unit : m.parallel_units) {
      branches.push_back(unit.partition_micros);
    }
    std::vector<int64_t> part_stages;
    for (const StageStats& stage : m.stage_stats) {
      stall += Ms(stage.stall_micros);
      backpressure += Ms(stage.backpressure_micros);
      if (stage.name.rfind("part", 0) == 0) {
        part_stages.push_back(stage.busy_micros);
      }
    }
    if (!part_stages.empty()) branches.push_back(part_stages);
    for (const std::vector<int64_t>& micros : branches) {
      if (micros.empty()) continue;
      const int64_t max_us = *std::max_element(micros.begin(), micros.end());
      double mean_us = 0;
      for (const int64_t us : micros) mean_us += static_cast<double>(us);
      mean_us /= static_cast<double>(micros.size());
      part_max = std::max(part_max, Ms(max_us));
      if (mean_us > 0) part_skew = std::max(part_skew, max_us / mean_us);
    }
    merge += Ms(m.merge_micros);
    queue_wait += Ms(m.queue_wait_micros);
    builds += static_cast<double>(m.dim_cache_builds);
    hits += static_cast<double>(m.dim_cache_hits);
    const PhaseEstimate predicted = cost_model_.EstimatePhases(
        flows_[i].design, static_cast<double>(m.rows_extracted));
    const double measured_s = static_cast<double>(m.total_micros) / 1e6;
    if (measured_s > 0) {
      rel_err.push_back(std::abs(predicted.total_s - measured_s) / measured_s);
    }
  }
  double scan_us = 0, append_us = 0;
  for (const auto& store : csv_sources_) scan_us += store->scan_own_us();
  for (const auto& store : targets_) append_us += store->append_us();

  l["bench.nightly.wall_ms"] = wall_ms;
  // Phases of all flows; with phased flows in sequence these plus the
  // remainder sum to the load's wall time. Streaming stages overlap, so
  // the parallel load's remainder is negative by the overlap.
  l["bench.nightly.unattributed_ms"] =
      wall_ms - (extract + transform + load + post);
  l["engine.executor.extract_ms"] = extract;
  l["engine.executor.transform_ms"] = transform;
  l["engine.executor.load_ms"] = load;
  l["engine.executor.post_commit_ms"] = post;
  l["engine.pipeline.unattributed_ms"] = transform - ops;
  l["engine.columnar.row_frac"] = extracted > 0 ? columnar / extracted : 0.0;
  l["storage.flat_file.scan_ms"] = scan_us / 1000.0;
  l["storage.flat_file.mb_per_s"] =
      scan_us > 0 ? csv_bytes_ / 1048576.0 / (scan_us / 1e6) : 0.0;
  l["storage.mem_table.append_ms"] = append_us / 1000.0;
  l["storage.spill_manager.runs"] = spill_runs;
  l["storage.spill_manager.bytes"] = spill_bytes;
  l["engine.memory_budget.high_water_mb"] = high_water;
  l["engine.parallel.partition_ms_max"] = part_max;
  l["engine.parallel.partition_skew"] = part_skew;
  l["engine.parallel.merge_ms"] = merge;
  l["engine.streaming.stall_ms"] = stall;
  l["engine.streaming.backpressure_ms"] = backpressure;
  l["engine.flow_service.queue_wait_ms"] = queue_wait;
  l["engine.dimension_cache.builds"] = builds;
  l["engine.dimension_cache.hits"] = hits;
  l["core.cost_model.rel_err"] = Median(rel_err);
  if (service_ != nullptr) {
    const WorkerPool::Stats after = service_->pool()->stats();
    l["engine.worker_pool.tasks_run"] =
        static_cast<double>(after.tasks_run - pool_before.tasks_run);
    l["engine.worker_pool.tasks_helped"] =
        static_cast<double>(after.tasks_helped - pool_before.tasks_helped);
    l["engine.worker_pool.steals"] =
        static_cast<double>(after.steals - pool_before.steals);
    l["engine.worker_pool.blocking_run"] =
        static_cast<double>(after.blocking_run - pool_before.blocking_run);
    l["engine.worker_pool.expansion_threads"] = static_cast<double>(
        after.expansion_threads - pool_before.expansion_threads);
  }

  // Row <-> column conversion, replayed over the warehouse batches.
  const size_t batch_size = flows_[0].serial_config.batch_size;
  int64_t convert_us = 0;
  for (const DataStorePtr& table :
       {scenario_->dw1(), scenario_->dw2(), scenario_->dw3()}) {
    const Status status = table->Scan(batch_size, [&](RowBatch& batch) {
      const int64_t start = NowUs();
      const std::optional<ColumnBatch> columns =
          ColumnBatch::FromRowBatch(batch);
      if (columns.has_value()) (void)columns->ToRowBatch();
      convert_us += NowUs() - start;
      return Status::OK();
    });
    if (!status.ok()) report_->Error("convert replay: " + status.ToString());
  }
  l["common.column_batch.convert_ms"] = Ms(convert_us);
}

Status Nightly::MeasuredLoad(bool traced, LoadSample* sample) {
  QOX_RETURN_IF_ERROR(ResetTables());
  for (const auto& store : csv_sources_) store->ResetCounters();
  for (const auto& store : targets_) store->ResetCounters();
  const WorkerPool::Stats pool_before =
      service_ != nullptr ? service_->pool()->stats() : WorkerPool::Stats{};
  if (traced) tracer_.Enable(loads_);
  const double cpu_before = SelfCpuSeconds() + ChildCpuSeconds();
  const int64_t start = NowUs();
  const Result<std::vector<RunMetrics>> metrics =
      parallel_ ? LoadParallel(traced) : LoadSerial(traced);
  const int64_t end = NowUs();
  const double cpu_after = SelfCpuSeconds() + ChildCpuSeconds();
  tracer_.AddSpan("nightly load", "load", start, end);
  tracer_.Disable();
  ++loads_;

  sample->traced = traced;
  sample->rss_mb = CurrentRssMb();
  sample->wall_s = static_cast<double>(end - start) / 1e6;
  sample->cpu_s = cpu_after - cpu_before;
  if (!metrics.ok()) {
    sample->ok = false;
    report_->Error("load failed: " + metrics.status().ToString());
    return Status::OK();
  }
  for (const RunMetrics& m : metrics.value()) {
    sample->rows += static_cast<double>(m.rows_loaded);
  }
  // A nightly window's freshness is the load itself: the time from the
  // window opening until the whole warehouse is durable.
  sample->freshness_ms.push_back(Ms(end - start));
  QOX_ASSIGN_OR_RETURN(const std::vector<TableRef> got, Fingerprints());
  static const char* const kTables[] = {"DW1", "DW2", "DW3", "CUSTOMER_SPEND"};
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].rows != reference_[i].rows ||
        got[i].fingerprint != reference_[i].fingerprint) {
      sample->ok = false;
      report_->Error(std::string(kTables[i]) + " differs from the reference (" +
                     std::to_string(got[i].rows) + " rows vs " +
                     std::to_string(reference_[i].rows) + ")");
    }
  }
  if (traced) {
    TraceLayers(metrics.value(), Ms(end - start), pool_before, sample);
  }
  return Status::OK();
}

}  // namespace

Status RunNightly(const Options& options, bool parallel, Report* report) {
  Nightly bench(options, parallel, report);
  ProbeSpec probe;
  probe.threads = parallel ? static_cast<int>(kWorkers) : 1;
  return MeasureLoads(options, probe, &bench, report);
}

}  // namespace qox::perfbench
