// Nightly window: running all three Fig. 3 flows inside one ETL time
// window with per-flow freshness deadlines.
//
// "scheduling of both the data flow and execution order of
// transformations becomes crucial" (Sec. 2.2). The flows are submitted to
// a FlowService with one execution lane and earliest-deadline-first
// dispatch: each flow's freshness commitment becomes its SLA deadline and
// the calibrated cost model's phase estimate its predicted run time. The
// lane is held until every flow is queued (the window opens), so EDF alone
// decides the order; each flow's RunMetrics then report its queue wait and
// its slack against the deadline, i.e. which deadlines were met.
//
// Run: ./build/examples/nightly_window

#include <algorithm>
#include <cstdio>
#include <future>
#include <iostream>

#include "core/cost_model.h"
#include "core/sales_workflow.h"
#include "engine/flow_service.h"
#include "storage/mem_table.h"

using namespace qox;  // example code; library code never does this

namespace {

/// A no-op flow whose commit waits for `opened`: it occupies the service's
/// only lane until the window opens.
FlowSpec WindowGate(std::shared_future<void> opened) {
  const Schema schema({{"tick", DataType::kInt64, false}});
  FlowSpec gate;
  gate.id = "window_gate";
  gate.source = std::make_shared<MemTable>("gate_in", schema);
  gate.target = std::make_shared<MemTable>("gate_out", schema);
  gate.post_success = [opened] {
    opened.wait();
    return Status::OK();
  };
  return gate;
}

}  // namespace

int main() {
  SalesScenarioConfig config;
  config.s1_rows = 30000;
  config.s2_rows = 4000;
  config.s3_rows = 10000;
  std::unique_ptr<SalesScenario> scenario =
      SalesScenario::Create(config).TakeValue();

  // Calibrate the model from a probe of the heaviest flow.
  const Result<RunMetrics> probe =
      Executor::Run(scenario->bottom_flow().ToFlowSpec(), ExecutionConfig{});
  if (!probe.ok()) {
    std::cerr << "probe failed: " << probe.status() << "\n";
    return 1;
  }
  if (!scenario->ResetWarehouse().ok()) return 1;
  const CostModel model(
      CostModel::Calibrate(CostModelParams{}, probe.value(),
                           scenario->bottom_flow(), config.s1_rows));

  // Deadlines come from each flow's freshness commitment (the clickstream
  // is the most pressing); predictions from the calibrated model.
  struct Job {
    const char* id;
    const LogicalFlow* flow;
    double rows;
    double deadline_s;
    double predicted_s = 0.0;
    uint64_t ticket = 0;
    RunMetrics metrics;
  };
  std::vector<Job> jobs = {
      {"sales_bottom", &scenario->bottom_flow(),
       static_cast<double>(config.s1_rows), 2.0},
      {"staff_middle", &scenario->middle_flow(),
       static_cast<double>(config.s2_rows), 3.0},
      {"click_top", &scenario->top_flow(),
       static_cast<double>(config.s3_rows), 0.5},
  };

  FlowServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.max_concurrent_flows = 1;  // one lane, as in Sec. 2.2
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);

  std::promise<void> window_open;
  FlowSubmission gate;
  gate.flow = WindowGate(window_open.get_future().share());
  const Result<uint64_t> gate_ticket = service.Submit(std::move(gate));
  if (!gate_ticket.ok()) return 1;
  for (Job& job : jobs) {
    PhysicalDesign design;
    design.flow = *job.flow;
    job.predicted_s = model.EstimatePhases(design, job.rows).total_s;
    FlowSubmission submission;
    submission.flow = job.flow->ToFlowSpec();
    submission.config.sla.deadline_micros =
        static_cast<int64_t>(job.deadline_s * 1e6);
    submission.predicted_micros = static_cast<int64_t>(job.predicted_s * 1e6);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    if (!ticket.ok()) {
      std::cerr << job.id << " not admitted: " << ticket.status() << "\n";
      return 1;
    }
    job.ticket = ticket.value();
  }
  window_open.set_value();
  if (!service.Wait(gate_ticket.value()).ok()) return 1;
  for (Job& job : jobs) {
    Result<RunMetrics> metrics = service.Wait(job.ticket);
    if (!metrics.ok()) {
      std::cerr << job.id << " failed: " << metrics.status() << "\n";
      return 1;
    }
    job.metrics = metrics.TakeValue();
  }

  // Dispatch order is queue-wait order on a single lane.
  std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.metrics.queue_wait_micros < b.metrics.queue_wait_micros;
  });
  std::printf("%-14s %11s %8s %8s %9s %9s %s\n", "flow", "predicted_s",
              "queue_s", "run_s", "deadline", "slack_s", "met");
  size_t met = 0;
  for (const Job& job : jobs) {
    const double slack_s =
        static_cast<double>(job.metrics.deadline_slack_micros) / 1e6;
    met += slack_s >= 0 ? 1 : 0;
    std::printf("%-14s %11.3f %8.3f %8.3f %9.2f %9.3f %s\n", job.id,
                job.predicted_s,
                static_cast<double>(job.metrics.queue_wait_micros) / 1e6,
                static_cast<double>(job.metrics.total_micros) / 1e6,
                job.deadline_s, slack_s, slack_s >= 0 ? "yes" : "NO");
  }
  std::cout << "\n" << met << "/" << jobs.size()
            << " deadlines met (EDF dispatch on one lane)\nwarehouse: SALES="
            << scenario->dw1()->NumRows().value()
            << " SALES_REP=" << scenario->dw2()->NumRows().value()
            << " CUSTOMER=" << scenario->dw3()->NumRows().value() << "\n";
  return 0;
}
