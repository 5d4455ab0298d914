// FlowService: many flows over one shared WorkerPool. Covers output
// equivalence (concurrent service runs byte-identical to solo phased AND
// solo streaming execution), observable EDF dispatch ordering, the
// admission-control reject path, cross-flow failure isolation, and the
// queue-wait / deadline-slack attribution in RunMetrics. The one-lane EDF
// window tests gate the lane until a whole window is queued, so they pin
// dispatch order, back-to-back execution, tie-breaking and met/missed
// deadlines deterministically.

#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "engine/flow_service.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const std::string& id, const DataStorePtr& source,
                  const DataStorePtr& target) {
  FlowSpec spec;
  spec.id = id;
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 3.0)});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<SortOp>("sort",
                                    std::vector<SortKey>{{"id", false}});
  });
  spec.target = target;
  return spec;
}

Schema BoundSchema() {
  Schema schema = SimpleSchema();
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 3.0)});
  return fn.Bind(schema).value();
}

/// Solo reference run of the flow under `config` on a private pool.
std::vector<Row> RunSolo(const DataStorePtr& source, ExecutionConfig config) {
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow("solo", source, target), config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return target->ReadAll().value().rows();
}

TEST(FlowServiceTest, ConcurrentFlowsMatchSoloPhasedAndStreaming) {
  // 8 concurrent flows (phased and streaming alternating, distinct row
  // volumes) against a small shared pool: every target must come out
  // byte-identical to the same flow run solo on a private pool. Only
  // thread provenance changes under the service — never results.
  constexpr size_t kFlows = 8;
  std::vector<DataStorePtr> sources;
  std::vector<std::vector<Row>> expected;
  std::vector<ExecutionConfig> configs;
  for (size_t i = 0; i < kFlows; ++i) {
    sources.push_back(
        testing_util::MakeSource(SimpleSchema(), SimpleRows(300 + 67 * i)));
    ExecutionConfig config;
    config.num_threads = 2;
    config.parallel.partitions = 2;
    config.batch_size = 64;
    config.streaming = (i % 2 == 1);
    configs.push_back(config);
    expected.push_back(RunSolo(sources[i], config));
  }

  FlowServiceConfig service_config;
  service_config.num_workers = 3;
  service_config.max_concurrent_flows = kFlows;  // all live at once
  FlowService service(service_config);
  std::vector<std::shared_ptr<MemTable>> targets;
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < kFlows; ++i) {
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
    FlowSubmission submission;
    submission.flow =
        MakeFlow("flow" + std::to_string(i), sources[i], targets[i]);
    submission.config = configs[i];
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(ticket.value());
  }
  for (size_t i = 0; i < kFlows; ++i) {
    const Result<RunMetrics> metrics = service.Wait(tickets[i]);
    ASSERT_TRUE(metrics.ok()) << "flow " << i << ": " << metrics.status();
    EXPECT_EQ(metrics.value().streaming, configs[i].streaming);
    EXPECT_EQ(expected[i], targets[i]->ReadAll().value().rows())
        << "flow " << i << " diverged from its solo run";
  }
  EXPECT_EQ(service.stats().admitted, kFlows);
  EXPECT_EQ(service.stats().completed, kFlows);
}

TEST(FlowServiceTest, EdfDispatchesTightestDeadlineFirst) {
  // One concurrency slot, one long-running flow occupying it; three more
  // flows submitted with deadlines in reverse-urgency order. Under EDF
  // the pending queue must drain tightest-deadline-first, observable via
  // each flow's load order into a shared ledger of completion.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kEdf;
  FlowService service(service_config);

  std::mutex mu;
  std::vector<std::string> finish_order;
  const auto submit = [&](const std::string& id, int64_t deadline_micros,
                          size_t rows) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        id, testing_util::MakeSource(SimpleSchema(), SimpleRows(rows)),
        target);
    submission.flow.post_success = [&mu, &finish_order, id]() -> Status {
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(id);
      return Status::OK();
    };
    submission.config.sla.deadline_micros = deadline_micros;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    EXPECT_TRUE(ticket.ok()) << ticket.status();
    return ticket.value();
  };

  // The slot-occupier keeps the queue backed up while the rest arrive.
  const uint64_t first = submit("occupier", 0, 20000);
  const uint64_t loose = submit("loose", 60000000, 50);
  const uint64_t none = submit("none", 0, 50);
  const uint64_t tight = submit("tight", 5000000, 50);
  for (const uint64_t t : {first, loose, none, tight}) {
    ASSERT_TRUE(service.Wait(t).ok());
  }
  ASSERT_EQ(finish_order.size(), 4u);
  EXPECT_EQ(finish_order[0], "occupier");
  EXPECT_EQ(finish_order[1], "tight");   // earliest deadline jumps the queue
  EXPECT_EQ(finish_order[2], "loose");
  EXPECT_EQ(finish_order[3], "none");    // no deadline goes last
}

TEST(FlowServiceTest, FifoDispatchesInSubmissionOrder) {
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  service_config.policy = QueuePolicy::kFifo;
  FlowService service(service_config);

  std::mutex mu;
  std::vector<std::string> finish_order;
  std::vector<uint64_t> tickets;
  const std::vector<std::string> ids = {"a", "b", "c", "d"};
  for (size_t i = 0; i < ids.size(); ++i) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        ids[i], testing_util::MakeSource(SimpleSchema(), SimpleRows(100)),
        target);
    const std::string id = ids[i];
    submission.flow.post_success = [&mu, &finish_order, id]() -> Status {
      std::lock_guard<std::mutex> lock(mu);
      finish_order.push_back(id);
      return Status::OK();
    };
    // Deadlines in REVERSE submission order: FIFO must ignore them.
    submission.config.sla.deadline_micros =
        static_cast<int64_t>((ids.size() - i) * 10000000);
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(ticket.value());
  }
  for (const uint64_t t : tickets) ASSERT_TRUE(service.Wait(t).ok());
  EXPECT_EQ(finish_order, ids);
}

TEST(FlowServiceTest, AdmissionControlRejectsInfeasibleSla) {
  FlowServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.max_concurrent_flows = 2;
  service_config.admit_only_feasible = true;
  FlowService service(service_config);

  // First flow: generous deadline, large predicted load — admitted. Its
  // post_success hook parks on a latch so the predicted load stays
  // outstanding until every later submission has been adjudicated (the
  // tiny flow would otherwise race to completion and free the capacity
  // the test needs occupied).
  std::mutex hold_mu;
  std::condition_variable hold_cv;
  bool released = false;
  FlowSubmission big;
  auto target1 = std::make_shared<MemTable>("tgt", BoundSchema());
  big.flow = MakeFlow(
      "big", testing_util::MakeSource(SimpleSchema(), SimpleRows(500)),
      target1);
  big.flow.post_success = [&hold_mu, &hold_cv, &released]() {
    std::unique_lock<std::mutex> lock(hold_mu);
    hold_cv.wait(lock, [&released]() { return released; });
    return Status::OK();
  };
  big.config.sla.deadline_micros = 3600000000;  // one hour: feasible
  big.predicted_micros = 500000000;             // ~250s/worker outstanding
  const Result<uint64_t> admitted = service.Submit(std::move(big));
  ASSERT_TRUE(admitted.ok()) << admitted.status();

  // Second flow: a deadline the outstanding predicted load already makes
  // impossible — rejected at Submit with kResourceExhausted.
  FlowSubmission doomed;
  auto target2 = std::make_shared<MemTable>("tgt", BoundSchema());
  doomed.flow = MakeFlow(
      "doomed", testing_util::MakeSource(SimpleSchema(), SimpleRows(10)),
      target2);
  doomed.config.sla.deadline_micros = 1000000;  // 1s: infeasible
  doomed.predicted_micros = 900000;
  const Result<uint64_t> rejected = service.Submit(std::move(doomed));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // A flow without an SLA is always admitted, whatever the load.
  FlowSubmission no_sla;
  auto target3 = std::make_shared<MemTable>("tgt", BoundSchema());
  no_sla.flow = MakeFlow(
      "no_sla", testing_util::MakeSource(SimpleSchema(), SimpleRows(10)),
      target3);
  no_sla.predicted_micros = 900000;
  const Result<uint64_t> always = service.Submit(std::move(no_sla));
  ASSERT_TRUE(always.ok()) << always.status();

  {
    std::lock_guard<std::mutex> lock(hold_mu);
    released = true;
  }
  hold_cv.notify_all();
  ASSERT_TRUE(service.Wait(admitted.value()).ok());
  ASSERT_TRUE(service.Wait(always.value()).ok());
  EXPECT_EQ(service.stats().submitted, 3u);
  EXPECT_EQ(service.stats().admitted, 2u);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(FlowServiceTest, FailingFlowDoesNotPoisonNeighbors) {
  // One flow fails permanently mid-run (injected failure, no retry
  // budget); its neighbors — including streaming ones sharing the pool —
  // complete untouched and byte-identical to solo runs.
  FlowServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.max_concurrent_flows = 4;
  FlowService service(service_config);

  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;
  spec.at_fraction = 0.5;
  spec.on_attempt = 1;
  injector.AddFailure(spec);

  FlowSubmission failing;
  auto failing_target = std::make_shared<MemTable>("tgt", BoundSchema());
  failing.flow = MakeFlow(
      "failing", testing_util::MakeSource(SimpleSchema(), SimpleRows(400)),
      failing_target);
  failing.config.injector = &injector;
  failing.config.retry.max_attempts = 1;  // no retries: the flow dies
  const Result<uint64_t> failing_ticket = service.Submit(std::move(failing));
  ASSERT_TRUE(failing_ticket.ok());

  std::vector<uint64_t> healthy;
  std::vector<std::shared_ptr<MemTable>> targets;
  std::vector<std::vector<Row>> expected;
  std::vector<DataStorePtr> sources;
  for (size_t i = 0; i < 3; ++i) {
    sources.push_back(
        testing_util::MakeSource(SimpleSchema(), SimpleRows(200 + i)));
    ExecutionConfig config;
    config.streaming = (i % 2 == 0);
    config.num_threads = 2;
    config.parallel.partitions = 2;
    expected.push_back(RunSolo(sources[i], config));
    targets.push_back(std::make_shared<MemTable>("tgt", BoundSchema()));
    FlowSubmission submission;
    submission.flow =
        MakeFlow("healthy" + std::to_string(i), sources[i], targets[i]);
    submission.config = config;
    const Result<uint64_t> ticket = service.Submit(std::move(submission));
    ASSERT_TRUE(ticket.ok());
    healthy.push_back(ticket.value());
  }

  const Result<RunMetrics> failed = service.Wait(failing_ticket.value());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInjectedFailure);
  for (size_t i = 0; i < healthy.size(); ++i) {
    const Result<RunMetrics> metrics = service.Wait(healthy[i]);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_EQ(expected[i], targets[i]->ReadAll().value().rows());
  }
  EXPECT_EQ(service.stats().completed, 4u);
}

TEST(FlowServiceTest, AttributesQueueWaitAndDeadlineSlack) {
  // With one slot, the second flow demonstrably queues; its metrics must
  // carry the wait, and a deadline-carrying flow must report its slack.
  FlowServiceConfig service_config;
  service_config.num_workers = 1;
  service_config.max_concurrent_flows = 1;
  FlowService service(service_config);

  const auto submit = [&](int64_t deadline_micros, size_t rows) {
    FlowSubmission submission;
    auto target = std::make_shared<MemTable>("tgt", BoundSchema());
    submission.flow = MakeFlow(
        "flow", testing_util::MakeSource(SimpleSchema(), SimpleRows(rows)),
        target);
    submission.config.sla.deadline_micros = deadline_micros;
    return service.Submit(std::move(submission)).value();
  };
  const uint64_t first = submit(0, 3000);
  const uint64_t second = submit(3600000000, 50);  // queues behind first

  const Result<RunMetrics> first_metrics = service.Wait(first);
  ASSERT_TRUE(first_metrics.ok());
  EXPECT_EQ(first_metrics.value().deadline_slack_micros, 0);  // no SLA

  const Result<RunMetrics> second_metrics = service.Wait(second);
  ASSERT_TRUE(second_metrics.ok());
  EXPECT_GT(second_metrics.value().queue_wait_micros, 0);
  EXPECT_GT(second_metrics.value().deadline_slack_micros, 0);  // met easily
  EXPECT_EQ(service.stats().deadline_hits, 1u);
  EXPECT_EQ(service.stats().deadline_misses, 0u);
}

TEST(FlowServiceTest, WaitOnUnknownTicketErrors) {
  FlowService service(FlowServiceConfig{});
  const Result<RunMetrics> result = service.Wait(42);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(FlowServiceTest, SoloRunStillStampsDeadlineSlack) {
  // The SLA knob works without a service: a solo Run() with a relative
  // deadline stamps it at start and reports slack on completion.
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.sla.deadline_micros = 3600000000;  // an hour of slack
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow("solo_sla",
               testing_util::MakeSource(SimpleSchema(), SimpleRows(100)),
               target),
      config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().deadline_slack_micros, 0);
  EXPECT_EQ(metrics.value().queue_wait_micros, 0);  // no service, no queue
}

// ---------------------------------------------------------------------------
// One-lane EDF windows. A gate flow holds the service's only lane until
// every flow of the window is queued, so dispatch order is decided by the
// queue policy alone, not by submission races.
// ---------------------------------------------------------------------------

/// A no-op flow whose commit waits for `opened`.
FlowSubmission WindowGate(std::shared_future<void> opened) {
  const Schema schema({{"tick", DataType::kInt64, false}});
  FlowSubmission gate;
  gate.flow.id = "window_gate";
  gate.flow.source = std::make_shared<MemTable>("gate_in", schema);
  gate.flow.target = std::make_shared<MemTable>("gate_out", schema);
  gate.flow.post_success = [opened] {
    opened.wait();
    return Status::OK();
  };
  return gate;
}

/// A one-lane EDF service plus a ledger of when each flow's driver was
/// inside Executor::Run: `started` at the first transform instantiation,
/// `finished` at commit.
class OneLaneWindow {
 public:
  explicit OneLaneWindow(bool admit_only_feasible = false)
      : service_([admit_only_feasible] {
          FlowServiceConfig config;
          config.num_workers = 1;
          config.max_concurrent_flows = 1;
          config.policy = QueuePolicy::kEdf;
          config.admit_only_feasible = admit_only_feasible;
          return config;
        }()) {
    gate_ = service_.Submit(WindowGate(open_.get_future().share())).value();
  }

  /// Queues a flow of `rows` rows; `sla` fills its ExecutionConfig::sla.
  Result<uint64_t> Submit(const std::string& id, size_t rows, FlowSla sla,
                          int64_t predicted_micros = 0) {
    FlowSubmission submission;
    submission.flow = MakeFlow(
        id, testing_util::MakeSource(SimpleSchema(), SimpleRows(rows)),
        std::make_shared<MemTable>("tgt", BoundSchema()));
    const OperatorFactory first = submission.flow.transforms.front();
    submission.flow.transforms.front() = [this, id, first]() {
      std::lock_guard<std::mutex> lock(mu_);
      started_.emplace(id, NowMicros());  // first instantiation wins
      return first();
    };
    submission.flow.post_success = [this, id]() -> Status {
      std::lock_guard<std::mutex> lock(mu_);
      finished_[id] = NowMicros();
      order_.push_back(id);
      return Status::OK();
    };
    submission.config.sla = sla;
    submission.predicted_micros = predicted_micros;
    return service_.Submit(std::move(submission));
  }

  /// Releases the gate: the queued window starts draining.
  void Open() {
    open_.set_value();
    ASSERT_TRUE(service_.Wait(gate_).ok());
  }

  FlowService& service() { return service_; }
  std::vector<std::string> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  int64_t started(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    return started_.at(id);
  }
  int64_t finished(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_.at(id);
  }

 private:
  FlowService service_;
  std::promise<void> open_;
  uint64_t gate_ = 0;
  std::mutex mu_;
  std::map<std::string, int64_t> started_;
  std::map<std::string, int64_t> finished_;
  std::vector<std::string> order_;
};

FlowSla RelativeDeadline(double seconds) {
  FlowSla sla;
  sla.deadline_micros = static_cast<int64_t>(seconds * 1e6);
  return sla;
}

TEST(FlowServiceTest, EdfOrdersGatedWindowByDeadline) {
  OneLaneWindow window;
  const uint64_t late = window.Submit("late", 200, RelativeDeadline(100))
                            .value();
  const uint64_t urgent =
      window.Submit("urgent", 200, RelativeDeadline(20)).value();
  const uint64_t mid = window.Submit("mid", 200, RelativeDeadline(50)).value();
  window.Open();
  for (const uint64_t t : {late, urgent, mid}) {
    ASSERT_TRUE(window.service().Wait(t).ok());
  }
  EXPECT_EQ(window.order(),
            (std::vector<std::string>{"urgent", "mid", "late"}));
}

TEST(FlowServiceTest, OneLaneRunsQueuedFlowsBackToBack) {
  // One lane: each flow's run starts only after the previous one
  // committed, and its slack is charged for the time it spent queued.
  OneLaneWindow window;
  const std::vector<std::string> ids = {"a", "b", "c"};
  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < ids.size(); ++i) {
    tickets.push_back(window.Submit(ids[i], 1500,
                                    RelativeDeadline(600.0 * (i + 1)))
                          .value());
  }
  window.Open();
  std::vector<RunMetrics> metrics;
  for (const uint64_t t : tickets) {
    Result<RunMetrics> m = window.service().Wait(t);
    ASSERT_TRUE(m.ok()) << m.status();
    metrics.push_back(m.TakeValue());
  }
  ASSERT_EQ(window.order(), ids);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_LE(window.started(ids[i]), window.finished(ids[i]));
    if (i > 0) {
      EXPECT_GE(window.started(ids[i]), window.finished(ids[i - 1]))
          << ids[i] << " overlapped " << ids[i - 1] << " on one lane";
    }
    EXPECT_GT(metrics[i].deadline_slack_micros, 0);
    EXPECT_LE(metrics[i].deadline_slack_micros,
              static_cast<int64_t>(600e6 * (i + 1)) -
                  metrics[i].queue_wait_micros - metrics[i].total_micros);
  }
}

TEST(FlowServiceTest, AdmissionControlDetectsInfeasibleSetInEitherOrder) {
  // Two flows of 4s predicted work each on one worker, due at 5s and 7s:
  // no order meets both (EDF is optimal, and it cannot). Whichever is
  // submitted second is rejected; the first stays admitted.
  for (const bool tight_first : {true, false}) {
    OneLaneWindow window(/*admit_only_feasible=*/true);
    const auto submit_tight = [&] {
      return window.Submit("tight", 10, RelativeDeadline(5), 4000000);
    };
    const auto submit_loose = [&] {
      return window.Submit("loose", 10, RelativeDeadline(7), 4000000);
    };
    const Result<uint64_t> first = tight_first ? submit_tight()
                                               : submit_loose();
    const Result<uint64_t> second = tight_first ? submit_loose()
                                                : submit_tight();
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
    window.Open();
    ASSERT_TRUE(window.service().Wait(first.value()).ok());
    EXPECT_EQ(window.service().stats().rejected, 1u);
  }
}

TEST(FlowServiceTest, EdfBreaksDeadlineTiesInSubmissionOrder) {
  OneLaneWindow window;
  FlowSla sla;
  sla.absolute_deadline_micros = NowMicros() + 600000000;  // identical
  std::vector<uint64_t> tickets;
  for (const char* id : {"zz", "aa", "mm"}) {
    tickets.push_back(window.Submit(id, 50, sla).value());
  }
  window.Open();
  for (const uint64_t t : tickets) ASSERT_TRUE(window.service().Wait(t).ok());
  EXPECT_EQ(window.order(), (std::vector<std::string>{"zz", "aa", "mm"}));
}

TEST(FlowServiceTest, EdfWindowMeetsEveryFeasibleDeadline) {
  OneLaneWindow window;
  const uint64_t slow =
      window.Submit("slow_deadline", 500, RelativeDeadline(300)).value();
  const uint64_t tight =
      window.Submit("tight_deadline", 500, RelativeDeadline(60)).value();
  window.Open();
  for (const uint64_t t : {tight, slow}) {
    const Result<RunMetrics> metrics = window.service().Wait(t);
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_GT(metrics.value().rows_loaded, 0u);
    EXPECT_GT(metrics.value().deadline_slack_micros, 0);
  }
  EXPECT_EQ(window.order().front(), "tight_deadline");
  EXPECT_EQ(window.service().stats().deadline_hits, 2u);
  EXPECT_EQ(window.service().stats().deadline_misses, 0u);
}

TEST(FlowServiceTest, ReportsMissedDeadlineAsNegativeSlack) {
  // A deadline no run can meet: the flow still completes and loads, and
  // the miss shows as negative slack and in the service counters.
  OneLaneWindow window;
  FlowSla sla;
  sla.deadline_micros = 1;
  const uint64_t ticket = window.Submit("impossible", 2000, sla).value();
  window.Open();
  const Result<RunMetrics> metrics = window.service().Wait(ticket);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().rows_loaded, 0u);
  EXPECT_LT(metrics.value().deadline_slack_micros, 0);
  EXPECT_EQ(window.service().stats().deadline_hits, 0u);
  EXPECT_EQ(window.service().stats().deadline_misses, 1u);
}

TEST(FlowServiceTest, MalformedFlowFailsOnlyItsTicket) {
  FlowService service(FlowServiceConfig{});
  FlowSubmission broken;
  broken.flow.id = "broken";  // no source, no target
  broken.config.sla.deadline_micros = 10000000;
  const Result<uint64_t> broken_ticket = service.Submit(std::move(broken));
  ASSERT_TRUE(broken_ticket.ok()) << broken_ticket.status();

  FlowSubmission healthy;
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  healthy.flow = MakeFlow("healthy", source, target);
  const Result<uint64_t> healthy_ticket = service.Submit(std::move(healthy));
  ASSERT_TRUE(healthy_ticket.ok()) << healthy_ticket.status();

  const Result<RunMetrics> failed = service.Wait(broken_ticket.value());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Wait(healthy_ticket.value()).ok());
  EXPECT_EQ(RunSolo(source, ExecutionConfig{}),
            target->ReadAll().value().rows());
}

}  // namespace
}  // namespace qox
