// End-to-end fault-tolerance tests: storage faults injected by FaultyStore,
// byte-corrupted recovery points, retry policies with backoff, and the
// watchdog deadline — the executor must complete with correct target
// contents whenever the faults are transient, and fail fast when they are
// permanent.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/sort_op.h"
#include "storage/faulty_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::MakeTempDir("ft_test");
    rp_store_ = RecoveryPointStore::Open(dir_).value();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  FlowSpec MakeFlow(DataStorePtr source,
                    const std::shared_ptr<MemTable>& target) {
    FlowSpec spec;
    spec.id = "ft_flow";
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
    spec.target = target;
    return spec;
  }

  Schema TargetSchema() {
    FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
    return fn.Bind(SimpleSchema()).value();
  }

  /// The flow's correct output, from an undisturbed reference run.
  std::vector<Row> ReferenceOutput(const std::vector<Row>& input) {
    auto target = std::make_shared<MemTable>("ref_wh", TargetSchema());
    const FlowSpec flow =
        MakeFlow(MakeSource(SimpleSchema(), input), target);
    const Result<RunMetrics> metrics = Executor::Run(flow, ExecutionConfig{});
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    std::vector<Row> rows;
    EXPECT_TRUE(target
                    ->Scan(1024,
                           [&](const RowBatch& batch) {
                             for (const Row& row : batch.rows()) {
                               rows.push_back(row);
                             }
                             return Status::OK();
                           })
                    .ok());
    return rows;
  }

  /// Flips one byte in every persisted recovery-point data file.
  size_t CorruptRpFiles() {
    size_t corrupted = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (!entry.path().string().ends_with(".rp.csv")) continue;
      std::fstream file(entry.path(),
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(2);
      file.put('#');
      ++corrupted;
    }
    return corrupted;
  }

  std::string dir_;
  RecoveryPointStorePtr rp_store_;
};

// The acceptance scenario: a run left a recovery point behind, its bytes
// rot on disk, and the next run of the same flow faces a transient storage
// fault on top. The executor must fall back past the corrupted point,
// retry the faulted extraction with backoff, and still produce exactly the
// right warehouse contents.
TEST_F(FaultToleranceTest, CorruptedRpAndTransientScanFaultStillCompletes) {
  const std::vector<Row> input = SimpleRows(400);
  const std::vector<Row> expected = ReferenceOutput(input);

  // Run 1: fail hard after the cut-0 recovery point is written, so the
  // point survives on disk (recovery points are only dropped on success).
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 1;  // during the second transform, after RP(0)
  spec.at_fraction = 0.0;
  spec.on_attempt = 1;
  injector.AddFailure(spec);
  auto wh1 = std::make_shared<MemTable>("wh1", TargetSchema());
  ExecutionConfig config1;
  config1.recovery_points = {0};
  config1.rp_store = rp_store_;
  config1.injector = &injector;
  config1.retry.max_attempts = 1;  // no retry: leave the RP behind
  const Result<RunMetrics> run1 =
      Executor::Run(MakeFlow(MakeSource(SimpleSchema(), input), wh1), config1);
  ASSERT_FALSE(run1.ok());
  ASSERT_TRUE(run1.status().IsInjectedFailure()) << run1.status();

  // Rot the persisted recovery point.
  ASSERT_EQ(CorruptRpFiles(), 1u);

  // Run 2: same flow id and rp store; the source additionally fails its
  // first scan with a transient fault.
  FaultPlan plan;
  plan.scan_fail_on_call = 1;
  auto faulty_source = std::make_shared<FaultyStore>(
      MakeSource(SimpleSchema(), input), plan, /*seed=*/11);
  auto wh2 = std::make_shared<MemTable>("wh2", TargetSchema());
  ExecutionConfig config2;
  config2.recovery_points = {0};
  config2.rp_store = rp_store_;
  config2.retry.max_attempts = 3;
  config2.retry.initial_backoff_micros = 500;
  const Result<RunMetrics> run2 =
      Executor::Run(MakeFlow(faulty_source, wh2), config2);
  ASSERT_TRUE(run2.ok()) << run2.status();
  const RunMetrics& m = run2.value();

  // Attempt 1 hit the corrupted RP (one fallback) and then the transient
  // scan fault (one retried cause, with a real backoff wait); attempt 2
  // completed.
  EXPECT_EQ(m.rp_corruption_fallbacks, 1u);
  EXPECT_EQ(m.attempts, 2u);
  EXPECT_EQ(m.TotalRetries(), 1u);
  EXPECT_EQ(m.retries_by_cause.count("unavailable"), 1u);
  EXPECT_GT(m.backoff_micros, 0);
  EXPECT_EQ(faulty_source->scan_faults_injected(), 1u);

  // And the warehouse holds exactly the reference contents.
  std::vector<Row> loaded;
  ASSERT_TRUE(wh2->Scan(1024,
                        [&](const RowBatch& batch) {
                          for (const Row& row : batch.rows()) {
                            loaded.push_back(row);
                          }
                          return Status::OK();
                        })
                  .ok());
  EXPECT_TRUE(SameMultiset(loaded, expected));
  // Success cleans up the flow's recovery points.
  EXPECT_FALSE(rp_store_->Has({"ft_flow", "i0.cut0"}));
}

TEST_F(FaultToleranceTest, TornWriteOnLoadDoesNotDuplicateRows) {
  const std::vector<Row> input = SimpleRows(100);
  auto inner = std::make_shared<MemTable>("wh", SimpleSchema());
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  plan.torn_writes = true;  // half the failed batch lands durably
  auto faulty_target = std::make_shared<FaultyStore>(inner, plan, /*seed=*/5);

  FlowSpec flow;  // no transforms: load path is the subject
  flow.id = "torn_flow";
  flow.source = MakeSource(SimpleSchema(), input);
  flow.target = faulty_target;
  ExecutionConfig config;
  config.batch_size = 32;
  config.retry.max_attempts = 4;
  config.retry.initial_backoff_micros = 200;
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().retries_by_cause.count("unavailable"), 1u);
  EXPECT_GT(metrics.value().backoff_micros, 0);

  // Exactly the input rows: the torn half-batch was not re-appended.
  std::vector<Row> loaded;
  ASSERT_TRUE(inner
                  ->Scan(1024,
                         [&](const RowBatch& batch) {
                           for (const Row& row : batch.rows()) {
                             loaded.push_back(row);
                           }
                           return Status::OK();
                         })
                  .ok());
  EXPECT_TRUE(SameMultiset(loaded, input));
}

TEST_F(FaultToleranceTest, ArbitraryTornPrefixesNeverDuplicateRows) {
  // Sampled torn fractions: every retried load must re-derive durable
  // progress from the target and skip exactly the torn prefix, whatever
  // its size — in both execution modes.
  const std::vector<Row> input = SimpleRows(300);
  for (const bool streaming : {false, true}) {
    for (const uint64_t seed : {3u, 7u, 19u, 23u}) {
      SCOPED_TRACE((streaming ? "streaming seed " : "phased seed ") +
                   std::to_string(seed));
      auto inner = std::make_shared<MemTable>("wh", SimpleSchema());
      FaultPlan plan;
      plan.append_fault_probability = 0.4;
      plan.torn_writes = true;
      plan.torn_fraction = -1.0;  // sampled durable prefix per fault
      auto faulty_target = std::make_shared<FaultyStore>(inner, plan, seed);

      FlowSpec flow;  // no transforms: the load path is the subject
      flow.id = "torn_prefix_flow";
      flow.source = MakeSource(SimpleSchema(), input);
      flow.target = faulty_target;
      ExecutionConfig config;
      config.streaming = streaming;
      config.batch_size = 16;
      config.retry.max_attempts = 64;  // every attempt makes progress, but
      config.retry.initial_backoff_micros = 10;  // faults keep coming
      config.retry.max_backoff_micros = 200;
      const Result<RunMetrics> metrics = Executor::Run(flow, config);
      ASSERT_TRUE(metrics.ok()) << metrics.status();
      EXPECT_TRUE(SameMultiset(inner->ReadAll().value().rows(), input));
    }
  }
}

TEST_F(FaultToleranceTest, PermanentStorageErrorFailsFast) {
  const std::vector<Row> input = SimpleRows(50);
  FaultPlan plan;
  plan.scan_fault_probability = 1.0;
  plan.permanent = true;
  auto faulty_source = std::make_shared<FaultyStore>(
      MakeSource(SimpleSchema(), input), plan, /*seed=*/3);
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.retry.max_attempts = 5;
  config.retry.initial_backoff_micros = 1000000;  // would cost seconds if
                                                  // wrongly retried
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(faulty_source, target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kIoError);
  // Exactly one fault was drawn: no attempt was wasted retrying it.
  EXPECT_EQ(faulty_source->scan_faults_injected(), 1u);
}

TEST_F(FaultToleranceTest, WatchdogDeadlineAbortsHungExtraction) {
  // 20k rows take well over the 10us deadline; every attempt times out and
  // the run surfaces the deadline status after exhausting the budget.
  const std::vector<Row> input = SimpleRows(20000);
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  ExecutionConfig config;
  config.retry.max_attempts = 2;
  config.retry.attempt_deadline_micros = 10;
  const Result<RunMetrics> metrics = Executor::Run(
      MakeFlow(MakeSource(SimpleSchema(), input), target), config);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultToleranceTest, BindChainValidatesRetryPolicy) {
  const std::vector<Row> input = SimpleRows(10);
  auto target = std::make_shared<MemTable>("wh", TargetSchema());
  const FlowSpec flow =
      MakeFlow(MakeSource(SimpleSchema(), input), target);
  ExecutionConfig config;
  config.retry.multiplier = 0.5;
  EXPECT_EQ(Executor::BindChain(flow, config).status().code(),
            StatusCode::kInvalidArgument);
  config.retry.multiplier = 2.0;
  config.retry.jitter = 1.5;
  EXPECT_EQ(Executor::BindChain(flow, config).status().code(),
            StatusCode::kInvalidArgument);
  config.retry.jitter = 0.5;
  config.retry.attempt_deadline_micros = -1;
  EXPECT_EQ(Executor::BindChain(flow, config).status().code(),
            StatusCode::kInvalidArgument);
  config.retry.attempt_deadline_micros = 0;
  EXPECT_TRUE(Executor::BindChain(flow, config).ok());
}

}  // namespace
}  // namespace qox
