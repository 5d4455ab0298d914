// n-modular redundancy: majority voting, instance-failure tolerance,
// output equivalence with the non-redundant run (Sec. 3.3 / Fig. 7), and
// the post-vote load through a faulty target.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "storage/dead_letter_store.h"
#include "storage/faulty_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source, const DataStorePtr& target,
                  const SurrogateKeyRegistryPtr& registry = nullptr) {
  FlowSpec spec;
  spec.id = "nmr_flow";
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FunctionOp>(
        "fn", std::vector<ColumnTransform>{
                  ColumnTransform::Scale("scaled", "amount", 2.0)});
  });
  if (registry != nullptr) {
    spec.transforms.push_back([registry]() -> OperatorPtr {
      return std::make_unique<SurrogateKeyOp>("sk", registry, "category",
                                              "category_key", true);
    });
  }
  spec.target = target;
  return spec;
}

Schema BoundSchema(bool with_sk,
                   const SurrogateKeyRegistryPtr& registry = nullptr) {
  Schema schema = SimpleSchema();
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  schema = fn.Bind(schema).value();
  if (with_sk) {
    SurrogateKeyOp sk("sk", registry, "category", "category_key", true);
    schema = sk.Bind(schema).value();
  }
  return schema;
}

class RedundancyDegreeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RedundancyDegreeTest, VotedOutputEqualsSequential) {
  const size_t k = GetParam();
  const std::vector<Row> input = SimpleRows(400);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  auto reference = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = k;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().redundancy, k);
  EXPECT_TRUE(SameMultiset(reference->ReadAll().value().rows(),
                           target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(Degrees, RedundancyDegreeTest,
                         ::testing::Values(2, 3, 4, 5));

/// Pass-through op whose Finish holds its instance (for a bounded time)
/// until `injector` has fired, so the majority cannot vote — and cancel
/// the straggler — before a minority instance's injected failure lands.
class AwaitFailureOp final : public Operator {
 public:
  explicit AwaitFailureOp(const FailureInjector* injector)
      : injector_(injector) {}
  const char* kind() const override { return "await_failure"; }
  const std::string& name() const override { return name_; }
  Result<Schema> Bind(const Schema& input) override { return input; }
  Status Push(const RowBatch& input, RowBatch* output) override {
    for (const Row& row : input.rows()) output->Append(row);
    return Status::OK();
  }
  Status Finish(RowBatch* output) override {
    (void)output;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (injector_->triggered_count() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }

 private:
  const FailureInjector* const injector_;
  const std::string name_ = "await_failure";
};

TEST(RedundancyTest, ToleratesMinorityInstanceFailures) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(300));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill instance 1 (TMR tolerates one dead instance).
  FailureSpec spec;
  spec.at_op = 0;
  spec.at_fraction = 0.3;
  spec.target_instance = 1;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  FlowSpec flow = MakeFlow(source, target);
  flow.transforms.push_back([&injector]() -> OperatorPtr {
    return std::make_unique<AwaitFailureOp>(&injector);
  });
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().failures_injected, 1u);
  // 37 of the 300 rows (ids 7, 15, ..., 295) carry NULL amounts.
  EXPECT_EQ(target->NumRows().value(), 263u);
}

TEST(RedundancyTest, MajorityLossFailsTheRun) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  FailureInjector injector;
  // Kill 2 of 3 instances: no majority of successes possible... but the
  // surviving instance still constitutes a 1-of-3 result, which is below
  // majority. The run must fail.
  for (int instance = 0; instance < 2; ++instance) {
    FailureSpec spec;
    spec.at_op = 0;
    spec.at_fraction = 0.0;
    spec.target_instance = instance;
    injector.AddFailure(spec);
  }
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  config.injector = &injector;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  EXPECT_FALSE(metrics.ok());
}

TEST(RedundancyTest, SharedSurrogateRegistryKeepsInstancesConsistent) {
  // All redundant instances assign surrogates through one registry, so
  // their outputs are identical and the vote succeeds.
  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(true, registry));
  ExecutionConfig config;
  config.num_threads = 4;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target, registry), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(registry->size(), 3u);  // categories a, b, c
}

TEST(RedundancyTest, MetricsComeFromAcceptedInstance) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(200));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema(false));
  ExecutionConfig config;
  config.num_threads = 2;
  config.redundancy = 3;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().rows_extracted, 200u);
  EXPECT_GT(metrics.value().extract_micros, 0);
  EXPECT_EQ(metrics.value().rows_loaded, target->NumRows().value());
}

// The voted output is loaded by the same load stage as a redundancy-1 run,
// retried under the flow's RetryPolicy with the durable-prefix skip.
class VotedLoadTest : public ::testing::TestWithParam<bool> {
 protected:
  std::vector<Row> CleanOutput(const DataStorePtr& source) {
    auto clean = std::make_shared<MemTable>("clean", BoundSchema(false));
    EXPECT_TRUE(Executor::Run(MakeFlow(source, clean), ExecutionConfig{}).ok());
    return clean->ReadAll().value().rows();
  }

  ExecutionConfig Config() const {
    ExecutionConfig config;
    config.streaming = GetParam();
    config.num_threads = 2;
    config.redundancy = 3;
    config.batch_size = 50;  // several appends per load
    config.retry.max_attempts = 3;
    config.retry.initial_backoff_micros = 0;
    return config;
  }
};

TEST_P(VotedLoadTest, TornAppendIsRetriedWithoutDuplicates) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  const std::vector<Row> expected = CleanOutput(source);

  auto warehouse = std::make_shared<MemTable>("wh", BoundSchema(false));
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  plan.torn_writes = true;  // half the failed batch lands durably
  auto target = std::make_shared<FaultyStore>(warehouse, plan, /*seed=*/5);
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), Config());
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(target->append_faults_injected(), 1u);
  EXPECT_EQ(metrics.value().TotalRetries(), 1u);
  EXPECT_EQ(metrics.value().rows_loaded, expected.size());
  EXPECT_EQ(warehouse->ReadAll().value().rows(), expected);
}

TEST_P(VotedLoadTest, ShedRowsLandInTheLedger) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(400));
  const std::vector<Row> expected = CleanOutput(source);

  auto warehouse = std::make_shared<MemTable>("wh", BoundSchema(false));
  FaultPlan plan;
  plan.append_fail_on_call = 2;
  plan.disk_fault = DiskFaultKind::kEnospc;
  auto target = std::make_shared<FaultyStore>(warehouse, plan, /*seed=*/5);
  auto dlq = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config = Config();
  config.resource_policy = ResourcePolicy::kShedToQuarantine;
  config.dead_letter = dlq;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  std::vector<Row> recovered = warehouse->ReadAll().value().rows();
  const size_t loaded = recovered.size();
  const std::vector<QuarantineRecord> records = dlq->ReadAll().value();
  ASSERT_FALSE(records.empty());
  for (const QuarantineRecord& record : records) {
    EXPECT_EQ(record.op_name, "load");
    recovered.push_back(
        DecodeQuarantinePayload(record.payload, BoundSchema(false)).value());
  }
  EXPECT_EQ(metrics.value().rows_shed, records.size());
  EXPECT_EQ(metrics.value().rows_quarantined, records.size());
  EXPECT_EQ(metrics.value().rows_loaded, loaded);
  EXPECT_EQ(loaded + records.size(), expected.size());
  EXPECT_TRUE(SameMultiset(recovered, expected));
}

INSTANTIATE_TEST_SUITE_P(Modes, VotedLoadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Streaming" : "Phased";
                         });

}  // namespace
}  // namespace qox
