// Reject auditing through the dead-letter ledger, and MTBF-sampled
// failures.

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/lookup_op.h"
#include "storage/dead_letter_store.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source,
                  const std::shared_ptr<MemTable>& target) {
  FlowSpec spec;
  spec.id = "audit_flow";
  spec.source = source;
  spec.transforms.push_back([]() -> OperatorPtr {
    return std::make_unique<FilterOp>(
        "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
  });
  spec.target = target;
  return spec;
}

TEST(RejectAuditTest, RejectedRowsLandInTheLedger) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(80));  // 10 NULLs
  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  auto ledger = DeadLetterStore::InMemory("audit");
  ExecutionConfig config;
  config.audit_rejects = true;
  config.dead_letter = ledger;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_rejected, 10u);
  EXPECT_EQ(metrics.value().rows_quarantined, 0u);
  const std::vector<QuarantineRecord> records = ledger->ReadAll().value();
  ASSERT_EQ(records.size(), 10u);
  const QuarantineRecord& first = records.front();
  EXPECT_EQ(first.flow_id, "audit_flow");
  EXPECT_EQ(first.status_code, kRejectedStatusCode);
  EXPECT_EQ(first.op_name, "flt");
  EXPECT_EQ(first.op_index, -1);
  EXPECT_EQ(first.instance, 0);
  EXPECT_EQ(first.attempt, 1);
  // The payload is the rejected row as it entered the filter: id 7 is the
  // first NULL amount.
  const Row row =
      DecodeQuarantinePayload(first.payload, SimpleSchema()).value();
  EXPECT_EQ(row.value(0).int64_value(), 7);
  EXPECT_TRUE(row.value(2).is_null());
}

TEST(RejectAuditTest, RetriedAttemptsTagTheirRecords) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(80));
  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  auto ledger = DeadLetterStore::InMemory("audit");
  FailureInjector injector;
  FailureSpec spec;
  spec.at_op = 0;
  spec.at_fraction = 0.9;
  injector.AddFailure(spec);
  ExecutionConfig config;
  config.audit_rejects = true;
  config.dead_letter = ledger;
  config.injector = &injector;
  // Small batches so attempt 1 processes (and audits) rows before the
  // late failure fires.
  config.batch_size = 16;
  ASSERT_TRUE(Executor::Run(MakeFlow(source, target), config).ok());
  bool saw_attempt_1 = false;
  bool saw_attempt_2 = false;
  const std::vector<QuarantineRecord> records = ledger->ReadAll().value();
  for (const QuarantineRecord& record : records) {
    if (record.attempt == 1) saw_attempt_1 = true;
    if (record.attempt == 2) saw_attempt_2 = true;
  }
  EXPECT_TRUE(saw_attempt_1);
  EXPECT_TRUE(saw_attempt_2);
}

TEST(RejectAuditTest, WithoutALedgerRejectsAreCountedAndDropped) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(80));
  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  ExecutionConfig config;
  config.audit_rejects = true;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_rejected, 10u);
  EXPECT_EQ(target->NumRows().value(), 70u);
}

TEST(RejectAuditTest, UnauditedRejectsStayOutOfTheLedger) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(80));
  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  auto ledger = DeadLetterStore::InMemory("dlq");
  ExecutionConfig config;
  config.dead_letter = ledger;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().rows_rejected, 10u);
  EXPECT_EQ(ledger->NumRecords().value(), 0u);
}

TEST(MtbfInjectorTest, FiresOnWallClockCrossings) {
  FailureInjector injector;
  Rng rng(7);
  // Mean 1 microsecond over a 1-second horizon: a crossing is immediate.
  injector.ArmMtbf(/*mtbf_seconds=*/1e-6, /*horizon_s=*/1.0, &rng);
  const Status st = injector.Check(0, 1, 0, 1, 100);
  EXPECT_TRUE(st.IsInjectedFailure()) << st;
  EXPECT_GT(injector.triggered_count(), 0u);
}

TEST(MtbfInjectorTest, LongMtbfDoesNotFire) {
  FailureInjector injector;
  Rng rng(7);
  injector.ArmMtbf(/*mtbf_seconds=*/3600.0, /*horizon_s=*/7200.0, &rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.Check(0, 1, i % 3, 10, 100).ok());
  }
}

TEST(MtbfInjectorTest, FlowSurvivesMtbfFailuresExactlyOnce) {
  const std::vector<Row> input = SimpleRows(300);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);
  auto reference = std::make_shared<MemTable>("tgt", SimpleSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  FailureInjector injector;
  Rng rng(11);
  // A couple of failures expected within the run's duration.
  injector.ArmMtbf(/*mtbf_seconds=*/0.002, /*horizon_s=*/0.005, &rng);
  ExecutionConfig config;
  config.injector = &injector;
  config.retry.max_attempts = 32;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_TRUE(testing_util::SameMultiset(reference->ReadAll().value().rows(),
                                         target->ReadAll().value().rows()));
}

// Property sweep: randomized one-shot failures at arbitrary positions,
// with and without recovery points, never break exactly-once.
class StochasticFailureTest : public ::testing::TestWithParam<int> {};

TEST_P(StochasticFailureTest, ExactlyOnceUnderRandomFailures) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const std::vector<Row> input = SimpleRows(400);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);
  auto reference = std::make_shared<MemTable>("tgt", SimpleSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, reference), ExecutionConfig{}).ok());

  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  FailureInjector injector;
  injector.ArmRandom(/*count=*/1 + seed % 3, /*num_ops=*/1, &rng);
  auto rp_store = RecoveryPointStore::Open(
                      ::testing::TempDir() + "/stochastic_rp" +
                      std::to_string(seed))
                      .value();
  ExecutionConfig config;
  config.injector = &injector;
  config.retry.max_attempts = 16;
  if (seed % 2 == 0) {
    config.recovery_points = {0};
    config.rp_store = rp_store;
  }
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_TRUE(testing_util::SameMultiset(reference->ReadAll().value().rows(),
                                         target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StochasticFailureTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace qox
