// Columnar fast-path equivalence: the default flow and its RowOnly-wrapped
// twin (testing_util::RowOnly, the row-kernel reference) must load a
// byte-identical warehouse — including when rows leave
// through side channels (reject sink, dead-letter ledger) via the
// selection vector — while the run metrics prove the vectorized path
// actually engaged.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/lookup_op.h"
#include "engine/ops/sort_op.h"
#include "engine/ops/surrogate_key_op.h"
#include "engine/quarantine.h"
#include "storage/dead_letter_store.h"
#include "storage/mem_table.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::MakeSource;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

Schema DimSchema() {
  return Schema({{"code", DataType::kString, false},
                 {"desc", DataType::kString, false}});
}

std::shared_ptr<MemTable> MakeDim(bool with_c) {
  auto dim = std::make_shared<MemTable>("dim", DimSchema());
  RowBatch batch(DimSchema());
  batch.Append(Row({Value::String("a"), Value::String("alpha")}));
  batch.Append(Row({Value::String("b"), Value::String("beta")}));
  if (with_c) {
    batch.Append(Row({Value::String("c"), Value::String("gamma")}));
  }
  EXPECT_TRUE(dim->Append(batch).ok());
  return dim;
}

/// lookup -> filter -> function -> sort: three columnar-capable ops
/// followed by a blocking (row-only) tail, so a columnar run must hand a
/// materialized batch back to the row path mid-pipeline.
FlowSpec MakeFlow(DataStorePtr source, DataStorePtr dim, DataStorePtr target,
                  LookupMissPolicy miss_policy) {
  FlowSpec spec;
  spec.id = "columnar_flow";
  spec.source = std::move(source);
  spec.transforms.push_back([dim, miss_policy]() -> OperatorPtr {
    return std::make_unique<LookupOp>("lkp", dim, "category", "code",
                                      std::vector<std::string>{"desc"},
                                      miss_policy);
  });
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

Schema TargetSchema(const DataStorePtr& dim, LookupMissPolicy miss_policy) {
  LookupOp lkp("lkp", dim, "category", "code", {"desc"}, miss_policy);
  FunctionOp fn("fn", {ColumnTransform::Scale("scaled", "amount", 2.0)});
  return fn.Bind(lkp.Bind(SimpleSchema()).value()).value();
}

struct RunResult {
  std::vector<Row> warehouse;
  RunMetrics metrics;
};

RunResult RunFlow(const std::vector<Row>& input, LookupMissPolicy miss_policy,
                  bool with_c, bool columnar, bool streaming,
                  bool audit_rejects = false,
                  const DeadLetterStorePtr& dlq = nullptr,
                  const std::vector<ErrorPolicy>& policies = {}) {
  auto dim = MakeDim(with_c);
  auto target = std::make_shared<MemTable>(
      "wh", TargetSchema(dim, miss_policy));
  ExecutionConfig config;
  config.streaming = streaming;
  config.batch_size = 32;
  config.audit_rejects = audit_rejects;
  config.dead_letter = dlq;
  config.error_policies = policies;
  FlowSpec flow =
      MakeFlow(MakeSource(SimpleSchema(), input), dim, target, miss_policy);
  if (!columnar) flow = testing_util::RowOnly(std::move(flow));
  const Result<RunMetrics> metrics = Executor::Run(flow, config);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  RunResult result;
  result.warehouse = target->ReadAll().value().rows();
  if (metrics.ok()) result.metrics = metrics.value();
  return result;
}

TEST(ColumnarExecutionTest, FastPathEngagesAndMatchesRowModeByteForByte) {
  const std::vector<Row> input = SimpleRows(300);
  const RunResult row_mode = RunFlow(input, LookupMissPolicy::kNull,
                                     /*with_c=*/true, /*columnar=*/false,
                                     /*streaming=*/false);
  const RunResult col_mode = RunFlow(input, LookupMissPolicy::kNull,
                                     /*with_c=*/true, /*columnar=*/true,
                                     /*streaming=*/false);

  EXPECT_EQ(row_mode.metrics.columnar_batches, 0u);
  EXPECT_GT(col_mode.metrics.columnar_batches, 0u);
  EXPECT_GT(col_mode.metrics.columnar_rows, 0u);
  // The trailing sort pins a total order: equality here is byte-for-byte.
  ASSERT_EQ(col_mode.warehouse.size(), row_mode.warehouse.size());
  for (size_t i = 0; i < row_mode.warehouse.size(); ++i) {
    ASSERT_TRUE(col_mode.warehouse[i] == row_mode.warehouse[i]) << "row " << i;
  }
}

TEST(ColumnarExecutionTest, StreamingSchedulerRunsTheSameFastPath) {
  const std::vector<Row> input = SimpleRows(300);
  const RunResult row_mode = RunFlow(input, LookupMissPolicy::kNull,
                                     /*with_c=*/true, /*columnar=*/false,
                                     /*streaming=*/true);
  const RunResult col_mode = RunFlow(input, LookupMissPolicy::kNull,
                                     /*with_c=*/true, /*columnar=*/true,
                                     /*streaming=*/true);
  EXPECT_GT(col_mode.metrics.columnar_batches, 0u);
  ASSERT_EQ(col_mode.warehouse.size(), row_mode.warehouse.size());
  for (size_t i = 0; i < row_mode.warehouse.size(); ++i) {
    ASSERT_TRUE(col_mode.warehouse[i] == row_mode.warehouse[i]) << "row " << i;
  }
}

// Rejected rows leave through the selection vector on the columnar path:
// the reject sink must receive the identical rows, in the identical order,
// as the row path produces.
TEST(ColumnarExecutionTest, RejectSinkMatchesRowModeExactly) {
  const std::vector<Row> input = SimpleRows(120);  // categories cycle a,b,c
  auto row_ledger = DeadLetterStore::InMemory("rej_row");
  auto col_ledger = DeadLetterStore::InMemory("rej_col");

  // Dimension lacks "c": every third row is rejected by the strict lookup.
  const RunResult row_mode =
      RunFlow(input, LookupMissPolicy::kReject, /*with_c=*/false,
              /*columnar=*/false, /*streaming=*/false,
              /*audit_rejects=*/true, row_ledger);
  const RunResult col_mode =
      RunFlow(input, LookupMissPolicy::kReject, /*with_c=*/false,
              /*columnar=*/true, /*streaming=*/false,
              /*audit_rejects=*/true, col_ledger);

  EXPECT_GT(col_mode.metrics.columnar_batches, 0u);
  // 40 lookup misses (category "c") + 10 NULL-amount filter rejects that
  // were not already gone (ids ≡ 7 mod 8, minus the 5 also ≡ 2 mod 3).
  EXPECT_EQ(row_mode.metrics.rows_rejected, 50u);
  EXPECT_EQ(col_mode.metrics.rows_rejected,
            row_mode.metrics.rows_rejected);
  EXPECT_EQ(col_mode.warehouse, row_mode.warehouse);
  // A serial run's reject records are fully deterministic (flow, node, op,
  // instance, attempt, sequence number, row) — the audit trail must be
  // byte-identical too, record for record and in order.
  EXPECT_EQ(row_ledger->NumRecords().value(), 50u);
  EXPECT_EQ(col_ledger->inner()->ReadAll().value().rows(),
            row_ledger->inner()->ReadAll().value().rows());
}

// Quarantined rows (operator row-errors under ErrorPolicy::kQuarantine)
// also leave via the selection vector; the dead-letter ledgers must agree.
TEST(ColumnarExecutionTest, QuarantineLedgerMatchesRowModeExactly) {
  const std::vector<Row> input = SimpleRows(120);
  auto row_dlq = DeadLetterStore::InMemory("dlq_row");
  auto col_dlq = DeadLetterStore::InMemory("dlq_col");
  const std::vector<ErrorPolicy> policies = {ErrorPolicy::kQuarantine};

  const RunResult row_mode =
      RunFlow(input, LookupMissPolicy::kError, /*with_c=*/false,
              /*columnar=*/false, /*streaming=*/false,
              /*audit_rejects=*/false, row_dlq, policies);
  const RunResult col_mode =
      RunFlow(input, LookupMissPolicy::kError, /*with_c=*/false,
              /*columnar=*/true, /*streaming=*/false,
              /*audit_rejects=*/false, col_dlq, policies);

  EXPECT_GT(col_mode.metrics.columnar_batches, 0u);
  EXPECT_EQ(row_mode.metrics.rows_quarantined, 40u);
  EXPECT_EQ(col_mode.metrics.rows_quarantined, 40u);
  EXPECT_EQ(col_mode.warehouse, row_mode.warehouse);
  EXPECT_EQ(CanonicalLedger(col_dlq->ReadAll().value()),
            CanonicalLedger(row_dlq->ReadAll().value()));
}

// Surrogate-key assignment is stateful (a shared registry hands out keys
// for the selected rows only, in order) — the canonical case where a
// vectorized op must respect the selection vector for side effects.
TEST(ColumnarExecutionTest, SurrogateKeysAssignedIdenticallyUnderSelection) {
  const std::vector<Row> input = SimpleRows(200);
  const auto run = [&](bool columnar) {
    auto registry = std::make_shared<SurrogateKeyRegistry>();
    FlowSpec spec;
    spec.id = "sk_flow";
    spec.source = MakeSource(SimpleSchema(), input);
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<FilterOp>(
          "flt", std::vector<Predicate>{Predicate::NotNull("amount")});
    });
    spec.transforms.push_back([registry]() -> OperatorPtr {
      return std::make_unique<SurrogateKeyOp>("sk", registry, "id", "sk_id");
    });
    SurrogateKeyOp bind_probe("sk", std::make_shared<SurrogateKeyRegistry>(),
                              "id", "sk_id");
    auto target = std::make_shared<MemTable>(
        "wh", bind_probe.Bind(SimpleSchema()).value());
    spec.target = target;
    if (!columnar) spec = testing_util::RowOnly(std::move(spec));
    ExecutionConfig config;
    config.batch_size = 32;
    const Result<RunMetrics> metrics = Executor::Run(spec, config);
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    if (columnar) {
      EXPECT_GT(metrics.value().columnar_batches, 0u);
    }
    return target->ReadAll().value().rows();
  };
  EXPECT_EQ(run(/*columnar=*/true), run(/*columnar=*/false));
}

TEST(ColumnarExecutionTest, ParallelPartitionsUseTheFastPath) {
  const std::vector<Row> input = SimpleRows(400);
  const auto run = [&](bool columnar) {
    auto dim = MakeDim(/*with_c=*/true);
    auto target = std::make_shared<MemTable>(
        "wh", TargetSchema(dim, LookupMissPolicy::kNull));
    ExecutionConfig config;
    config.batch_size = 32;
    config.num_threads = 4;
    config.parallel.partitions = 4;
    FlowSpec flow = MakeFlow(MakeSource(SimpleSchema(), input), dim, target,
                             LookupMissPolicy::kNull);
    if (!columnar) flow = testing_util::RowOnly(std::move(flow));
    const Result<RunMetrics> metrics = Executor::Run(flow, config);
    EXPECT_TRUE(metrics.ok()) << metrics.status();
    if (columnar) {
      EXPECT_GT(metrics.value().columnar_batches, 0u);
    }
    return target->ReadAll().value().rows();
  };
  const std::vector<Row> row_mode = run(/*columnar=*/false);
  const std::vector<Row> col_mode = run(/*columnar=*/true);
  EXPECT_EQ(col_mode, row_mode);  // ordered merge: byte-identical
}

}  // namespace
}  // namespace qox
