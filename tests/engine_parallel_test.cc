// Partitioned-parallel execution: output equivalence with the sequential
// plan across schemes, degrees, extents, and thread counts (the Fig. 4
// configurations), verified as a parameterized property suite.

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/ops/filter_op.h"
#include "engine/ops/function_op.h"
#include "engine/ops/group_op.h"
#include "engine/ops/sort_op.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SameMultiset;
using testing_util::SimpleRows;
using testing_util::SimpleSchema;

FlowSpec MakeFlow(const DataStorePtr& source,
                  const std::shared_ptr<MemTable>& target) {
  FlowSpec spec;
  spec.id = "parallel_test_flow";
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

struct ParallelCase {
  size_t partitions;
  size_t threads;
  PartitionScheme scheme;
  size_t range_begin;
  size_t range_end;
  bool ordered_merge;
};

class ParallelEquivalenceTest
    : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialOutput) {
  const ParallelCase& test_case = GetParam();
  const std::vector<Row> input = SimpleRows(1337);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);

  // Sequential reference.
  auto seq_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, seq_target), ExecutionConfig{}).ok());
  const std::vector<Row> expected = seq_target->ReadAll().value().rows();

  // Parallel run.
  auto par_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = test_case.threads;
  config.parallel.partitions = test_case.partitions;
  config.parallel.scheme = test_case.scheme;
  config.parallel.hash_column = "id";
  config.parallel.range_begin = test_case.range_begin;
  config.parallel.range_end = test_case.range_end;
  config.ordered_merge = test_case.ordered_merge;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, par_target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics.value().partitions, test_case.partitions);
  EXPECT_TRUE(
      SameMultiset(expected, par_target->ReadAll().value().rows()));
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ParallelEquivalenceTest,
    ::testing::Values(
        // Whole-flow parallelism (the paper's xPF-f).
        ParallelCase{2, 2, PartitionScheme::kRoundRobin, 0, 99, true},
        ParallelCase{4, 4, PartitionScheme::kRoundRobin, 0, 99, true},
        ParallelCase{8, 4, PartitionScheme::kRoundRobin, 0, 99, true},
        ParallelCase{4, 1, PartitionScheme::kRoundRobin, 0, 99, true},
        // Partial-flow parallelism (xPF-p): only ops [0, 2).
        ParallelCase{4, 4, PartitionScheme::kRoundRobin, 0, 2, true},
        ParallelCase{2, 4, PartitionScheme::kRoundRobin, 1, 2, true},
        // Hash partitioning.
        ParallelCase{4, 4, PartitionScheme::kHash, 0, 99, true},
        ParallelCase{3, 2, PartitionScheme::kHash, 0, 2, true},
        // Unordered merge still matches as a multiset.
        ParallelCase{4, 4, PartitionScheme::kRoundRobin, 0, 99, false}));

TEST(ParallelExecutionTest, MergeCostReported) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(4096));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics.value().merge_micros, 0);
}

TEST(ParallelExecutionTest, GroupByWithHashPartitioningOnGroupKey) {
  // Hash partitioning on the group key keeps groups partition-local, so a
  // partitioned group-by equals the sequential one.
  const std::vector<Row> input = SimpleRows(999);
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), input);
  const auto make_flow = [&source](const std::shared_ptr<MemTable>& target) {
    FlowSpec spec;
    spec.id = "group_flow";
    spec.source = source;
    spec.transforms.push_back([]() -> OperatorPtr {
      return std::make_unique<GroupOp>(
          "grp", std::vector<std::string>{"category"},
          std::vector<Aggregate>{Aggregate::Count("n"),
                                 Aggregate::Sum("amount", "total")});
    });
    spec.target = target;
    return spec;
  };
  GroupOp prototype("grp", {"category"},
                    {Aggregate::Count("n"), Aggregate::Sum("amount", "total")});
  const Schema out_schema = prototype.Bind(SimpleSchema()).value();

  auto seq_target = std::make_shared<MemTable>("tgt", out_schema);
  ASSERT_TRUE(Executor::Run(make_flow(seq_target), ExecutionConfig{}).ok());

  auto par_target = std::make_shared<MemTable>("tgt", out_schema);
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 4;
  config.parallel.scheme = PartitionScheme::kHash;
  config.parallel.hash_column = "category";
  ASSERT_TRUE(Executor::Run(make_flow(par_target), config).ok());
  EXPECT_TRUE(SameMultiset(seq_target->ReadAll().value().rows(),
                           par_target->ReadAll().value().rows()));
}

TEST(ParallelExecutionTest, MorePartitionsThanRows) {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(3));
  auto target = std::make_shared<MemTable>("tgt", BoundSchema());
  ExecutionConfig config;
  config.num_threads = 4;
  config.parallel.partitions = 8;
  const Result<RunMetrics> metrics =
      Executor::Run(MakeFlow(source, target), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(target->NumRows().value(), 3u);
}

TEST(ParallelExecutionTest, PhasedDispatchStaysOnCoreLane) {
  // Phased partition branches are CPU tasks of the pool: no stage parks a
  // blocking-lane worker, and the unit reports one timing per partition.
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(2048));
  ExecutionConfig config;
  config.parallel.partitions = 4;
  WorkerPool phased_pool(2);
  config.worker_pool = &phased_pool;
  auto phased_target = std::make_shared<MemTable>("tgt", BoundSchema());
  const Result<RunMetrics> phased =
      Executor::Run(MakeFlow(source, phased_target), config);
  ASSERT_TRUE(phased.ok()) << phased.status();
  EXPECT_EQ(phased_pool.stats().blocking_run, 0u);
  EXPECT_EQ(phased_pool.stats().expansion_threads, 0u);
  ASSERT_EQ(phased.value().parallel_units.size(), 1u);
  EXPECT_EQ(phased.value().parallel_units[0].partition_micros.size(), 4u);

  // The same plan under pipelined dispatch runs its stages as blocking
  // tasks.
  WorkerPool streaming_pool(2);
  config.worker_pool = &streaming_pool;
  config.streaming = true;
  auto streaming_target = std::make_shared<MemTable>("tgt", BoundSchema());
  ASSERT_TRUE(
      Executor::Run(MakeFlow(source, streaming_target), config).ok());
  EXPECT_GT(streaming_pool.stats().blocking_run, 0u);
}

}  // namespace
}  // namespace qox
