#include "core/design.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

LogicalFlow MakeFlow(const DataStorePtr& source = nullptr) {
  const DataStorePtr src =
      source != nullptr
          ? source
          : testing_util::MakeSource(SimpleSchema(), SimpleRows(100));
  std::vector<LogicalOp> ops;
  ops.push_back(MakeFilter("flt", {Predicate::NotNull("amount")}, 0.9));
  ops.push_back(MakeFunction(
      "fn", {ColumnTransform::Scale("scaled", "amount", 2.0)}));
  ops.push_back(MakeSort("sort", {{"id", false}}));
  const std::vector<Schema> schemas =
      BindLogicalChain(src->schema(), ops).value();
  auto target = std::make_shared<MemTable>("tgt", schemas.back());
  return LogicalFlow("test_flow", src, std::move(ops), target);
}

TEST(LogicalOpBuildersTest, MetadataMatchesOperators) {
  const LogicalOp filter =
      MakeFilter("f", {Predicate::NotNull("amount")}, 0.85);
  EXPECT_EQ(filter.kind, "filter");
  EXPECT_EQ(filter.op_class, OpClass::kPerRow);
  EXPECT_FALSE(filter.blocking);
  EXPECT_DOUBLE_EQ(filter.selectivity, 0.85);
  EXPECT_EQ(filter.reads, std::vector<std::string>{"amount"});
  EXPECT_TRUE(filter.creates.empty());

  const LogicalOp fn = MakeFunction(
      "fn", {ColumnTransform::Arith("net", "amount",
                                    ColumnTransform::ArithOp::kMul, "id"),
             ColumnTransform::Drop("note")});
  EXPECT_EQ(fn.op_class, OpClass::kPerRow);
  EXPECT_EQ(fn.creates, std::vector<std::string>{"net"});
  EXPECT_EQ(fn.drops, std::vector<std::string>{"note"});

  const LogicalOp sort = MakeSort("s", {{"id", false}});
  EXPECT_EQ(sort.op_class, OpClass::kOrderOnly);
  EXPECT_TRUE(sort.blocking);

  auto snapshot = std::make_shared<SnapshotStore>(
      "snap", SimpleSchema(), std::vector<size_t>{0});
  const LogicalOp delta = MakeDelta("d", snapshot);
  EXPECT_EQ(delta.op_class, OpClass::kMultiset);
  EXPECT_TRUE(delta.blocking);

  const LogicalOp group =
      MakeGroup("g", {"category"}, {Aggregate::Count("n")});
  EXPECT_EQ(group.op_class, OpClass::kMultiset);

  auto registry = std::make_shared<SurrogateKeyRegistry>(1);
  const LogicalOp sk = MakeSurrogateKey("sk", registry, "category", "ck");
  EXPECT_EQ(sk.creates, std::vector<std::string>{"ck"});
  EXPECT_EQ(sk.drops, std::vector<std::string>{"category"});
}

TEST(LogicalOpBuildersTest, FactoriesProduceFreshInstances) {
  const LogicalOp filter = MakeFilter("f", {Predicate::NotNull("amount")});
  const OperatorPtr a = filter.factory();
  const OperatorPtr b = filter.factory();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->name(), "f");
}

TEST(LogicalFlowTest, BindSchemasValidatesChainAndTarget) {
  const LogicalFlow flow = MakeFlow();
  const Result<std::vector<Schema>> schemas = flow.BindSchemas();
  ASSERT_TRUE(schemas.ok()) << schemas.status();
  EXPECT_EQ(schemas.value().size(), 4u);
  EXPECT_TRUE(schemas.value().back().HasField("scaled"));
}

TEST(LogicalFlowTest, ToFlowSpecPreservesStructure) {
  const LogicalFlow flow = MakeFlow();
  const FlowSpec spec = flow.ToFlowSpec();
  EXPECT_EQ(spec.id, "test_flow");
  EXPECT_EQ(spec.transforms.size(), 3u);
  EXPECT_EQ(spec.source.get(), flow.source().get());
  // The spec is executable.
  const Result<RunMetrics> metrics = Executor::Run(spec, ExecutionConfig{});
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics.value().rows_loaded, 0u);
}

TEST(LogicalFlowTest, ToGraphIsLinear) {
  const Result<FlowGraph> graph = MakeFlow().ToGraph();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().num_nodes(), 5u);  // src + 3 ops + tgt
  EXPECT_EQ(graph.value().num_edges(), 4u);
  EXPECT_TRUE(graph.value().Validate().ok());
}

TEST(LogicalFlowTest, PipelineableRangeExcludesBlockingOps) {
  const LogicalFlow flow = MakeFlow();
  const auto [begin, end] = flow.PipelineableRange();
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 2u);  // filter + function; the sort is order-only
}

TEST(LogicalFlowTest, PipelineableRangeOfAllPerRowChain) {
  const DataStorePtr src =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(10));
  std::vector<LogicalOp> ops;
  ops.push_back(MakeFilter("f1", {Predicate::NotNull("amount")}));
  ops.push_back(MakeFilter("f2", {Predicate::NotNull("note")}));
  auto target = std::make_shared<MemTable>("tgt", SimpleSchema());
  const LogicalFlow flow("f", src, std::move(ops), target);
  const auto [begin, end] = flow.PipelineableRange();
  EXPECT_EQ(begin, 0u);
  EXPECT_EQ(end, 2u);
}

TEST(PhysicalDesignTest, ConfigTagsMatchPaperNames) {
  PhysicalDesign design;
  design.flow = MakeFlow();
  EXPECT_EQ(design.ConfigTag(), "1F");
  design.parallel.partitions = 4;
  EXPECT_EQ(design.ConfigTag(), "4PF-f");
  design.parallel.range_begin = 0;
  design.parallel.range_end = 2;
  EXPECT_EQ(design.ConfigTag(), "4PF-p");
  design.parallel.partitions = 1;
  design.parallel.range_end = static_cast<size_t>(-1);
  design.redundancy = 3;
  EXPECT_EQ(design.ConfigTag(), "TMR");
  design.redundancy = 5;
  EXPECT_EQ(design.ConfigTag(), "5MR");
  design.redundancy = 1;
  design.recovery_points = {0};
  EXPECT_EQ(design.ConfigTag(), "1F+RP");
  design.recovery_points = {0, 1, 2};
  EXPECT_EQ(design.ConfigTag(), "1F+RP++");
  design.recovery_points = {};
  design.cdc_shards = 4;
  EXPECT_EQ(design.ConfigTag(), "1F+CDC4");
}

TEST(PhysicalDesignTest, ToExecutionConfigCopiesChoices) {
  PhysicalDesign design;
  design.flow = MakeFlow();
  design.threads = 4;
  design.parallel.partitions = 2;
  design.recovery_points = {0};
  design.redundancy = 3;
  design.audit_rejects = true;
  FailureInjector injector;
  const ExecutionConfig config = design.ToExecutionConfig(nullptr, &injector);
  EXPECT_EQ(config.num_threads, 4u);
  EXPECT_EQ(config.parallel.partitions, 2u);
  EXPECT_EQ(config.recovery_points, std::vector<size_t>{0});
  EXPECT_EQ(config.redundancy, 3u);
  EXPECT_EQ(config.injector, &injector);
  EXPECT_TRUE(config.audit_rejects);
}

TEST(PhysicalDesignTest, DescribeMentionsEverything) {
  PhysicalDesign design;
  design.flow = MakeFlow();
  design.threads = 8;
  design.loads_per_day = 96;
  const std::string text = design.Describe();
  EXPECT_NE(text.find("threads=8"), std::string::npos);
  EXPECT_NE(text.find("loads/day=96"), std::string::npos);
  EXPECT_NE(text.find("flt:filter"), std::string::npos);
}

}  // namespace
}  // namespace qox
