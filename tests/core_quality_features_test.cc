#include "core/quality_features.h"

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "test_util.h"

namespace qox {
namespace {

using testing_util::SimpleRows;
using testing_util::SimpleSchema;

LogicalFlow MakeFlow() {
  const DataStorePtr source =
      testing_util::MakeSource(SimpleSchema(), SimpleRows(100), "orders");
  std::vector<LogicalOp> ops;
  ops.push_back(MakeFilter("flt", {Predicate::NotNull("amount")}, 0.875));
  const std::vector<Schema> schemas =
      BindLogicalChain(source->schema(), ops).value();
  auto target = std::make_shared<MemTable>("facts", schemas.back());
  return LogicalFlow("qf_flow", source, std::move(ops), target);
}

TEST(ProvenanceTest, AddsSourceAndLoadTagColumns) {
  const Result<LogicalFlow> traced =
      AddProvenanceColumns(MakeFlow(), "load-2026-07-04");
  ASSERT_TRUE(traced.ok()) << traced.status();
  const Schema out = traced.value().BindSchemas().value().back();
  EXPECT_TRUE(out.HasField("_source"));
  EXPECT_TRUE(out.HasField("_load_tag"));
  // Executable, and every loaded row carries the provenance values.
  const Result<RunMetrics> metrics =
      Executor::Run(traced.value().ToFlowSpec(), ExecutionConfig{});
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  const RowBatch loaded = traced.value().target()->ReadAll().value();
  ASSERT_GT(loaded.num_rows(), 0u);
  const size_t source_col = out.FieldIndex("_source").value();
  const size_t tag_col = out.FieldIndex("_load_tag").value();
  for (const Row& row : loaded.rows()) {
    EXPECT_EQ(row.value(source_col).string_value(), "orders");
    EXPECT_EQ(row.value(tag_col).string_value(), "load-2026-07-04");
  }
}

TEST(ProvenanceTest, KeepTargetValidatesSchema) {
  const LogicalFlow flow = MakeFlow();
  // keep_target with the original (narrow) target must fail.
  EXPECT_FALSE(AddProvenanceColumns(flow, "t", /*keep_target=*/true).ok());
}

TEST(MaterializeTest, NoFlagsIsIdentity) {
  PhysicalDesign design;
  design.flow = MakeFlow();
  const Result<MaterializedDesign> materialized =
      MaterializeQualityFeatures(design, "tag");
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized.value().design.flow.num_ops(), 1u);
  EXPECT_EQ(materialized.value().dead_letter, nullptr);
}

TEST(MaterializeTest, FlagsProduceArtifactsAndExecute) {
  PhysicalDesign design;
  design.flow = MakeFlow();
  design.provenance_columns = true;
  design.audit_rejects = true;
  const Result<MaterializedDesign> materialized =
      MaterializeQualityFeatures(design, "tag-7");
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(materialized.value().design.flow.num_ops(), 2u);
  ASSERT_NE(materialized.value().dead_letter, nullptr);

  const ExecutionConfig config = MaterializedExecutionConfig(
      materialized.value(), nullptr, nullptr);
  EXPECT_TRUE(config.audit_rejects);
  EXPECT_EQ(config.dead_letter.get(), materialized.value().dead_letter.get());
  const Result<RunMetrics> metrics = Executor::Run(
      materialized.value().design.flow.ToFlowSpec(), config);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // 100 rows: ids 7, 15, ..., 95 have NULL amounts -> 12 rejects audited.
  const std::vector<QuarantineRecord> records =
      materialized.value().dead_letter->ReadAll().value();
  EXPECT_EQ(records.size(), 12u);
  for (const QuarantineRecord& record : records) {
    EXPECT_EQ(record.status_code, kRejectedStatusCode);
    EXPECT_EQ(record.op_name, "flt");
  }
}

TEST(MaterializeTest, CostModelChargesForFeatures) {
  // The declared flags cost time in the model; the materialized artifacts
  // cost time in execution. Both directions must agree in sign.
  const CostModel model;
  PhysicalDesign plain;
  plain.flow = MakeFlow();
  PhysicalDesign featured = plain;
  featured.provenance_columns = true;
  featured.audit_rejects = true;
  const double t_plain = model.EstimatePhases(plain, 100000).total_s;
  const double t_featured = model.EstimatePhases(featured, 100000).total_s;
  EXPECT_GT(t_featured, t_plain);
}

}  // namespace
}  // namespace qox
