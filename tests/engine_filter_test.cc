#include "engine/ops/filter_op.h"

#include <gtest/gtest.h>

#include <atomic>

#include "test_util.h"

namespace qox {
namespace {

using testing_util::RunOperator;
using testing_util::SimpleRow;
using testing_util::SimpleSchema;

TEST(FilterOpTest, NotNullDropsNullRows) {
  std::vector<Row> rows{SimpleRow(1, "a", 1.0), SimpleRow(2, "b", 2.0)};
  rows.push_back(Row({Value::Int64(3), Value::String("c"), Value::Null(),
                      Value::String("n")}));
  FilterOp op("flt", {Predicate::NotNull("amount")});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out.value().size(), 2u);
  EXPECT_EQ(out.value()[0].value(0).int64_value(), 1);
}

TEST(FilterOpTest, IsNullKeepsOnlyNulls) {
  std::vector<Row> rows{SimpleRow(1, "a", 1.0)};
  rows.push_back(Row({Value::Int64(2), Value::String("b"), Value::Null(),
                      Value::String("n")}));
  FilterOp op("flt", {Predicate::IsNull("amount")});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0].value(0).int64_value(), 2);
}

struct CompareCase {
  Predicate::CmpOp op;
  double literal;
  std::vector<int64_t> expected_ids;  // rows with amounts 1, 2, 3
};

class FilterCompareTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(FilterCompareTest, ComparisonSemantics) {
  const CompareCase& test_case = GetParam();
  const std::vector<Row> rows{SimpleRow(1, "a", 1.0), SimpleRow(2, "a", 2.0),
                              SimpleRow(3, "a", 3.0)};
  FilterOp op("flt", {Predicate::Compare("amount", test_case.op,
                                         Value::Double(test_case.literal))});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok());
  std::vector<int64_t> ids;
  for (const Row& row : out.value()) ids.push_back(row.value(0).int64_value());
  EXPECT_EQ(ids, test_case.expected_ids);
}

INSTANTIATE_TEST_SUITE_P(
    Comparisons, FilterCompareTest,
    ::testing::Values(CompareCase{Predicate::CmpOp::kEq, 2.0, {2}},
                      CompareCase{Predicate::CmpOp::kNe, 2.0, {1, 3}},
                      CompareCase{Predicate::CmpOp::kLt, 2.0, {1}},
                      CompareCase{Predicate::CmpOp::kLe, 2.0, {1, 2}},
                      CompareCase{Predicate::CmpOp::kGt, 2.0, {3}},
                      CompareCase{Predicate::CmpOp::kGe, 2.0, {2, 3}}));

TEST(FilterOpTest, NullFailsComparisons) {
  std::vector<Row> rows;
  rows.push_back(Row({Value::Int64(1), Value::String("a"), Value::Null(),
                      Value::String("n")}));
  FilterOp op("flt", {Predicate::Compare("amount", Predicate::CmpOp::kNe,
                                         Value::Double(0.0))});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(FilterOpTest, ConjunctionRequiresAll) {
  const std::vector<Row> rows{SimpleRow(1, "a", 1.0), SimpleRow(2, "b", 2.0)};
  FilterOp op("flt",
              {Predicate::NotNull("amount"),
               Predicate::Compare("category", Predicate::CmpOp::kEq,
                                  Value::String("b"))});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value()[0].value(0).int64_value(), 2);
}

TEST(FilterOpTest, RejectedRowsRouteToSink) {
  std::vector<Row> rejected;
  std::atomic<size_t> rejected_count{0};
  OperatorContext ctx;
  ctx.rejected_rows = &rejected_count;
  std::vector<std::string> rejecting_ops;
  ctx.reject_sink = [&](const std::string& op_name, const Row& row) {
    rejecting_ops.push_back(op_name);
    rejected.push_back(row);
    return Status::OK();
  };
  std::vector<Row> rows{SimpleRow(1, "a", 1.0)};
  rows.push_back(Row({Value::Int64(2), Value::String("b"), Value::Null(),
                      Value::String("n")}));
  FilterOp op("flt", {Predicate::NotNull("amount")});
  const Result<std::vector<Row>> out =
      RunOperator(&op, SimpleSchema(), rows, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 1u);
  EXPECT_EQ(rejected_count.load(), 1u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].value(0).int64_value(), 2);
  EXPECT_EQ(rejecting_ops, std::vector<std::string>{"flt"});
}

TEST(FilterOpTest, BindFailsOnMissingColumn) {
  FilterOp op("flt", {Predicate::NotNull("missing")});
  EXPECT_FALSE(op.Bind(SimpleSchema()).ok());
}

TEST(FilterOpTest, SchemaUnchangedAndMetadata) {
  FilterOp op("flt", {Predicate::NotNull("amount")}, 0.8);
  const Result<Schema> bound = op.Bind(SimpleSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value(), SimpleSchema());
  EXPECT_STREQ(op.kind(), "filter");
  EXPECT_DOUBLE_EQ(op.Selectivity(), 0.8);
  EXPECT_FALSE(op.IsBlocking());
  EXPECT_EQ(op.InputColumns(), std::vector<std::string>{"amount"});
}

TEST(PredicateTest, ToStringRendering) {
  EXPECT_EQ(Predicate::NotNull("x").ToString(), "x IS NOT NULL");
  EXPECT_EQ(Predicate::Compare("y", Predicate::CmpOp::kGe, Value::Int64(5))
                .ToString(),
            "y >= 5");
}

}  // namespace
}  // namespace qox
