#include "storage/flat_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "test_util.h"

namespace qox {
namespace {

class FlatFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_util::MakeTempDir("flat_file_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Schema TestSchema() {
    return Schema({{"id", DataType::kInt64, false},
                   {"text", DataType::kString, true},
                   {"value", DataType::kDouble, true}});
  }

  std::string dir_;
};

TEST_F(FlatFileTest, CreateWritesHeader) {
  const Result<std::shared_ptr<FlatFile>> file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv");
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file.value()->NumRows().value(), 0u);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/t.csv"));
}

TEST_F(FlatFileTest, AppendScanRoundTrip) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("plain"),
                    Value::Double(1.5)}));
  batch.Append(Row({Value::Int64(2), Value::String("with,comma"),
                    Value::Double(-2.25)}));
  batch.Append(Row({Value::Int64(3), Value::Null(), Value::Null()}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_EQ(file->NumRows().value(), 3u);

  const Result<RowBatch> all = file->ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value().num_rows(), 3u);
  EXPECT_EQ(all.value().row(0).value(1).string_value(), "plain");
  EXPECT_EQ(all.value().row(1).value(1).string_value(), "with,comma");
  EXPECT_TRUE(all.value().row(2).value(1).is_null());
  EXPECT_DOUBLE_EQ(all.value().row(1).value(2).double_value(), -2.25);
}

TEST_F(FlatFileTest, PersistsAcrossReopen) {
  {
    const auto file =
        FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
    RowBatch batch(TestSchema());
    batch.Append(Row({Value::Int64(7), Value::String("x"),
                      Value::Double(0.5)}));
    ASSERT_TRUE(file->Append(batch).ok());
  }
  const auto reopened =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  EXPECT_EQ(reopened->NumRows().value(), 1u);
  EXPECT_EQ(reopened->ReadAll().value().row(0).value(0).int64_value(), 7);
}

TEST_F(FlatFileTest, TruncateKeepsHeaderOnly) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("a"), Value::Double(1)}));
  ASSERT_TRUE(file->Append(batch).ok());
  ASSERT_TRUE(file->Truncate().ok());
  EXPECT_EQ(file->NumRows().value(), 0u);
  EXPECT_EQ(file->ReadAll().value().num_rows(), 0u);
}

TEST_F(FlatFileTest, SchemaMismatchRejected) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  const RowBatch wrong(Schema({{"other", DataType::kInt64, true}}));
  EXPECT_EQ(file->Append(wrong).code(), StatusCode::kInvalidArgument);
}

TEST_F(FlatFileTest, BytesWrittenAccounted) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  EXPECT_EQ(file->bytes_written(), 0u);
  RowBatch batch(TestSchema());
  batch.Append(Row({Value::Int64(1), Value::String("abcdef"),
                    Value::Double(1)}));
  ASSERT_TRUE(file->Append(batch).ok());
  EXPECT_GT(file->bytes_written(), 8u);
}

TEST_F(FlatFileTest, ScanBatchSizes) {
  const auto file =
      FlatFile::Open("t", TestSchema(), dir_ + "/t.csv").value();
  RowBatch batch(TestSchema());
  for (int i = 0; i < 23; ++i) {
    batch.Append(Row({Value::Int64(i), Value::String("r"),
                      Value::Double(i)}));
  }
  ASSERT_TRUE(file->Append(batch).ok());
  size_t batches = 0;
  ASSERT_TRUE(file->Scan(10, [&](const RowBatch& b) {
                    ++batches;
                    EXPECT_LE(b.num_rows(), 10u);
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(batches, 3u);
}

TEST_F(FlatFileTest, NumRowsCountsOnlyTheRowsScanReturns) {
  // Scan skips blank lines; NumRows (the load baseline and the expected
  // input volume) must count the same rows, not every line.
  const std::string path = dir_ + "/blank.csv";
  {
    std::ofstream out(path);
    out << "id,text,value\n"
        << "1,a,1.5\n"
        << "\n"
        << "2,b,2.5\n"
        << "\n"
        << "\n"
        << "3,c,3.5\n"
        << "\n"
        << "\n";
  }
  const auto file = FlatFile::Open("blank", TestSchema(), path).value();
  size_t scanned = 0;
  ASSERT_TRUE(file->Scan(2, [&](const RowBatch& b) {
                    scanned += b.num_rows();
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(scanned, 3u);
  EXPECT_EQ(file->NumRows().value(), scanned);
}

TEST_F(FlatFileTest, OpenInUncreatableDirFails) {
  const Result<std::shared_ptr<FlatFile>> file = FlatFile::Open(
      "t", TestSchema(), "/nonexistent_dir_qox/deeper/t.csv");
  EXPECT_FALSE(file.ok());
}

}  // namespace
}  // namespace qox
