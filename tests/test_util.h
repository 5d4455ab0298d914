// Shared scaffolding for engine and core tests.

#ifndef QOX_TESTS_TEST_UTIL_H_
#define QOX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "engine/executor.h"
#include "engine/operator.h"
#include "row_only.h"
#include "storage/mem_table.h"

namespace qox {
namespace testing_util {

/// Schema used by most engine tests: id!, category, amount, note.
inline Schema SimpleSchema() {
  return Schema({{"id", DataType::kInt64, false},
                 {"category", DataType::kString, true},
                 {"amount", DataType::kDouble, true},
                 {"note", DataType::kString, true}});
}

inline Row SimpleRow(int64_t id, const std::string& category, double amount,
                     const std::string& note = "n") {
  return Row({Value::Int64(id), Value::String(category),
              Value::Double(amount), Value::String(note)});
}

/// n rows with ids 0..n-1, categories cycling a..c, ~1/8 NULL amounts.
inline std::vector<Row> SimpleRows(size_t n) {
  std::vector<Row> rows;
  const char* categories[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    Row row = SimpleRow(static_cast<int64_t>(i), categories[i % 3],
                        static_cast<double>(i % 100));
    if (i % 8 == 7) row.Set(2, Value::Null());
    rows.push_back(std::move(row));
  }
  return rows;
}

/// In-memory source preloaded with rows.
inline DataStorePtr MakeSource(const Schema& schema,
                               const std::vector<Row>& rows,
                               const std::string& name = "src") {
  auto table = std::make_shared<MemTable>(name, schema);
  const Status st = table->Append(RowBatch(schema, rows));
  (void)st;
  return table;
}

/// Runs one operator standalone over the rows: Bind + Open + Push (in one
/// batch) + Finish, returning output rows.
inline Result<std::vector<Row>> RunOperator(Operator* op, const Schema& input,
                                            const std::vector<Row>& rows,
                                            OperatorContext* ctx = nullptr) {
  OperatorContext local_ctx;
  if (ctx == nullptr) ctx = &local_ctx;
  QOX_ASSIGN_OR_RETURN(const Schema out_schema, op->Bind(input));
  QOX_RETURN_IF_ERROR(op->Open(ctx));
  RowBatch out(out_schema);
  QOX_RETURN_IF_ERROR(op->Push(RowBatch(input, rows), &out));
  RowBatch finished(out_schema);
  QOX_RETURN_IF_ERROR(op->Finish(&finished));
  std::vector<Row> result = out.rows();
  result.insert(result.end(), finished.rows().begin(), finished.rows().end());
  return result;
}

/// Creates a fresh directory "<gtest temp dir>/<prefix>_XXXXXX" and returns
/// its path. mkdtemp makes the name unique across concurrently running test
/// processes; a name derived from a fixture's address is not, because the
/// sanitizer allocators hand every process the same addresses.
inline std::string MakeTempDir(const std::string& prefix) {
  std::string path = ::testing::TempDir() + "/" + prefix + "_XXXXXX";
  if (::mkdtemp(path.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp(" << path << ") failed: " << std::strerror(errno);
  }
  return path;
}

/// Order-insensitive row-multiset equality.
inline bool SameMultiset(std::vector<Row> a, std::vector<Row> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace testing_util
}  // namespace qox

#endif  // QOX_TESTS_TEST_UTIL_H_
