#include "storage/flat_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/crash_point.h"
#include "common/strings.h"

namespace qox {
namespace {

/// EINTR-safe full write, with the errno mapped to the status taxonomy
/// (ENOSPC → kResourceExhausted, so ResourcePolicy can degrade; anything
/// else → kIoError, permanent).
Status WriteAllBytes(int fd, const std::string& data,
                     const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ENOSPC) {
        return Status::ResourceExhausted("write to '" + path +
                                         "' failed: no space left on device");
      }
      return Status::IoError("write to '" + path +
                             "' failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<FlatFile>> FlatFile::Open(std::string name,
                                                 Schema schema,
                                                 std::string path,
                                                 bool sync_every_append) {
  auto file = std::shared_ptr<FlatFile>(
      new FlatFile(std::move(name), std::move(schema), std::move(path),
                   sync_every_append));
  if (!std::filesystem::exists(file->path_)) {
    QOX_RETURN_IF_ERROR(file->WriteHeader());
  }
  return file;
}

Status FlatFile::WriteHeader() {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) return Status::IoError("cannot create file '" + path_ + "'");
  std::vector<std::string> names;
  names.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) names.push_back(f.name);
  out << CsvEncodeLine(names) << "\n";
  out.flush();
  if (!out) return Status::IoError("cannot write header to '" + path_ + "'");
  out.close();
  if (out.fail()) {
    return Status::IoError("close after writing header to '" + path_ +
                           "' failed");
  }
  return Status::OK();
}

Result<size_t> FlatFile::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(path_);
  if (!in) return Status::IoError("cannot open file '" + path_ + "'");
  std::string line;
  if (!std::getline(in, line)) return 0;  // empty file: no header
  size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;  // Scan skips blank lines
  }
  return rows;
}

Status FlatFile::Scan(
    size_t batch_size,
    const std::function<Status(RowBatch&)>& consumer) const {
  if (batch_size == 0) return Status::Invalid("batch_size must be > 0");
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(path_);
  if (!in) return Status::IoError("cannot open file '" + path_ + "'");
  std::string line;
  if (!std::getline(in, line)) return Status::OK();  // empty file: no header
  RowBatch batch(schema_);
  batch.Reserve(batch_size);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> cells = CsvDecodeLine(line);
    if (cells.size() != schema_.num_fields()) {
      return Status::Invalid("file '" + path_ + "' line " +
                             std::to_string(line_no) + ": expected " +
                             std::to_string(schema_.num_fields()) +
                             " cells, got " + std::to_string(cells.size()));
    }
    Row row;
    for (size_t i = 0; i < cells.size(); ++i) {
      QOX_ASSIGN_OR_RETURN(Value v,
                           Value::Parse(cells[i], schema_.field(i).type));
      row.Append(std::move(v));
    }
    batch.Append(std::move(row));
    if (batch.num_rows() >= batch_size) {
      QOX_RETURN_IF_ERROR(consumer(batch));
      batch.Clear();
    }
  }
  if (!batch.empty()) QOX_RETURN_IF_ERROR(consumer(batch));
  return Status::OK();
}

Status FlatFile::Append(const RowBatch& batch) {
  if (batch.schema() != schema_) {
    return Status::Invalid("append to '" + name_ + "': schema mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  QOX_CRASH_POINT("flat.append");
  // fd-based writes so every byte, the fsync, and the close are actually
  // checked — an ofstream append used to swallow short writes and never
  // synced despite sync_every_append.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path_ + "' for append: " +
                           std::strerror(errno));
  }
  // Two blobs split at the historical mid-batch row boundary, keeping the
  // torn-batch crash site: a kill between them leaves a durable prefix of
  // the batch — the case the executor's durable-prefix resync must absorb.
  const size_t half_rows = (batch.num_rows() + 1) / 2;
  std::string first_half;
  std::string second_half;
  size_t written = 0;
  for (const Row& row : batch.rows()) {
    std::vector<std::string> cells;
    cells.reserve(row.num_values());
    for (const Value& v : row.values()) cells.push_back(v.ToString());
    std::string& blob = written < half_rows ? first_half : second_half;
    blob += CsvEncodeLine(cells);
    blob += '\n';
    ++written;
  }
  Status st = WriteAllBytes(fd, first_half, path_);
  if (st.ok() && !batch.empty()) QOX_CRASH_POINT("flat.mid_append");
  if (st.ok()) st = WriteAllBytes(fd, second_half, path_);
  if (st.ok() && sync_every_append_ && ::fsync(fd) != 0) {
    st = Status::IoError("fsync of '" + path_ +
                         "' failed: " + std::strerror(errno));
  }
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IoError("close of '" + path_ +
                         "' failed: " + std::strerror(errno));
  }
  QOX_RETURN_IF_ERROR(st);
  QOX_CRASH_POINT("flat.appended");
  bytes_written_ += first_half.size() + second_half.size();
  return Status::OK();
}

Status FlatFile::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  return WriteHeader();
}

size_t FlatFile::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

}  // namespace qox
