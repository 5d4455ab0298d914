#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace qox::perfbench {

namespace {

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonNumbers(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonProbe(const ProbeTime& time) {
  return "{\"wall_s\":" + JsonNumber(time.wall_s) +
         ",\"cpu_s\":" + JsonNumber(time.cpu_s) + "}";
}

std::string JsonLayers(const LayerValues& layers) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : layers) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":" + JsonNumber(value);
  }
  return out + "}";
}

}  // namespace

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double SelfCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ChildCpuSeconds() { return CpuSeconds(RUSAGE_CHILDREN); }

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0;
  double pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         1048576.0;
}

namespace {

void ProbeComputeWork() {
  // The same kinds of work as an ETL load, in plain C++: format records
  // as CSV text, parse them back into heap-allocated rows, hash them into
  // a map, probe it, and sort.
  constexpr size_t kRecords = 60000;
  std::string text;
  char line[96];
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < kRecords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int n = std::snprintf(line, sizeof(line), "%zu,%llu,%.3f,name_%llu\n",
                                i, static_cast<unsigned long long>(x % 20000),
                                static_cast<double>(x % 100000) / 7.0,
                                static_cast<unsigned long long>(x % 997));
    text.append(line, static_cast<size_t>(n));
  }
  struct Record {
    int64_t id;
    int64_t key;
    double amount;
    std::string name;
  };
  std::vector<Record> records;
  const char* p = text.c_str();
  while (*p != '\0') {
    Record r;
    char* end = nullptr;
    r.id = std::strtoll(p, &end, 10);
    r.key = std::strtoll(end + 1, &end, 10);
    r.amount = std::strtod(end + 1, &end);
    const char* name = end + 1;
    const char* eol = std::strchr(name, '\n');
    r.name.assign(name, eol);
    records.push_back(std::move(r));
    p = eol + 1;
  }
  std::unordered_map<int64_t, double> totals;
  for (const Record& r : records) totals[r.key] += r.amount;
  double hits = 0;
  for (const Record& r : records) hits += totals.count(r.id) > 0 ? 1 : 0;
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              return a.name != b.name ? a.name < b.name : a.id < b.id;
            });
  // Keep the work observable so it cannot be optimized away.
  if (records.front().id < 0 || hits < 0) std::abort();
}

// Forks, reaps and fsyncs like the supervised slices of a journaled CDC
// window: each child appends a record to its own journal, fsyncs and
// exits; the parent reaps it, then appends and fsyncs its own record.
void ProbeSystemWork(const std::string& dir) {
  constexpr int kChildren = 64;
  char record[512];
  std::memset(record, 'j', sizeof(record));
  auto append_synced = [&record](const std::string& path) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return;
    if (::write(fd, record, sizeof(record)) > 0) ::fsync(fd);
    ::close(fd);
  };
  const std::string parent_journal = dir + "/probe_parent";
  const std::string child_journal = dir + "/probe_child";
  for (int i = 0; i < kChildren; ++i) {
    const pid_t child = ::fork();
    if (child == 0) {
      append_synced(child_journal);
      ::_exit(0);
    }
    int status = 0;
    while (child > 0 && ::waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    append_synced(parent_journal);
  }
  ::unlink(parent_journal.c_str());
  ::unlink(child_journal.c_str());
}

}  // namespace

bool HostProbe::Start(const ProbeSpec& spec) {
  int request[2];
  int reply[2];
  if (::pipe(request) != 0) return false;
  if (::pipe(reply) != 0) {
    ::close(request[0]);
    ::close(request[1]);
    return false;
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    for (const int fd : {request[0], request[1], reply[0], reply[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid_ == 0) {
    // Helper: one probe per request byte, until the parent closes the
    // request pipe.
    ::close(request[1]);
    ::close(reply[0]);
    char go = 0;
    while (::read(request[0], &go, 1) == 1) {
      const double cpu_before = SelfCpuSeconds() + ChildCpuSeconds();
      const int64_t start = NowUs();
      std::vector<std::thread> workers;
      for (int t = 0; t < spec.threads; ++t) {
        workers.emplace_back(ProbeComputeWork);
      }
      for (std::thread& worker : workers) worker.join();
      if (spec.system_work) ProbeSystemWork(spec.dir);
      ProbeTime time;
      time.wall_s = static_cast<double>(NowUs() - start) / 1e6;
      time.cpu_s = (SelfCpuSeconds() + ChildCpuSeconds() - cpu_before) /
                   static_cast<double>(spec.threads);
      if (::write(reply[1], &time, sizeof(time)) !=
          static_cast<ssize_t>(sizeof(time))) {
        break;
      }
    }
    ::_exit(0);
  }
  ::close(request[0]);
  ::close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
  return true;
}

ProbeTime HostProbe::Measure() {
  ProbeTime time;
  if (pid_ <= 0) return time;
  const char go = 1;
  if (::write(request_fd_, &go, 1) != 1) return time;
  size_t got = 0;
  char* out = reinterpret_cast<char*>(&time);
  while (got < sizeof(time)) {
    const ssize_t n = ::read(reply_fd_, out + got, sizeof(time) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return ProbeTime{};
    got += static_cast<size_t>(n);
  }
  return time;
}

void HostProbe::Stop() {
  if (pid_ <= 0) return;
  ::close(request_fd_);
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void Tracer::AddSpan(const std::string& name, const std::string& category,
                     int64_t start_us, int64_t end_us) {
  if (!enabled_) return;
  const uint64_t tid = std::hash<std::thread::id>()(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, category, start_us - origin_us_, end_us - start_us,
                    tid % 100000, load_id_});
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":" << JsonString(span.name)
        << ",\"cat\":" << JsonString(span.category)
        << ",\"ph\":\"X\",\"ts\":" << span.start_us
        << ",\"dur\":" << span.dur_us << ",\"pid\":1,\"tid\":" << span.tid
        << ",\"args\":{\"load\":" << span.load_id << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

TracedStore::TracedStore(DataStorePtr inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

Status TracedStore::Scan(
    size_t batch_size,
    const std::function<Status(RowBatch&)>& consumer) const {
  int64_t consumer_us = 0;
  const int64_t start = NowUs();
  const Status status =
      inner_->Scan(batch_size, [&](RowBatch& batch) -> Status {
        const int64_t begin = NowUs();
        const Status inner_status = consumer(batch);
        consumer_us += NowUs() - begin;
        return inner_status;
      });
  const int64_t end = NowUs();
  scan_own_us_ += (end - start) - consumer_us;
  tracer_->AddSpan("scan " + inner_->name(), "storage", start, end);
  return status;
}

Status TracedStore::Append(const RowBatch& batch) {
  const int64_t start = NowUs();
  const Status status = inner_->Append(batch);
  const int64_t end = NowUs();
  append_us_ += end - start;
  tracer_->AddSpan("append " + inner_->name(), "storage", start, end);
  return status;
}

void TracedStore::ResetCounters() {
  scan_own_us_ = 0;
  append_us_ = 0;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"workload\":" << JsonString(workload) << ",\"seed\":" << seed
      << ",\"setup_s\":" << JsonNumber(setup_s)
      << ",\"setup_probe\":" << JsonProbe(setup_probe)
      << ",\"loads\":[";
  for (size_t i = 0; i < loads.size(); ++i) {
    const LoadSample& load = loads[i];
    if (i > 0) out << ",";
    out << "{\"wall_s\":" << JsonNumber(load.wall_s)
        << ",\"rows\":" << JsonNumber(load.rows)
        << ",\"cpu_s\":" << JsonNumber(load.cpu_s)
        << ",\"freshness_ms\":" << JsonNumbers(load.freshness_ms)
        << ",\"rss_mb\":" << JsonNumber(load.rss_mb)
        << ",\"probe\":" << JsonProbe(load.probe)
        << ",\"traced\":" << (load.traced ? "true" : "false")
        << ",\"ok\":" << (load.ok ? "true" : "false")
        << ",\"layers\":" << JsonLayers(load.layers) << "}";
  }
  out << "],\"run_layers\":" << JsonLayers(run_layers)
      << ",\"peak_rss_mb\":" << JsonNumber(peak_rss_mb) << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out << ",";
    out << JsonString(errors[i]);
  }
  out << "],\"trace_file\":" << JsonString(trace_file) << "}";
  return out.str();
}

}  // namespace qox::perfbench
