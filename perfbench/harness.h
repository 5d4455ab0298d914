// Shared pieces of the repo benchmark runner: run options, process
// resource probes, the span tracer (Chrome trace-event JSON), the traced
// DataStore decorator, and the JSON report the Python front end reads.
//
// Everything here observes the engine from the outside: spans wrap store
// calls, hooks and public entry points; nothing reaches into engine
// internals.

#ifndef QOX_PERFBENCH_HARNESS_H_
#define QOX_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "storage/data_store.h"

namespace qox::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch root for CSV sources, spill runs, CDC journals and the trace
  /// file. Wiped and recreated by the front end before every run.
  std::string work_dir;
};

/// Monotonic microseconds.
int64_t NowUs();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// User + system CPU seconds of this process (RUSAGE_SELF) and of its
/// reaped children (RUSAGE_CHILDREN).
double SelfCpuSeconds();
double ChildCpuSeconds();

/// Peak resident set of this process plus the largest reaped child, MiB.
double PeakRssMb();

/// Current resident set of this process, MiB (0 when unavailable).
double CurrentRssMb();

/// Wall and CPU seconds of one host probe.
struct ProbeTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// What a host probe does, chosen to match the workload's kind of work.
struct ProbeSpec {
  /// Copies of the compute task run at once: the threads the workload
  /// keeps busy.
  int threads = 1;
  /// Also fork and reap children and fsync appends to a file in `dir`:
  /// the system work of a supervised, journaled CDC window.
  bool system_work = false;
  std::string dir;
};

/// Measures how fast the host runs right now: the wall and CPU time of a
/// fixed task that shares no code with the engine. The compute task
/// formats and parses CSV text, hashes and sorts (the kinds of work a
/// nightly load does); the optional system task forks, reaps and fsyncs.
/// The task runs in a helper process forked before set-up, so it never
/// shares the measured process's heap, allocator or threads. The front
/// end scales timings to a reference probe time with it.
class HostProbe {
 public:
  HostProbe() = default;
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  ~HostProbe() { Stop(); }

  /// Forks the helper. Call before the process starts any thread.
  bool Start(const ProbeSpec& spec);
  /// One probe: its wall time and its CPU time per copy of the compute
  /// task (zeros on failure).
  ProbeTime Measure();
  /// Ends and reaps the helper (its CPU then counts as a reaped child's).
  void Stop();

 private:
  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

/// Collects complete ("X") spans and writes them as a Chrome trace-event
/// file ({"traceEvents": [...]}), loadable in chrome://tracing or Perfetto.
/// Disabled tracers drop spans, so call sites need no branches. Every span
/// carries the id of the measured load it belongs to (args.load), so the
/// spans of one load can be selected across threads.
class Tracer {
 public:
  /// Starts recording the spans of load `load_id`.
  void Enable(size_t load_id) {
    load_id_ = load_id;
    enabled_ = true;
  }
  void Disable() { enabled_ = false; }
  void AddSpan(const std::string& name, const std::string& category,
               int64_t start_us, int64_t end_us);
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string category;
    int64_t start_us;
    int64_t dur_us;
    uint64_t tid;
    size_t load_id;
  };
  std::atomic<bool> enabled_{false};
  std::atomic<size_t> load_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  const int64_t origin_us_ = NowUs();
};

/// Transparent DataStore decorator that times Scan and Append. Scan time
/// is split into the store's own work (read + parse) and the time spent
/// inside the consumer (the engine downstream of the extract), so the
/// storage layer's cost is reported without the engine's. ContentVersion
/// is forwarded, so lookup dimensions stay shareable through the
/// process-wide DimensionCache.
class TracedStore : public DataStore {
 public:
  TracedStore(DataStorePtr inner, Tracer* tracer);

  const std::string& name() const override { return inner_->name(); }
  const Schema& schema() const override { return inner_->schema(); }
  Result<size_t> NumRows() const override { return inner_->NumRows(); }
  Status Scan(size_t batch_size,
              const std::function<Status(RowBatch&)>& consumer) const override;
  Status Append(const RowBatch& batch) override;
  Status Truncate() override { return inner_->Truncate(); }
  std::string ContentVersion() const override {
    return inner_->ContentVersion();
  }

  /// Microseconds spent in Scan minus the consumer's share, and in Append,
  /// since the last ResetCounters().
  int64_t scan_own_us() const { return scan_own_us_; }
  int64_t append_us() const { return append_us_; }
  void ResetCounters();

 private:
  DataStorePtr inner_;
  Tracer* tracer_;
  mutable std::atomic<int64_t> scan_own_us_{0};
  std::atomic<int64_t> append_us_{0};
};

/// Metric name -> value for one measured load (or one run-level set).
using LayerValues = std::map<std::string, double>;

/// One measured nightly load or CDC window.
struct LoadSample {
  double wall_s = 0.0;
  /// Warehouse rows made durable by the load.
  double rows = 0.0;
  /// CPU of this process and its reaped children during the load.
  double cpu_s = 0.0;
  /// Freshness samples, milliseconds (see the workload definitions).
  std::vector<double> freshness_ms;
  /// Resident set of this process right after the load, MiB.
  double rss_mb = 0.0;
  /// HostProbe::Measure() taken just before the load.
  ProbeTime probe;
  bool traced = false;
  bool ok = true;
  LayerValues layers;
};

/// What one invocation measured; printed as one JSON object on stdout.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  double setup_s = 0.0;
  /// Medians of the host probes taken around set-up.
  ProbeTime setup_probe;
  std::vector<LoadSample> loads;
  /// Run-level per-layer values (setup-time measurements, cost model).
  LayerValues run_layers;
  /// Peak RSS over set-up and the first kPeakRssLoads measured loads: a
  /// fixed amount of work, so a faster engine is not charged for fitting
  /// more loads into the time budget.
  double peak_rss_mb = 0.0;
  std::vector<std::string> errors;
  std::string trace_file;

  void Error(const std::string& message) { errors.push_back(message); }
  std::string ToJson() const;
};

}  // namespace qox::perfbench

#endif  // QOX_PERFBENCH_HARNESS_H_
