// The benchmark's workloads. Each entry point performs the workload's
// set-up, then measured loads until the time budget is spent, filling
// `report` (errors included); the returned status is non-OK only when the
// workload could not run at all.

#ifndef QOX_PERFBENCH_WORKLOADS_H_
#define QOX_PERFBENCH_WORKLOADS_H_

#include <unistd.h>

#include <vector>

#include "common/status.h"
#include "harness.h"

namespace qox::perfbench {

/// Every run measures at least this many loads, whatever the budget.
constexpr size_t kMinLoads = 4;
/// Measured loads covered by Report::peak_rss_mb.
constexpr size_t kPeakRssLoads = 2;

/// Fig. 3 nightly load plus an aggregate refresh over DW1: one phased
/// worker (`parallel` false) or a 4-worker FlowService with streaming,
/// 4-way partitioned flows (`parallel` true).
Status RunNightly(const Options& options, bool parallel, Report* report);

/// Supervised, journaled, 4-shard CDC windows through CdcCoordinator.
Status RunCdcSupervised(const Options& options, Report* report);

/// The measurement loop both workloads share: one timed set-up, then
/// measured loads until `options.seconds` is spent (at least kMinLoads).
/// A host probe of the workload's kind (`probe_spec`) is taken around
/// set-up and before every load. In a traced run odd loads carry the
/// spans and even loads stay untraced, so the run also prices tracing.
/// `Bench` provides Setup(), MeasuredLoad(bool traced, LoadSample*) and
/// tracer().
template <typename Bench>
Status MeasureLoads(const Options& options, const ProbeSpec& probe_spec,
                    Bench* bench, Report* report) {
  HostProbe probe;
  if (!probe.Start(probe_spec)) {
    return Status::Internal("cannot start the host probe");
  }
  std::vector<ProbeTime> setup_probes = {probe.Measure(), probe.Measure()};
  const int64_t setup_start = NowUs();
  QOX_RETURN_IF_ERROR(bench->Setup());
  report->setup_s = static_cast<double>(NowUs() - setup_start) / 1e6;
  // Flush what set-up wrote (CSV sources, journals), so its write-back
  // does not land on the measured loads' fsyncs.
  ::sync();
  setup_probes.push_back(probe.Measure());
  std::vector<double> walls;
  std::vector<double> cpus;
  for (const ProbeTime& time : setup_probes) {
    walls.push_back(time.wall_s);
    cpus.push_back(time.cpu_s);
  }
  report->setup_probe = {Median(walls), Median(cpus)};
  const int64_t deadline =
      NowUs() + static_cast<int64_t>(options.seconds * 1e6);
  for (size_t i = 0; i < kMinLoads || NowUs() < deadline; ++i) {
    LoadSample sample;
    sample.probe = probe.Measure();
    QOX_RETURN_IF_ERROR(
        bench->MeasuredLoad(options.trace && i % 2 == 1, &sample));
    report->loads.push_back(std::move(sample));
    if (i + 1 == kPeakRssLoads) report->peak_rss_mb = PeakRssMb();
  }
  probe.Stop();
  if (options.trace) {
    report->trace_file =
        options.work_dir + "/trace_" + options.workload + ".json";
    if (!bench->tracer()->WriteChromeJson(report->trace_file)) {
      report->Error("cannot write " + report->trace_file);
    }
  }
  return Status::OK();
}

}  // namespace qox::perfbench

#endif  // QOX_PERFBENCH_WORKLOADS_H_
