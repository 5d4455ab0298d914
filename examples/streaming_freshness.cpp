// Streaming freshness: near-real-time loading in time slices.
//
// An update stream is ingested by the CdcCoordinator (in-process, no
// supervision) at several slice sizes. Each slice is extracted per shard,
// transformed, merged by version and appended to the warehouse WAL. An
// update waits on average half a slice fill for its slice to close, then
// the slice's measured latency for its load, so
//
//   freshness = slice_fill / 2 + slice latency
//
// (the definition bench/fig_cdc_freshness uses). Smaller slices keep the
// warehouse fresher at the price of more executions — the Sec. 3.4
// tradeoff — and the SLA column reports the share of slices within the
// freshness SLA.
//
// Run: ./build/examples/streaming_freshness

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "engine/cdc_coordinator.h"

using namespace qox;  // example code; library code never does this

int main() {
  constexpr double kUpdateRatePerS = 1000.0;  // simulated arrival rate
  constexpr double kSlaS = 0.5;               // freshness SLA
  CdcStreamSpec stream;
  stream.seed = 7;
  stream.num_keys = 256;
  stream.total_events = 4096;
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("qox_streaming_freshness." + std::to_string(::getpid())))
          .string();

  std::cout << "update stream: " << stream.total_events << " events at "
            << kUpdateRatePerS << "/s; freshness SLA: " << kSlaS << " s\n\n";
  std::printf("%12s %7s %8s %12s %13s %13s %12s %7s\n", "slice_events",
              "slices", "fill_s", "latency_ms", "avg_fresh_s", "max_fresh_s",
              "total_exec_s", "SLA");
  size_t wal_rows = 0;
  for (const size_t slice_events : {64, 256, 1024, 4096}) {
    CdcOptions options;
    options.scratch_dir = scratch + "/slice" + std::to_string(slice_events);
    options.stream = stream;
    options.topology.shards = 2;
    options.topology.slice_events = slice_events;
    options.supervised = false;
    const Result<CdcReport> report = CdcCoordinator::Run(options);
    if (!report.ok()) {
      std::cerr << "CDC run failed: " << report.status() << "\n";
      return 1;
    }
    // Every slice size must load the same updates exactly once.
    if (wal_rows != 0 && report.value().wal_rows != wal_rows) {
      std::cerr << "WAL rows differ across slice sizes: "
                << report.value().wal_rows << " vs " << wal_rows << "\n";
      return 1;
    }
    wal_rows = report.value().wal_rows;
    const double fill_s = static_cast<double>(slice_events) / kUpdateRatePerS;
    double total_s = 0.0;
    double worst_s = 0.0;
    size_t within_sla = 0;
    for (const int64_t micros : report.value().slice_latency_micros) {
      const double latency_s = static_cast<double>(micros) / 1e6;
      total_s += latency_s;
      worst_s = std::max(worst_s, latency_s);
      within_sla += fill_s / 2.0 + latency_s <= kSlaS ? 1 : 0;
    }
    const size_t slices =
        std::max<size_t>(1, report.value().slice_latency_micros.size());
    const double mean_s = total_s / static_cast<double>(slices);
    std::printf("%12zu %7zu %8.3f %12.2f %13.3f %13.3f %12.3f %6.1f%%\n",
                slice_events, report.value().slices, fill_s, mean_s * 1e3,
                fill_s / 2.0 + mean_s, fill_s / 2.0 + worst_s, total_s,
                100.0 * static_cast<double>(within_sla) /
                    static_cast<double>(slices));
  }
  std::filesystem::remove_all(scratch);
  std::cout << "\nwarehouse WAL rows per configuration: " << wal_rows
            << " (null-amount updates are filtered before the load)\n";
  return 0;
}
