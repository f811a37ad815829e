// The four benchmark workloads. Each drives the library through its public
// API only, checks every output it measures against an oracle outside the
// timed span, and returns raw samples; main.cpp turns them into metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

struct WorkloadRun {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Latency of every untraced op (ms). In a traced run every other op is
  /// traced, so this holds the untraced half.
  std::vector<double> op_ms;
  /// Latency of every traced op (ms); empty without tracing.
  std::vector<double> traced_op_ms;
  /// Set-up samples (s): generated unsorted COO to ready-to-serve.
  std::vector<double> setup_s;
  /// Peak RSS (MB) of each set-up, each measured from a reset mark.
  std::vector<double> setup_peak_rss_mb;
  double ops_per_s = 0;
  /// Per-layer metrics; filled by traced runs only.
  std::vector<Metric> layers;
  /// Extra human-readable report lines (per-kernel breakdowns).
  std::vector<std::string> notes;
};

/// Process high-water RSS in MB (getrusage) since the last reset.
double peak_rss_mb();

/// Return freed heap memory to the system, then reset the high-water mark
/// to the current RSS (Linux: /proc/self/clear_refs; where that file is not
/// writable the mark is kept). Workloads call it once their inputs are
/// generated, so peak_rss_mb leaves out the generator's transient arrays,
/// and before each of their repeated set-ups.
void reset_peak_rss();

/// Run one workload. `tracer` is non-null exactly when options.trace is set.
WorkloadRun run_workload(const Options& options, Tracer* tracer);

}  // namespace perfbench
