// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.jsonl>]
//
// Runs one workload (cold_nips4, als_nell2, serve_mix, dist_ttmc3) for
// --seconds of measurement on inputs generated from --seed, checks every
// measured output against the reference oracle, and prints a report whose
// last line is the result JSON (see report.hpp). --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics of a traced
// run and writes its spans to --trace-out. Exit status: 0 when every
// check passed, 1 when some op failed, 2 on a usage or set-up error (no
// result line is printed then).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "provenance.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The most threads a run uses (pool lanes, counting the client thread).
constexpr int kMaxThreads = 4;

struct Args {
  Options options;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value pairs, got '" + key +
                                  "'");
    }
    kv[key.substr(2)] = argv[++i];
  }
  const auto take = [&](const std::string& key) {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::invalid_argument("missing --" + key);
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  Args a;
  a.options.workload = take("workload");
  a.options.seed = std::stoull(take("seed"));
  a.options.seconds = std::stod(take("seconds"));
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  a.options.trace = trace == "1";
  if (kv.count("trace-out")) a.trace_out = take("trace-out");
  if (!kv.empty()) {
    throw std::invalid_argument("unknown option --" + kv.begin()->first);
  }
  if (!(a.options.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return a;
}

std::vector<Metric> end_to_end(const WorkloadRun& run) {
  const std::vector<double>& ms = run.op_ms;
  // One set-up's peak (median over the repeated set-ups) or the serving
  // loop's, whichever is higher.
  const double serving_rss = peak_rss_mb();
  const double setup_rss =
      run.setup_peak_rss_mb.empty() ? 0.0 : median(run.setup_peak_rss_mb);
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"ops_per_s", run.ops_per_s, "1/s"},
      {"op_ms_p50", median(ms), "ms"},
      {"op_ms_p90", tail_percentile(ms, 0.9), "ms"},
      {"peak_rss_mb", std::max(serving_rss, setup_rss), "MB"},
  };
}

/// Self time summed per span name, largest first.
void print_self_times(const Tracer& tr) {
  const std::vector<std::int64_t> self = self_times_ns(tr.spans());
  std::map<std::string, std::pair<double, int>> by_name;
  for (std::size_t i = 0; i < self.size(); ++i) {
    auto& e = by_name[tr.spans()[i].name];
    e.first += static_cast<double>(self[i]) * 1e-6;
    ++e.second;
  }
  std::vector<std::pair<std::string, std::pair<double, int>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  for (const auto& [name, v] : rows) {
    std::printf("# self %-24s %12.3f ms over %d spans\n", name.c_str(),
                v.first, v.second);
  }
}

int run(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 e.what());
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  spttn::ThreadPool::set_global_threads(
      std::clamp(static_cast<int>(hw), 1, kMaxThreads));

  const Provenance prov =
      collect_provenance(args.options.workload, args.options.seed);
  std::printf("# provenance %s\n", prov.to_json().c_str());
  if (!prov.optimized) {
    std::printf("# WARNING: not an optimized sanitizer-free build; numbers "
                "are not comparable\n");
  }

  Tracer tracer;
  const WorkloadRun run =
      run_workload(args.options, args.options.trace ? &tracer : nullptr);

  if (!run.setup_s.empty() && run.setup_s.size() <= 16) {
    std::string samples;
    for (const double s : run.setup_s) {
      samples += ' ';
      samples += std::to_string(s);
    }
    std::printf("# setup_s samples:%s\n", samples.c_str());
  }
  if (!run.op_ms.empty()) {
    std::printf("# untraced op_ms p50 %.3f over %zu ops\n", median(run.op_ms),
                run.op_ms.size());
  }
  Result result;
  result.attempted = run.attempted;
  result.failed = run.failed;
  result.correct = run.failed == 0 && run.attempted > 0;
  result.metrics = args.options.trace ? run.layers : end_to_end(run);

  for (const std::string& note : run.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# ops %zu untraced, %zu traced; failed_frac %.6g\n",
              run.op_ms.size(), run.traced_op_ms.size(),
              run.attempted > 0 ? static_cast<double>(run.failed) /
                                      static_cast<double>(run.attempted)
                                : 0.0);
  if (args.options.trace) {
    print_self_times(tracer);
    if (!args.trace_out.empty()) tracer.write_jsonl(args.trace_out);
  }
  for (const Metric& m : result.metrics) {
    std::printf("# %-26s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", to_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
