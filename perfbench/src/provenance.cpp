#include "provenance.hpp"

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "report.hpp"
#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

constexpr bool kOptimized =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    !kSanitized;
#else
    false;
#endif

}  // namespace

Provenance collect_provenance(const std::string& workload, std::uint64_t seed) {
  Provenance p;
  p.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  p.pool_lanes = spttn::ThreadPool::global().size();
  p.cpu_model = cpu_model();
#if defined(__clang__)
  p.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  p.compiler = "gcc " __VERSION__;
#else
  p.compiler = "unknown";
#endif
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.optimized = kOptimized;
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  p.commit = commit != nullptr && *commit != '\0' ? commit : "unknown";
  p.workload = workload;
  p.seed = seed;
  return p;
}

std::string Provenance::to_json() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"pool_lanes\": " << pool_lanes
      << ", \"cpu_model\": \"" << json_escape(cpu_model)
      << "\", \"compiler\": \"" << json_escape(compiler)
      << "\", \"build_type\": \"" << json_escape(build_type)
      << "\", \"optimized\": " << (optimized ? "true" : "false")
      << ", \"commit\": \"" << json_escape(commit)
      << "\", \"workload\": \"" << json_escape(workload)
      << "\", \"seed\": " << seed << "}";
  return out.str();
}

}  // namespace perfbench
