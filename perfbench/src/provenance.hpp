// Where a result came from: host, build and inputs. Printed with every run
// so that numbers from different hosts or builds are never compared
// silently.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Provenance {
  int nproc = 0;          ///< online CPUs
  int pool_lanes = 0;     ///< spttn::ThreadPool::global().size()
  std::string cpu_model;  ///< /proc/cpuinfo "model name"
  std::string compiler;   ///< compiler id and version
  std::string build_type; ///< CMAKE_BUILD_TYPE of the benchmark build
  /// True when compiled with optimization, NDEBUG and no sanitizer; a false
  /// value flags the numbers as not comparable.
  bool optimized = false;
  std::string commit;     ///< source revision, "unknown" when not known
  std::string workload;
  std::uint64_t seed = 0;

  std::string to_json() const;
};

Provenance collect_provenance(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
