// spttn_golden: dump the planner's chosen plan for every paper-suite kernel
// under every lint option set, serialized with core/plan_io, into a golden
// directory (default tests/golden/). The checked-in artifacts were
// generated by the pre-strategy-refactor planner; test_planner_strategy
// compares ExactStrategy's output byte-for-byte against them, so any future
// change that silently alters the chosen plan, its cost/flops doubles, or
// the SearchStats trips the golden test instead of shipping.
//
// Beside the plans it writes output_hashes.txt: for every (kernel, option
// set) program, the bit hash of its output executed sequentially and with
// 4 lanes (SuiteOutput::bits_hash). test_lowered compares against it, so an
// executor change that flips a single output bit trips a test too.
//
//   spttn_golden             # write tests/golden/ (cwd-relative)
//   spttn_golden --out DIR   # write DIR/*.plan and DIR/output_hashes.txt
//   spttn_golden --check     # compare instead of write (exit 1 on drift)
//
// Regenerate only when a planner or executor change is *supposed* to alter
// plans or output bits, and say so in the commit message.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/kernel_suite.hpp"
#include "core/plan_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Lane count of the threaded output run (the partition shape, and so the
/// reduction order, depends on it).
constexpr int kGoldenLanes = 4;

std::string golden_name(const std::string& kernel, const std::string& set) {
  return kernel + "__" + set + ".plan";
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw spttn::Error("cannot open " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  spttn::Cli cli("spttn_golden");
  const std::string* out_dir =
      cli.add_string("out", "tests/golden", "directory for golden artifacts");
  const bool* check = cli.add_bool(
      "check", false, "compare against existing artifacts instead of writing");
  const std::int64_t* seed =
      cli.add_int("seed", 42, "seed for the suite's random tensors");
  cli.parse(argc, argv);

  const std::filesystem::path dir(*out_dir);
  if (!*check) std::filesystem::create_directories(dir);
  // The threaded hash depends on the partition shape, which depends on the
  // pool's lane count: pin it.
  spttn::ThreadPool::set_global_threads(kGoldenLanes);

  int written = 0;
  int drifted = 0;
  std::string hashes =
      "# spttn golden output hashes: <kernel>__<option set> <1 lane> <" +
      std::to_string(kGoldenLanes) + " lanes>, seed " +
      std::to_string(*seed) + "\n";
  for (const spttn::SuiteKernel& sk : spttn::paper_kernel_suite()) {
    const auto inst =
        spttn::make_suite_instance(sk, static_cast<std::uint64_t>(*seed));
    for (const spttn::LintOptionSet& set : spttn::lint_option_sets()) {
      const spttn::Plan plan = spttn::make_plan(inst->bound.kernel,
                                                inst->bound.stats, set.options);
      const std::string text =
          spttn::serialize_plan(inst->bound.kernel, plan,
                                {{"suite_kernel", sk.name},
                                 {"option_set", set.name},
                                 {"seed", std::to_string(*seed)}});
      {
        spttn::FusedExecutor exec(inst->bound.kernel, plan);
        char line[64];
        std::snprintf(
            line, sizeof(line), " %016" PRIx64 " %016" PRIx64 "\n",
            spttn::run_suite_instance(exec, *inst, 1).bits_hash(),
            spttn::run_suite_instance(exec, *inst, kGoldenLanes).bits_hash());
        hashes += sk.name + "__" + set.name + line;
      }
      const std::filesystem::path file = dir / golden_name(sk.name, set.name);
      if (*check) {
        std::string old;
        try {
          old = read_file(file);
        } catch (const std::exception& e) {
          std::printf("MISSING %s (%s)\n", file.string().c_str(), e.what());
          ++drifted;
          continue;
        }
        if (old != text) {
          std::printf("DRIFT   %s\n", file.string().c_str());
          ++drifted;
        }
      } else {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        if (!out) {
          std::printf("cannot write %s\n", file.string().c_str());
          return 1;
        }
        out << text;
        ++written;
      }
    }
  }
  const std::filesystem::path hash_file = dir / "output_hashes.txt";
  if (*check) {
    try {
      if (read_file(hash_file) != hashes) {
        std::printf("DRIFT   %s\n", hash_file.string().c_str());
        ++drifted;
      }
    } catch (const std::exception& e) {
      std::printf("MISSING %s (%s)\n", hash_file.string().c_str(), e.what());
      ++drifted;
    }
    std::printf("spttn_golden: %d artifact(s) drifted\n", drifted);
    return drifted == 0 ? 0 : 1;
  }
  {
    std::ofstream out(hash_file, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::printf("cannot write %s\n", hash_file.string().c_str());
      return 1;
    }
    out << hashes;
    ++written;
  }
  std::printf("spttn_golden: wrote %d artifact(s) to %s\n", written,
              dir.string().c_str());
  return 0;
}
