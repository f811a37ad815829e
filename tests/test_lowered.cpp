// Lowered programs (exec/lower.hpp) are the only thing FusedExecutor runs,
// so this suite pins them three ways:
//  - coverage: every top-level region of every paper kernel under every
//    lint option set, and of generated order-6/7/8 networks, has a lowered
//    body (lowered_regions, counted on the lowered program, equals
//    total_regions, counted on the compiled one). This only shows the
//    lowerer emitted each region; that the lowered form computes the right
//    thing — top-level resets and scalar terms, shapes beyond any fixed
//    per-operand cap — is shown by the next check;
//  - correctness: each output agrees with the UnfactorizedExecutor oracle
//    to 1e-9, sequentially and on 4 lanes, and reruns are bit-identical;
//  - golden bits: the suite's output hashes match tests/golden/
//    output_hashes.txt (written by tools/spttn_golden), so a change to the
//    lowering or the partitioning that flips a single output bit fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "exec/executor.hpp"
#include "exec/unfactorized.hpp"
#include "serve/kernel_cache.hpp"
#include "test_helpers.hpp"

namespace spttn {
namespace {

using spttn::testing::ScopedLanes;
using spttn::testing::to_suite;

/// Lane count of the threaded runs; tools/spttn_golden hashes with the
/// same count.
constexpr int kLanes = 4;

void expect_identical(const SuiteOutput& a, const SuiteOutput& b,
                      const std::string& what) {
  ASSERT_EQ(a.dense.size(), b.dense.size()) << what;
  for (std::int64_t i = 0; i < a.dense.size(); ++i) {
    ASSERT_EQ(a.dense.data()[i], b.dense.data()[i])
        << what << " dense output diverges at " << i;
  }
  ASSERT_EQ(a.sparse, b.sparse) << what;
}

/// Max abs difference against the all-at-once reference.
double diff_vs_unfactorized(const SuiteInstance& inst, const SuiteOutput& r) {
  UnfactorizedExecutor reference(inst.bound.kernel);
  if (inst.bound.kernel.output_is_sparse()) {
    std::vector<double> want(r.sparse.size(), 0.0);
    reference.execute(inst.bound.csf, inst.bound.dense, nullptr, want);
    double d = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      d = std::max(d, std::abs(want[i] - r.sparse[i]));
    }
    return d;
  }
  DenseTensor want = make_output(inst.bound);
  reference.execute(inst.bound.csf, inst.bound.dense, &want, {});
  return r.dense.max_abs_diff(want);
}

/// Every region lowered, the oracle agrees, and a rerun flips no bit.
void check_program(FusedExecutor& exec, const SuiteInstance& inst,
                   int threads, const std::string& label) {
  const SuiteOutput r = run_suite_instance(exec, inst, threads);
  EXPECT_TRUE(r.stats.populated) << label;
  EXPECT_GT(r.stats.total_regions, 0) << label;
  EXPECT_EQ(r.stats.lowered_regions, r.stats.total_regions) << label;
  EXPECT_LT(diff_vs_unfactorized(inst, r), 1e-9) << label;
  expect_identical(r, run_suite_instance(exec, inst, threads), label);
}

TEST(LoweredDifferential, SequentialSuiteAcrossAllLintOptionSets) {
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      check_program(exec, *inst, 1, sk.name + " [" + set.name + "]");
    }
  }
}

TEST(LoweredDifferential, ThreadedSuiteBitIdenticalAcrossReruns) {
  ScopedLanes lanes(kLanes);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      check_program(exec, *inst, kLanes, sk.name + " [" + set.name + "]");
    }
  }
}

/// tests/golden/output_hashes.txt: "<kernel>__<set> <1 lane> <4 lanes>".
std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
read_golden_hashes() {
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> out;
  std::ifstream in(std::string(SPTTN_SOURCE_DIR) +
                   "/tests/golden/output_hashes.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, seq, threaded;
    ls >> name >> seq >> threaded;
    out[name] = {std::stoull(seq, nullptr, 16),
                 std::stoull(threaded, nullptr, 16)};
  }
  return out;
}

// The deletion of the interpreter (and any later executor change) must
// not flip an output bit: the hashes were taken when the interpreter and
// the lowered programs still ran side by side and agreed on every program.
TEST(LoweredDifferential, OutputsMatchGoldenHashes) {
  const auto golden = read_golden_hashes();
  ASSERT_EQ(golden.size(),
            paper_kernel_suite().size() * lint_option_sets().size())
      << "missing or partial golden output hashes — regenerate with "
         "tools/spttn_golden";
  ScopedLanes lanes(kLanes);
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    const auto inst = make_suite_instance(sk, 42);
    for (const LintOptionSet& set : lint_option_sets()) {
      const std::string name = sk.name + "__" + set.name;
      const auto it = golden.find(name);
      ASSERT_NE(it, golden.end()) << name;
      const Plan plan =
          make_plan(inst->bound.kernel, inst->bound.stats, set.options);
      FusedExecutor exec(inst->bound.kernel, plan);
      EXPECT_EQ(run_suite_instance(exec, *inst, 1).bits_hash(),
                it->second.first)
          << name << " sequential";
      EXPECT_EQ(run_suite_instance(exec, *inst, kLanes).bits_hash(),
                it->second.second)
          << name << " " << kLanes << " lanes";
    }
  }
}

// Generated networks reach shapes the paper suite does not: operands with
// many outer indices and terms with many collapsed levels (several of
// these lowered only partly while the lowerer had fixed per-operand caps,
// e.g. order 6 seed 1090 and order 8 seed 1091). Planned with a node
// budget, not a wall-clock one, so the plans are deterministic.
TEST(LoweringCoverage, GeneratedOrder6To8NetworksLowerFully) {
  PlannerOptions anytime;
  anytime.strategy = StrategyKind::kAnytime;
  anytime.budget.max_nodes = 256;
  std::vector<GeneratedNetwork> nets;
  for (int order = 6; order <= 8; ++order) {
    for (std::uint64_t seed = 1090; seed < 1094; ++seed) {
      Rng rng(seed);
      nets.push_back(random_network(order, 3, 3, rng));
    }
    nets.push_back(tensor_train_network(order, 3, 2));
  }
  ScopedLanes lanes(kLanes);
  for (const GeneratedNetwork& net : nets) {
    const std::string label = net.name + ": " + net.expr;
    const auto inst = make_suite_instance(to_suite(net, 0.01), 42);
    const Plan plan = make_plan(inst->bound.kernel, inst->bound.stats, anytime);
    FusedExecutor exec(inst->bound.kernel, plan);
    check_program(exec, *inst, 1, label + " sequential");
    check_program(exec, *inst, kLanes, label + " threaded");
  }
}

TEST(LoweredDifferential, EntryBytesAccountForTheCompiledPrograms) {
  const auto& suite = paper_kernel_suite();
  const auto inst = make_suite_instance(suite.front(), 13);
  const PlannerOptions options;
  const Plan plan =
      make_plan(inst->bound.kernel, inst->bound.stats, options);
  const FusedExecutor exec(inst->bound.kernel, plan);
  EXPECT_GT(exec.program_bytes(), 0u);

  const KernelSignature sig =
      make_signature(inst->bound.kernel, inst->bound.stats, options);
  const std::size_t with_exec =
      estimate_entry_bytes(sig, inst->bound.kernel, plan, &exec);
  const std::size_t heuristic =
      estimate_entry_bytes(sig, inst->bound.kernel, plan);
  // The exec-aware estimate swaps the per-action heuristic for the real
  // program footprint; both must include it (strictly more than the
  // structure-only parts, i.e. nonzero either way).
  EXPECT_GT(with_exec, exec.program_bytes());
  EXPECT_GT(heuristic, 0u);
}

}  // namespace
}  // namespace spttn
