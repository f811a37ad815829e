// Lowered programs: the flat, pre-resolved form every FusedExecutor runs
// (the CoNST direction: one specialized form per loop nest).
//
// The lowerer (lower.cpp) runs once at compile time over the compiled IR
// and emits this form for the whole program — top-level resets and scalar
// terms included — so nothing is left to resolve per nonzero:
//
//  - operands carry an interned base-pointer slot plus a run of pre-split
//    (index, stride) dependencies in the program's flat `deps` pool;
//  - every term's innermost kernel (dot / axpy / hadamard, unit or generic
//    stride) is selected at lower time (InnerKind), and its outer collapsed
//    dense levels sit in the flat `levels` pool;
//  - a sparse loop whose body is exactly one term fuses into an LChain: one
//    template instantiation per InnerKind (the kernel switch hoisted out of
//    the nonzero loop), with the loop-invariant operand addresses resolved
//    once per chain entry and `idx[p]*idx_mult + p*leaf_mult` added per
//    nonzero.
//
// Numerical contract: every kernel keeps the accumulation order of the
// strided BLAS-style loops in kernels.cpp (one running sum per dot, in
// index order), so results are deterministic run to run, sequential or
// threaded at a fixed lane count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/compiled_program.hpp"

namespace spttn {
class CsfTensor;
}  // namespace spttn

namespace spttn::lowered {

/// One pre-resolved outer dependency: add idx_val[idx] * stride.
struct Dep {
  std::int32_t idx = 0;
  std::int64_t stride = 0;
};

/// A term operand: its base pointer interned into the slot table and its
/// outer offsets pre-split into `ndeps` entries of LoweredProgram::deps
/// starting at `dep_begin`.
struct Operand {
  std::int32_t slot = 0;
  /// Add the current CSF leaf node position (sparse values / sparse output).
  bool leaf = false;
  std::int32_t dep_begin = 0;
  std::int32_t ndeps = 0;
};

/// Innermost kernel selected at lower time (out-stride 0 => dot,
/// lhs-stride 0 => axpy with lhs as alpha, rhs-stride 0 => axpy with rhs as
/// alpha, else hadamard). The U variants are the unit-stride
/// instantiations.
enum class InnerKind : std::uint8_t {
  kScalar,  ///< depth 0: *out += *lhs * *rhs
  kDotU,
  kDotG,
  kAxpyLU,
  kAxpyLG,
  kAxpyRU,
  kAxpyRG,
  kHadU,
  kHadG,
};

/// One outer collapsed dense level of a term: trip count and per-operand
/// strides.
struct Level {
  std::int64_t ext = 0;
  std::int64_t ls = 0, rs = 0, os = 0;
};

/// A lowered term: three operands, a pre-selected innermost kernel over
/// `n` elements with constant strides, and `outer_depth` collapsed dense
/// levels (LoweredProgram::levels from `level_begin`, outermost first).
struct LTerm {
  Operand lhs, rhs, out;
  InnerKind inner = InnerKind::kScalar;
  std::int64_t n = 0;                   ///< innermost trip count
  std::int64_t ls = 0, rs = 0, os = 0;  ///< innermost strides
  std::int32_t level_begin = 0;
  std::int32_t outer_depth = 0;
};

/// One statement: a loop, a term, or a buffer reset.
struct LOp {
  enum class Kind : std::uint8_t { kLoop, kTerm, kReset } kind;
  std::int32_t id;
};

/// Fused sparse loop + single term: per operand, the loop-varying part of
/// the address is idx[p] * *_idx + p * *_leaf (*_leaf is 1 for
/// leaf-addressed operands when the chain loop is the CSF leaf level, else
/// 0); the LTerm holds the loop-invariant parts, resolved once per chain
/// entry.
struct LChain {
  std::int64_t l_idx = 0, l_leaf = 0;
  std::int64_t r_idx = 0, r_leaf = 0;
  std::int64_t o_idx = 0, o_leaf = 0;
  std::int32_t term = 0;
};

/// Pre-resolved buffer reset: zero `len` doubles at the slot base.
struct LReset {
  std::int32_t slot = 0;
  std::int64_t len = 0;
};

struct LLoop {
  std::int32_t index = -1;
  bool sparse = false;
  std::int32_t csf_level = -1;
  std::int64_t extent = 0;  ///< dense trip count (unused for CSF loops)
  bool is_chain = false;
  LChain chain{};
  std::vector<LOp> body;  ///< empty when is_chain
};

/// Where a slot's base pointer comes from (bound per execution from the
/// worker runtime).
struct SlotSource {
  cprog::Base base = cprog::Base::kDense;
  std::int32_t id = 0;
};

/// The lowered program. `loops[i]` is the lowering of compiled loop i, so
/// the executor's parallel partitioning (which reasons over compiled loop
/// ids) addresses lowered loops directly; `top` mirrors the compiled
/// top-level action sequence one to one.
struct LoweredProgram {
  std::vector<LLoop> loops;
  std::vector<LTerm> terms;
  std::vector<LReset> resets;
  std::vector<Dep> deps;
  std::vector<Level> levels;
  std::vector<SlotSource> slots;
  std::vector<LOp> top;

  /// Heap footprint of this program (for cache byte budgeting).
  std::size_t bytes() const;
};

/// Per-execution binding of a lowered program to one worker's runtime
/// state: raw pointers into the runtime's index/node arrays, the resolved
/// slot table (one base pointer per LoweredProgram::slots entry).
struct ExecCtx {
  std::int64_t* idx_val = nullptr;
  std::int64_t* csf_node = nullptr;
  const CsfTensor* csf = nullptr;
  std::int32_t leaf_level = 0;
  double* const* table = nullptr;
};

/// Run one statement; a loop runs its full range under the current
/// bindings (all nodes of level 0, the children of the bound parent node,
/// or the dense extent).
void run_op(const LoweredProgram& p, ExecCtx& ctx, const LOp& op);

/// Run loop `loop` over [begin, end) — node range for sparse loops, index
/// range for dense ones. Parallel partitioning (root chunks, nested
/// second-level splits) calls this with each task's sub-range.
void run_loop(const LoweredProgram& p, ExecCtx& ctx, std::int32_t loop,
              std::int64_t begin, std::int64_t end);

}  // namespace spttn::lowered
