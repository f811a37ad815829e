#include "exec/lower.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace spttn {

namespace {

using cprog::Base;
using cprog::CAccess;
using cprog::CActionRef;
using cprog::CLoop;
using cprog::CompiledView;
using cprog::CTerm;
using lowered::InnerKind;
using lowered::LChain;
using lowered::LLoop;
using lowered::LOp;
using lowered::LoweredProgram;
using lowered::LTerm;
using lowered::Operand;

/// Sparse values and the sparse output are addressed by the CSF leaf node.
bool leaf_addressed(Base base) {
  return base == Base::kSparseVal || base == Base::kOutSparse;
}

struct Lowerer {
  const CompiledView& prog;
  LoweredProgram out;

  /// Intern a base pointer source. Slots are few (inputs + buffers +
  /// outputs), so a linear scan beats hashing.
  int slot_for(Base base, int id) {
    for (std::size_t s = 0; s < out.slots.size(); ++s) {
      if (out.slots[s].base == base && out.slots[s].id == id) {
        return static_cast<int>(s);
      }
    }
    out.slots.push_back({base, id});
    return static_cast<int>(out.slots.size()) - 1;
  }

  /// Emit one operand into the dependency pool. With `chain_index` >= 0
  /// the operand belongs to a chain over that loop index: its dependency on
  /// the index becomes `*idx_mult` and leaf addressing becomes `*leaf_mult`
  /// (chainable() has checked both are well formed).
  Operand lower_operand(const CAccess& a, int chain_index,
                        std::int64_t* idx_mult, std::int64_t* leaf_mult) {
    // Leaf-addressed accesses are singletons; the others key the slot
    // table by their id.
    const bool leaf = leaf_addressed(a.base);
    Operand o;
    o.slot = slot_for(a.base, leaf ? 0 : a.id);
    o.leaf = leaf;
    o.dep_begin = static_cast<std::int32_t>(out.deps.size());
    for (const auto& [idx, stride] : a.outer) {
      if (idx == chain_index) {
        *idx_mult = stride;
      } else {
        out.deps.push_back({idx, stride});
      }
    }
    o.ndeps = static_cast<std::int32_t>(out.deps.size()) - o.dep_begin;
    if (chain_index >= 0 && leaf) {
      *leaf_mult = 1;
      o.leaf = false;
    }
    return o;
  }

  /// Lower one term (chain operands pulled apart into `chain` when
  /// `chain_index` >= 0) and return its id. The innermost kernel is chosen
  /// by the strides (out stride 0 => dot, lhs 0 => axpy(alpha = *lhs),
  /// rhs 0 => axpy(alpha = *rhs), else hadamard), with the unit-stride
  /// instantiation chosen by the same conditions kernels.cpp fast-paths
  /// on.
  std::int32_t lower_term(const CTerm& ct, int chain_index, LChain* chain) {
    LChain scratch;
    LChain& m = chain != nullptr ? *chain : scratch;
    LTerm t;
    t.lhs = lower_operand(ct.lhs, chain_index, &m.l_idx, &m.l_leaf);
    t.rhs = lower_operand(ct.rhs, chain_index, &m.r_idx, &m.r_leaf);
    t.out = lower_operand(ct.out, chain_index, &m.o_idx, &m.o_leaf);
    const auto depth = ct.extent.size();
    if (depth > 0) {
      const std::size_t last = depth - 1;
      t.n = ct.extent[last];
      t.ls = ct.lhs.inner[last];
      t.rs = ct.rhs.inner[last];
      t.os = ct.out.inner[last];
      if (t.os == 0) {
        t.inner =
            t.ls == 1 && t.rs == 1 ? InnerKind::kDotU : InnerKind::kDotG;
      } else if (t.ls == 0) {
        t.inner =
            t.rs == 1 && t.os == 1 ? InnerKind::kAxpyLU : InnerKind::kAxpyLG;
      } else if (t.rs == 0) {
        t.inner =
            t.ls == 1 && t.os == 1 ? InnerKind::kAxpyRU : InnerKind::kAxpyRG;
      } else {
        t.inner = t.ls == 1 && t.rs == 1 && t.os == 1 ? InnerKind::kHadU
                                                      : InnerKind::kHadG;
      }
      t.level_begin = static_cast<std::int32_t>(out.levels.size());
      t.outer_depth = static_cast<std::int32_t>(last);
      for (std::size_t l = 0; l < last; ++l) {
        out.levels.push_back({ct.extent[l], ct.lhs.inner[l], ct.rhs.inner[l],
                              ct.out.inner[l]});
      }
    }
    out.terms.push_back(t);
    return static_cast<std::int32_t>(out.terms.size()) - 1;
  }

  /// A sparse loop whose body is exactly one term fuses into a chain when
  /// every operand depends on the loop index at most once (a repeated
  /// index is a diagonal access with no single multiplier) and
  /// leaf-addressed operands sit under the CSF leaf level (elsewhere the
  /// leaf node is not a function of the loop position). Otherwise the loop
  /// stays generic.
  bool chainable(const CLoop& cl) const {
    if (!cl.sparse || cl.body.size() != 1 ||
        cl.body.front().kind != CActionRef::Kind::kTerm) {
      return false;
    }
    const bool leaf_loop = cl.csf_level == prog.csf_order - 1;
    const CTerm& ct = prog.terms[static_cast<std::size_t>(cl.body.front().id)];
    for (const CAccess* acc : {&ct.lhs, &ct.rhs, &ct.out}) {
      const auto uses = std::count_if(
          acc->outer.begin(), acc->outer.end(),
          [&](const auto& dep) { return dep.first == cl.index; });
      if (uses > 1) return false;
      if (leaf_addressed(acc->base) && !leaf_loop) return false;
    }
    return true;
  }

  LOp lower_action(const CActionRef& a) {
    switch (a.kind) {
      case CActionRef::Kind::kTerm:
        return {LOp::Kind::kTerm,
                lower_term(prog.terms[static_cast<std::size_t>(a.id)], -1,
                           nullptr)};
      case CActionRef::Kind::kReset:
        out.resets.push_back(
            {slot_for(Base::kBuffer, a.id),
             prog.buffer_len[static_cast<std::size_t>(a.id)]});
        return {LOp::Kind::kReset,
                static_cast<std::int32_t>(out.resets.size()) - 1};
      case CActionRef::Kind::kLoop:
        lower_loop(a.id);
        break;
    }
    return {LOp::Kind::kLoop, a.id};
  }

  /// Lower compiled loop `cid` (and its subtree) into out.loops[cid].
  void lower_loop(int cid) {
    const CLoop& cl = prog.loops[static_cast<std::size_t>(cid)];
    LLoop ll;
    ll.index = cl.index;
    ll.sparse = cl.sparse;
    ll.csf_level = cl.csf_level;
    ll.extent = cl.extent;
    if (chainable(cl)) {
      ll.is_chain = true;
      ll.chain.term = lower_term(
          prog.terms[static_cast<std::size_t>(cl.body.front().id)], cl.index,
          &ll.chain);
    } else {
      ll.body.reserve(cl.body.size());
      for (const CActionRef& a : cl.body) ll.body.push_back(lower_action(a));
    }
    out.loops[static_cast<std::size_t>(cid)] = std::move(ll);
  }
};

}  // namespace

lowered::LoweredProgram lower_program(const cprog::CompiledView& prog) {
  Lowerer lw{prog, {}};
  lw.out.loops.resize(prog.loops.size());
  lw.out.top.reserve(prog.top.size());
  for (const CActionRef& a : prog.top) {
    lw.out.top.push_back(lw.lower_action(a));
  }
  return std::move(lw.out);
}

}  // namespace spttn
