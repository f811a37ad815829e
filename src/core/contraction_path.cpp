#include "core/contraction_path.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace spttn {

int ContractionPath::consumer_of(int i) const {
  for (int j = i + 1; j < num_terms(); ++j) {
    const PathTerm& t = term(j);
    const auto uses = [&](const PathOperand& op) {
      return op.kind == PathOperand::Kind::kIntermediate && op.id == i;
    };
    if (uses(t.lhs) || uses(t.rhs)) return j;
  }
  return -1;
}

bool ContractionPath::csf_prefix_executable(const Kernel& kernel) const {
  const auto& csf_order = kernel.sparse_ref().idx;
  for (const PathTerm& t : terms) {
    if (!t.carries_sparse) continue;
    // Sparse refs of a sparse-carrying term must be exactly the first
    // |sparse_refs| CSF modes.
    IndexSet prefix;
    const int k = t.sparse_refs.size();
    for (int l = 0; l < k; ++l) {
      prefix.insert(csf_order[static_cast<std::size_t>(l)]);
    }
    if (!(t.sparse_refs == prefix)) return false;
  }
  return true;
}

std::string ContractionPath::to_string(const Kernel& kernel) const {
  const auto render_operand = [&](const PathOperand& op) {
    std::string name = op.kind == PathOperand::Kind::kInput
                           ? kernel.input(op.id).name
                           : std::string("X").append(
                                 std::to_string(op.id + 1));
    std::string s = name + "(";
    bool first = true;
    // Render indices in kernel id order for intermediates; original order
    // for inputs.
    if (op.kind == PathOperand::Kind::kInput) {
      for (int id : kernel.input(op.id).idx) {
        if (!first) s += ",";
        s += kernel.index_name(id);
        first = false;
      }
    } else {
      for (int id : op.iset.elements()) {
        if (!first) s += ",";
        s += kernel.index_name(id);
        first = false;
      }
    }
    return s + ")";
  };
  std::string s;
  for (int i = 0; i < num_terms(); ++i) {
    if (i) s += "; ";
    const PathTerm& t = term(i);
    s += render_operand(t.lhs) + "*" + render_operand(t.rhs) + " -> ";
    if (i + 1 == num_terms()) {
      s += kernel.output().name;
    } else {
      s.append("X").append(std::to_string(i + 1));
    }
    s += "(";
    bool first = true;
    for (int id : t.out.elements()) {
      if (!first) s += ",";
      s += kernel.index_name(id);
      first = false;
    }
    s += ")";
  }
  return s;
}

SparsityStats SparsityStats::from_coo(const CooTensor& coo) {
  SPTTN_CHECK_MSG(coo.is_sorted(), "SparsityStats needs sort_dedup()ed COO");
  SparsityStats s;
  s.coo_ = &coo;
  s.nnz_ = coo.nnz();
  s.fingerprint_ = coo.structure_hash();
  s.dims_ = coo.dims();
  s.prefix_.resize(static_cast<std::size_t>(coo.order()) + 1);
  for (int k = 0; k <= coo.order(); ++k) {
    s.prefix_[static_cast<std::size_t>(k)] = coo.nnz_prefix(k);
  }
  return s;
}

SparsityStats SparsityStats::uniform(const std::vector<std::int64_t>& dims,
                                     std::int64_t nnz) {
  SparsityStats s;
  s.nnz_ = nnz;
  s.dims_ = dims;
  s.prefix_.resize(dims.size() + 1);
  s.prefix_[0] = nnz > 0 ? 1 : 0;
  double space = 1;
  for (std::size_t k = 0; k < dims.size(); ++k) {
    space *= static_cast<double>(dims[k]);
    // Expected distinct prefixes when nnz coordinates are uniform:
    // space * (1 - (1 - 1/space)^nnz) ≈ min(space, nnz) to within a
    // constant; we use the exact expectation for better estimates.
    const double expected =
        space * (1.0 - std::exp(static_cast<double>(nnz) *
                                std::log1p(-1.0 / space)));
    s.prefix_[k + 1] = std::min<std::int64_t>(
        nnz, std::max<std::int64_t>(1, static_cast<std::int64_t>(expected)));
  }
  s.prefix_[dims.size()] = nnz;
  return s;
}

SparsityStats::SparsityStats(const SparsityStats& o)
    : prefix_(o.prefix_),
      dims_(o.dims_),
      nnz_(o.nnz_),
      fingerprint_(o.fingerprint_),
      coo_(o.coo_) {
  std::lock_guard<std::mutex> lk(o.proj_m_);
  proj_cache_ = o.proj_cache_;
}

SparsityStats& SparsityStats::operator=(const SparsityStats& o) {
  if (this == &o) return *this;
  prefix_ = o.prefix_;
  dims_ = o.dims_;
  nnz_ = o.nnz_;
  fingerprint_ = o.fingerprint_;
  coo_ = o.coo_;
  std::scoped_lock lk(proj_m_, o.proj_m_);
  proj_cache_ = o.proj_cache_;
  return *this;
}

SparsityStats::SparsityStats(SparsityStats&& o) noexcept
    : prefix_(std::move(o.prefix_)),
      dims_(std::move(o.dims_)),
      nnz_(o.nnz_),
      fingerprint_(o.fingerprint_),
      coo_(o.coo_),
      proj_cache_(std::move(o.proj_cache_)) {}

SparsityStats& SparsityStats::operator=(SparsityStats&& o) noexcept {
  if (this == &o) return *this;
  prefix_ = std::move(o.prefix_);
  dims_ = std::move(o.dims_);
  nnz_ = o.nnz_;
  fingerprint_ = o.fingerprint_;
  coo_ = o.coo_;
  proj_cache_ = std::move(o.proj_cache_);
  return *this;
}

std::int64_t SparsityStats::projection_nnz(std::uint64_t level_mask) const {
  const int d = order();
  // Prefix masks resolve from the precomputed table.
  int prefix_len = 0;
  while (prefix_len < d && (level_mask >> prefix_len) & 1) ++prefix_len;
  if (level_mask == (std::uint64_t{1} << prefix_len) - 1) {
    return prefix_nnz(prefix_len);
  }
  {
    std::lock_guard<std::mutex> lk(proj_m_);
    for (const auto& [mask, count] : proj_cache_) {
      if (mask == level_mask) return count;
    }
  }
  // Compute outside the lock: the COO projection scan is the expensive
  // part, and two threads racing to compute the same mask produce the
  // same value (the second insert below is dropped).
  std::int64_t count = 0;
  if (coo_ != nullptr) {
    std::vector<int> modes;
    for (int l = 0; l < d; ++l) {
      if ((level_mask >> l) & 1) modes.push_back(l);
    }
    count = coo_->nnz_projection(modes);
  } else {
    double space = 1;
    for (int l = 0; l < d; ++l) {
      if ((level_mask >> l) & 1) {
        space *= static_cast<double>(dims_[static_cast<std::size_t>(l)]);
      }
    }
    count = std::min<std::int64_t>(
        nnz_, std::max<std::int64_t>(1, static_cast<std::int64_t>(space)));
  }
  std::lock_guard<std::mutex> lk(proj_m_);
  for (const auto& [mask, cached] : proj_cache_) {
    if (mask == level_mask) return cached;  // another caller beat us
  }
  proj_cache_.emplace_back(level_mask, count);
  return count;
}

double path_flops(const Kernel& kernel, const ContractionPath& path,
                  const SparsityStats& stats) {
  // Optimistic estimate matching the fused runtime: any term's sparse-mode
  // references can iterate over the sparse pattern's projection (dense
  // sub-network terms are fused under the sparse chain — see the soundness
  // note in loop_tree.cpp); remaining indices iterate densely.
  double total = 0;
  for (const PathTerm& t : path.terms) {
    double iters = 1;
    if (!t.sparse_refs.empty()) {
      std::uint64_t level_mask = 0;
      for (int id : t.sparse_refs.elements()) {
        const int lvl = kernel.csf_level(id);
        SPTTN_CHECK(lvl >= 0);
        level_mask |= (std::uint64_t{1} << lvl);
      }
      iters *= static_cast<double>(stats.projection_nnz(level_mask));
    }
    for (int id : (t.refs - t.sparse_refs).elements()) {
      iters *= static_cast<double>(kernel.index_dim(id));
    }
    total += 2.0 * iters;
  }
  return total;
}

namespace {

/// Item in the enumeration working list.
struct Item {
  PathOperand op;
  bool carries_sparse;
};

void enumerate_rec(const Kernel& kernel, std::vector<Item>& items,
                   ContractionPath& partial,
                   std::vector<ContractionPath>& out) {
  const std::size_t n = items.size();
  if (n == 1) {
    out.push_back(partial);
    return;
  }
  // Indices needed later = union over other items of their indices, plus the
  // kernel output indices.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      IndexSet needed = kernel.output_indices();
      for (std::size_t c = 0; c < n; ++c) {
        if (c == a || c == b) continue;
        needed |= items[c].op.iset;
      }
      PathTerm term;
      term.lhs = items[a].op;
      term.rhs = items[b].op;
      term.refs = items[a].op.iset | items[b].op.iset;
      term.out = term.refs & needed;
      term.carries_sparse = items[a].carries_sparse || items[b].carries_sparse;
      term.sparse_refs = term.refs & kernel.sparse_modes();

      const int term_id = partial.num_terms();
      partial.terms.push_back(term);

      Item merged;
      merged.op.kind = PathOperand::Kind::kIntermediate;
      merged.op.id = term_id;
      merged.op.iset = term.out;
      merged.carries_sparse = term.carries_sparse;

      // Reduce the list: remove b then replace a (preserves order enough for
      // enumeration completeness; pair choice is order-insensitive).
      std::vector<Item> next;
      next.reserve(n - 1);
      for (std::size_t c = 0; c < n; ++c) {
        if (c == b) continue;
        next.push_back(c == a ? merged : items[c]);
      }
      enumerate_rec(kernel, next, partial, out);
      partial.terms.pop_back();
    }
  }
}

}  // namespace

std::vector<ContractionPath> enumerate_paths(const Kernel& kernel) {
  std::vector<Item> items;
  items.reserve(static_cast<std::size_t>(kernel.num_inputs()));
  for (int i = 0; i < kernel.num_inputs(); ++i) {
    Item it;
    it.op.kind = PathOperand::Kind::kInput;
    it.op.id = i;
    it.op.iset = kernel.input(i).iset;
    it.carries_sparse = (i == kernel.sparse_input());
    items.push_back(it);
  }
  std::vector<ContractionPath> out;
  if (items.size() == 1) {
    // Degenerate single-input kernel (e.g. a plain reduction): one empty
    // path; the executor handles it as a single pass over the input.
    return out;
  }
  ContractionPath partial;
  enumerate_rec(kernel, items, partial, out);
  return out;
}

std::uint64_t count_paths(int n) {
  SPTTN_CHECK(n >= 2);
  // T(n) = C(n,2) * T(n-1), T(2) = 1.
  std::uint64_t t = 1;
  for (int i = 3; i <= n; ++i) {
    t *= static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(i - 1) / 2;
  }
  return t;
}

ContractionPath chain_path(const Kernel& kernel, std::vector<int> dense_order) {
  if (dense_order.empty()) {
    for (int i = 0; i < kernel.num_inputs(); ++i) {
      if (i != kernel.sparse_input()) dense_order.push_back(i);
    }
  }
  SPTTN_CHECK_MSG(static_cast<int>(dense_order.size()) ==
                      kernel.num_inputs() - 1,
                  "chain_path needs every non-sparse input exactly once");
  ContractionPath path;
  PathOperand running;
  running.kind = PathOperand::Kind::kInput;
  running.id = kernel.sparse_input();
  running.iset = kernel.sparse_ref().iset;
  for (std::size_t step = 0; step < dense_order.size(); ++step) {
    const int input = dense_order[step];
    SPTTN_CHECK(input != kernel.sparse_input());
    PathTerm term;
    term.lhs = running;
    term.rhs.kind = PathOperand::Kind::kInput;
    term.rhs.id = input;
    term.rhs.iset = kernel.input(input).iset;
    term.refs = term.lhs.iset | term.rhs.iset;
    IndexSet needed = kernel.output_indices();
    for (std::size_t later = step + 1; later < dense_order.size(); ++later) {
      needed |= kernel.input(dense_order[later]).iset;
    }
    term.out = term.refs & needed;
    term.carries_sparse = true;  // sparse data flows through every term
    term.sparse_refs = term.refs & kernel.sparse_modes();

    running.kind = PathOperand::Kind::kIntermediate;
    running.id = path.num_terms();
    running.iset = term.out;
    path.terms.push_back(std::move(term));
  }
  return path;
}

}  // namespace spttn
