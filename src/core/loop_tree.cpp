#include "core/loop_tree.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace spttn {

namespace {

/// Working item during recursive construction.
struct Piece {
  int term;
  std::vector<int> suffix;  // remaining loop order for the term
};

}  // namespace

LoopTree LoopTree::assemble(std::vector<Node> nodes, std::vector<Action> top,
                            std::vector<BufferSpec> buffers) {
  LoopTree t;
  t.nodes_ = std::move(nodes);
  t.top_ = std::move(top);
  t.buffers_ = std::move(buffers);
  return t;
}

LoopTree LoopTree::build(const Kernel& kernel, const ContractionPath& path,
                         const LoopOrder& order) {
  SPTTN_CHECK_MSG(is_valid_order(path, order),
                  "loop order is not valid for the contraction path");
  LoopTree t;
  const int n_terms = path.num_terms();

  // term_ancestors[t] = node-id path from the forest root to term t's leaf.
  std::vector<std::vector<int>> term_ancestors(
      static_cast<std::size_t>(n_terms));

  // Terms that reference the sparse input directly (and thus need the CSF
  // cursor positioned at their leaves).
  const auto touches_sparse_input = [&](int term_id) {
    const PathTerm& term = path.term(term_id);
    const auto direct = [&](const PathOperand& op) {
      return op.kind == PathOperand::Kind::kInput &&
             op.id == kernel.sparse_input();
    };
    return direct(term.lhs) || direct(term.rhs);
  };

  // Recursive grouping by shared leading index (peeling, Def 4.2).
  //
  // sparse_depth counts enclosing CSF-iterated loops. A vertex iterates the
  // CSF tree exactly when its index is the sparse mode at that level
  // (lvl == sparse_depth); all other loops — including sparse-mode indices
  // encountered out of CSF order, as in the SparseLNR-style dense workspace
  // iteration — are dense counting loops.
  //
  // Soundness of the depth-only rule for SpTTN kernels: positions skipped
  // by a CSF loop fall into two cases. (1) The covered term consumes data
  // derived from the sparse tensor; skipped positions are then truly zero
  // (every product there carries a zero of T), so buffers remain pointwise
  // correct everywhere. (2) The covered term is part of the dense
  // sub-network (no T data yet); its skipped buffer positions may differ
  // from the true dense value, but downstream terms only ever read such
  // buffers at projections of T's nonzero pattern — no sparse mode can be
  // summed before T is absorbed, so coordinates are preserved until a
  // pattern-restricted read. Hence values at pattern projections are
  // correct end-to-end, which is all the kernel output depends on.
  const auto build_level = [&](auto&& self, std::vector<Piece> pieces,
                               std::vector<int>& ancestors, int depth,
                               int sparse_depth) -> std::vector<Action> {
    std::vector<Action> actions;
    std::size_t i = 0;
    while (i < pieces.size()) {
      if (pieces[i].suffix.empty()) {
        term_ancestors[static_cast<std::size_t>(pieces[i].term)] = ancestors;
        actions.push_back({Action::Kind::kTerm, pieces[i].term});
        ++i;
        continue;
      }
      const int q = pieces[i].suffix.front();
      std::vector<Piece> group;
      bool group_touches_sparse = false;
      while (i < pieces.size() && !pieces[i].suffix.empty() &&
             pieces[i].suffix.front() == q) {
        Piece p;
        p.term = pieces[i].term;
        p.suffix.assign(pieces[i].suffix.begin() + 1, pieces[i].suffix.end());
        group_touches_sparse =
            group_touches_sparse || touches_sparse_input(p.term);
        group.push_back(std::move(p));
        ++i;
      }
      const int node_id = static_cast<int>(t.nodes_.size());
      t.nodes_.emplace_back();
      t.nodes_.back().index = q;
      t.nodes_.back().depth = depth;
      const int lvl = kernel.csf_level(q);
      const bool is_sparse_loop = lvl >= 0 && lvl == sparse_depth;
      if (group_touches_sparse && lvl >= 0) {
        // The term reading T itself needs the CSF cursor at every level, so
        // its sparse modes must appear in storage order.
        SPTTN_CHECK_MSG(
            is_sparse_loop,
            "loop order iterates sparse mode '"
                << kernel.index_name(q) << "' (CSF level " << lvl
                << ") at sparse depth " << sparse_depth
                << "; the sparse tensor's term must follow CSF order");
      }
      t.nodes_.back().sparse = is_sparse_loop;
      t.nodes_.back().csf_level = is_sparse_loop ? lvl : -1;
      actions.push_back({Action::Kind::kLoop, node_id});

      ancestors.push_back(node_id);
      auto body = self(self, std::move(group), ancestors, depth + 1,
                       sparse_depth + (is_sparse_loop ? 1 : 0));
      ancestors.pop_back();
      // Nodes may have been appended during recursion; index by id.
      t.nodes_[static_cast<std::size_t>(node_id)].body = std::move(body);
    }
    return actions;
  };

  std::vector<Piece> pieces;
  pieces.reserve(static_cast<std::size_t>(n_terms));
  for (int i = 0; i < n_terms; ++i) {
    pieces.push_back({i, order[static_cast<std::size_t>(i)]});
  }
  std::vector<int> ancestors;
  t.top_ = build_level(build_level, std::move(pieces), ancestors, 0, 0);

  // --- Buffer inference (Eq. 5) ---
  t.buffers_.resize(static_cast<std::size_t>(n_terms));
  for (int x = 0; x < n_terms; ++x) {
    const int y = path.consumer_of(x);
    if (y < 0) continue;  // final term: writes the kernel output
    const auto& ax = term_ancestors[static_cast<std::size_t>(x)];
    const auto& ay = term_ancestors[static_cast<std::size_t>(y)];
    std::size_t common = 0;
    while (common < ax.size() && common < ay.size() &&
           ax[common] == ay[common]) {
      ++common;
    }
    IndexSet removed;
    for (std::size_t a = 0; a < common; ++a) {
      removed.insert(t.nodes_[static_cast<std::size_t>(ax[a])].index);
    }
    BufferSpec spec;
    spec.producer = x;
    spec.consumer = y;
    const IndexSet binds = path.term(x).out - removed;
    // Order buffer indices by their position in the producer's loop order so
    // the producer's innermost loop writes with stride 1.
    for (int id : order[static_cast<std::size_t>(x)]) {
      if (binds.contains(id)) {
        spec.indices.push_back(id);
        spec.dims.push_back(kernel.index_dim(id));
        spec.size *= spec.dims.back();
      }
    }
    SPTTN_CHECK(static_cast<int>(spec.indices.size()) == binds.size());
    t.buffers_[static_cast<std::size_t>(x)] = std::move(spec);

    // --- Reset placement: zero the buffer once per iteration of the deepest
    // common ancestor, immediately before the action leading to the
    // producer. ---
    std::vector<Action>* body = &t.top_;
    if (common > 0) {
      body = &t.nodes_[static_cast<std::size_t>(ax[common - 1])].body;
    }
    // The action to precede: the loop child on the producer's path (or the
    // producer term itself if it executes directly at this level).
    int target_id;
    Action::Kind target_kind;
    if (common < ax.size()) {
      target_kind = Action::Kind::kLoop;
      target_id = ax[common];
    } else {
      target_kind = Action::Kind::kTerm;
      target_id = x;
    }
    auto it = std::find_if(body->begin(), body->end(), [&](const Action& a) {
      return a.kind == target_kind && a.id == target_id;
    });
    SPTTN_CHECK(it != body->end());
    body->insert(it, Action{Action::Kind::kReset, x});
  }
  return t;
}

int LoopTree::max_buffer_dim() const {
  int m = 0;
  for (const auto& b : buffers_) {
    if (b.producer >= 0) m = std::max(m, static_cast<int>(b.indices.size()));
  }
  return m;
}

std::int64_t LoopTree::max_buffer_size() const {
  std::int64_t m = 0;
  for (const auto& b : buffers_) {
    if (b.producer >= 0) m = std::max(m, b.size);
  }
  return m;
}

std::int64_t LoopTree::total_buffer_size() const {
  std::int64_t s = 0;
  for (const auto& b : buffers_) {
    if (b.producer >= 0) s += b.size;
  }
  return s;
}

int LoopTree::max_depth() const {
  int m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.depth + 1);
  return m;
}

int LoopTree::count_offloadable_dense_loops(const Kernel& kernel,
                                            const ContractionPath& path,
                                            const LoopOrder& order) const {
  (void)path;
  // For each term, count the trailing run of dense indices in its loop
  // order that no other term shares at the same tree position. A shared
  // vertex is one that covers >= 2 terms; we approximate exclusivity by
  // checking whether the trailing index appears in another term's order at
  // any fused position — the tree gives the exact answer, so walk it.
  // A node is exclusive to a term when its subtree contains exactly one
  // kTerm action.
  std::vector<int> term_count(nodes_.size(), 0);
  const auto count_terms = [&](auto&& self, const std::vector<Action>& body)
      -> int {
    int c = 0;
    for (const auto& a : body) {
      if (a.kind == Action::Kind::kTerm) ++c;
      if (a.kind == Action::Kind::kLoop) {
        const int sub =
            self(self, nodes_[static_cast<std::size_t>(a.id)].body);
        term_count[static_cast<std::size_t>(a.id)] = sub;
        c += sub;
      }
    }
    return c;
  };
  count_terms(count_terms, top_);

  // Trailing dense, exclusive loops per term: walk each term's ancestor
  // chain from the leaf upward.
  int total = 0;
  // Recompute ancestors.
  std::vector<std::vector<int>> anc(order.size());
  const auto walk = [&](auto&& self, const std::vector<Action>& body,
                        std::vector<int>& chain) -> void {
    for (const auto& a : body) {
      if (a.kind == Action::Kind::kTerm) {
        anc[static_cast<std::size_t>(a.id)] = chain;
      } else if (a.kind == Action::Kind::kLoop) {
        chain.push_back(a.id);
        self(self, nodes_[static_cast<std::size_t>(a.id)].body, chain);
        chain.pop_back();
      }
    }
  };
  std::vector<int> chain;
  walk(walk, top_, chain);
  (void)kernel;
  for (const auto& chain_t : anc) {
    for (std::size_t a = chain_t.size(); a-- > 0;) {
      const Node& n = nodes_[static_cast<std::size_t>(chain_t[a])];
      // What matters is the node's iteration kind: dense counting loops are
      // collapsible even when their index is a sparse mode (dense-iterated
      // workspace loops of dense sub-network terms).
      if (!n.sparse && term_count[static_cast<std::size_t>(chain_t[a])] == 1) {
        ++total;
      } else {
        break;
      }
    }
  }
  return total;
}

std::string LoopTree::render(const Kernel& kernel,
                             const ContractionPath& path) const {
  std::ostringstream os;
  const auto operand_str = [&](const PathOperand& op) {
    if (op.kind == PathOperand::Kind::kInput) return kernel.input(op.id).name;
    return std::string("X").append(std::to_string(op.id + 1));
  };
  const auto emit = [&](auto&& self, const std::vector<Action>& body,
                        int indent) -> void {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    for (const auto& a : body) {
      switch (a.kind) {
        case Action::Kind::kLoop: {
          const Node& n = nodes_[static_cast<std::size_t>(a.id)];
          if (n.sparse) {
            os << pad << "for " << kernel.index_name(n.index) << " in "
               << kernel.sparse_ref().name << ".csf_level("
               << n.csf_level << "):\n";
          } else {
            os << pad << "for " << kernel.index_name(n.index)
               << " in range(" << kernel.index_name(n.index) << "):\n";
          }
          self(self, n.body, indent + 1);
          break;
        }
        case Action::Kind::kReset: {
          const auto& buf = buffers_[static_cast<std::size_t>(a.id)];
          os << pad << "X" << (buf.producer + 1) << " = 0  # buffer(";
          for (std::size_t i = 0; i < buf.indices.size(); ++i) {
            if (i) os << ",";
            os << kernel.index_name(buf.indices[i]);
          }
          os << ")\n";
          break;
        }
        case Action::Kind::kTerm: {
          const PathTerm& term = path.term(a.id);
          const bool last = (a.id + 1 == path.num_terms());
          os << pad;
          if (last) {
            os << kernel.output().name;
          } else {
            os << "X" << (a.id + 1);
          }
          os << " += " << operand_str(term.lhs) << " * "
             << operand_str(term.rhs) << "\n";
          break;
        }
      }
    }
  };
  emit(emit, top_, 0);
  return os.str();
}

}  // namespace spttn
