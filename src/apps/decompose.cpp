#include "apps/decompose.hpp"

#include <cmath>

#include "apps/linalg.hpp"
#include "exec/kernels.hpp"
#include "serve/session.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace spttn {

namespace {

/// Execute a prepared session kernel with the given per-call factor slots,
/// returning the wall-clock of the execution (the drivers report time
/// spent inside SpTTN kernels separately from the dense linear algebra).
double timed_run(Session& session, int kernel_id,
                 const std::vector<const DenseTensor*>& slots,
                 DenseTensor* out_dense, std::span<double> out_sparse = {}) {
  Timer t;
  session.run_with(kernel_id, slots, out_dense, out_sparse);
  return t.seconds();
}

/// Index names i0..i{d-1} for the sparse modes.
std::string mode_index(int m) {
  return std::string("i").append(std::to_string(m));
}

/// "T(i0,i1,...,i{d-1})"
std::string sparse_ref_expr(int d) {
  std::string s = "T(";
  for (int m = 0; m < d; ++m) {
    if (m) s += ",";
    s += mode_index(m);
  }
  return s + ")";
}

/// MTTKRP expression for output mode m:
/// "M(i{m},r) = T(...) * U0(i0,r) * ... (skipping mode m)".
std::string mttkrp_expr(int d, int mode) {
  std::string s = "M(" + mode_index(mode) + ",r) = " + sparse_ref_expr(d);
  for (int m = 0; m < d; ++m) {
    if (m == mode) continue;
    s += strfmt(" * U%d(%s,r)", m, mode_index(m).c_str());
  }
  return s;
}

/// TTTP expression: "S(i0,..) = T(i0,..) * U0(i0,r) * U1(i1,r) * ...".
std::string tttp_expr(int d) {
  std::string s = "S(";
  for (int m = 0; m < d; ++m) {
    if (m) s += ",";
    s += mode_index(m);
  }
  s += ") = " + sparse_ref_expr(d);
  for (int m = 0; m < d; ++m) {
    s += strfmt(" * U%d(%s,r)", m, mode_index(m).c_str());
  }
  return s;
}

double tensor_norm(const CooTensor& t) {
  double s = 0;
  for (double v : t.values()) s += v * v;
  return std::sqrt(s);
}

/// Random (n x r) factor with small entries (keeps ALS starts stable).
DenseTensor random_factor(std::int64_t n, std::int64_t r, Rng& rng) {
  DenseTensor f({n, r});
  for (std::int64_t i = 0; i < f.size(); ++i) {
    f.data()[i] = 0.5 * (2.0 * rng.next_double() - 1.0);
  }
  return f;
}

}  // namespace

double CpModel::value_at(std::span<const std::int64_t> coord) const {
  double out = 0;
  for (int r = 0; r < rank; ++r) {
    double p = 1;
    for (std::size_t m = 0; m < factors.size(); ++m) {
      p *= factors[m].at({coord[m], r});
    }
    out += p;
  }
  return out;
}

CpModel make_cp_model(const CooTensor& tensor, int rank, Rng& rng) {
  CpModel model;
  model.rank = rank;
  for (int m = 0; m < tensor.order(); ++m) {
    model.factors.push_back(random_factor(tensor.dim(m), rank, rng));
  }
  return model;
}

double cp_fit(const CooTensor& tensor, const CpModel& model) {
  // |T - M|^2 = |T|^2 - 2<T,M> + |M|^2.
  const double tnorm2 = tensor_norm(tensor) * tensor_norm(tensor);
  double inner = 0;
  for (std::int64_t e = 0; e < tensor.nnz(); ++e) {
    inner += tensor.value(e) * model.value_at(tensor.coord(e));
  }
  DenseTensor gprod;
  for (std::size_t m = 0; m < model.factors.size(); ++m) {
    const DenseTensor g = gram(model.factors[m]);
    gprod = (m == 0) ? g : hadamard(gprod, g);
  }
  const double mnorm2 = element_sum(gprod);
  const double resid2 = std::max(0.0, tnorm2 - 2 * inner + mnorm2);
  return 1.0 - std::sqrt(resid2) / std::sqrt(tnorm2);
}

AlsReport cp_als(const CooTensor& tensor, CpModel* model, int sweeps,
                 const PlannerOptions& options) {
  SPTTN_CHECK(tensor.is_sorted());
  const int d = tensor.order();
  SPTTN_CHECK(static_cast<int>(model->factors.size()) == d);
  AlsReport report;

  // One session binds the tensor (CSF + stats) once; the per-mode MTTKRP
  // family resolves through the kernel cache, so repeated cp_als calls on
  // the same structure skip the planner search entirely.
  Session session(tensor, options);
  std::vector<int> kernel_ids;
  std::vector<std::vector<const DenseTensor*>> slots(
      static_cast<std::size_t>(d));
  for (int mode = 0; mode < d; ++mode) {
    auto& s = slots[static_cast<std::size_t>(mode)];
    s.push_back(nullptr);  // sparse slot
    for (int m = 0; m < d; ++m) {
      if (m != mode) s.push_back(&model->factors[static_cast<std::size_t>(m)]);
    }
    kernel_ids.push_back(session.prepare(
        mttkrp_expr(d, mode),
        {s.begin() + 1, s.end()}));  // factors in order of appearance
  }

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int mode = 0; mode < d; ++mode) {
      DenseTensor m_out({tensor.dim(mode), model->rank});
      report.seconds_in_kernels +=
          timed_run(session, kernel_ids[static_cast<std::size_t>(mode)],
                    slots[static_cast<std::size_t>(mode)], &m_out);
      // Normal equations: Hadamard of the other factors' Grams.
      DenseTensor v;
      bool first = true;
      for (int m = 0; m < d; ++m) {
        if (m == mode) continue;
        const DenseTensor g = gram(model->factors[static_cast<std::size_t>(m)]);
        v = first ? g : hadamard(v, g);
        first = false;
      }
      solve_normal_equations(v, &m_out);
      model->factors[static_cast<std::size_t>(mode)] = std::move(m_out);
    }
    report.fits.push_back(cp_fit(tensor, *model));
    ++report.sweeps;
  }
  return report;
}

TuckerModel make_tucker_model(const CooTensor& tensor,
                              std::vector<std::int64_t> ranks, Rng& rng) {
  SPTTN_CHECK(static_cast<int>(ranks.size()) == tensor.order());
  TuckerModel model;
  model.ranks = ranks;
  for (int m = 0; m < tensor.order(); ++m) {
    DenseTensor f = random_factor(tensor.dim(m),
                                  ranks[static_cast<std::size_t>(m)], rng);
    orthonormalize_columns(&f);
    model.factors.push_back(std::move(f));
  }
  model.core = DenseTensor(ranks);
  return model;
}

HooiReport tucker_hooi(const CooTensor& tensor, TuckerModel* model,
                       int sweeps, const PlannerOptions& options) {
  SPTTN_CHECK_MSG(tensor.order() == 3, "tucker_hooi supports order 3");
  HooiReport report;
  const auto& r = model->ranks;

  // One session serves the whole TTMc kernel family (three per-mode
  // kernels plus the all-mode core update) against one CSF build.
  Session session(tensor, options);

  // Per-mode TTMc kernels: Y = T x_{m'} U_{m'} for m' != m.
  const std::vector<std::string> exprs = {
      "Y(i0,a,b) = T(i0,i1,i2) * U1(i1,a) * U2(i2,b)",
      "Y(i1,a,b) = T(i0,i1,i2) * U0(i0,a) * U2(i2,b)",
      "Y(i2,a,b) = T(i0,i1,i2) * U0(i0,a) * U1(i1,b)",
  };
  std::vector<std::vector<const DenseTensor*>> slots = {
      {nullptr, &model->factors[1], &model->factors[2]},
      {nullptr, &model->factors[0], &model->factors[2]},
      {nullptr, &model->factors[0], &model->factors[1]},
  };
  std::vector<int> kernel_ids;
  for (int mode = 0; mode < 3; ++mode) {
    const auto& s = slots[static_cast<std::size_t>(mode)];
    kernel_ids.push_back(session.prepare(
        exprs[static_cast<std::size_t>(mode)], {s.begin() + 1, s.end()}));
  }
  // All-mode TTMc for the core.
  const int core_id = session.prepare(
      "G(a,b,c) = T(i0,i1,i2) * U0(i0,a) * U1(i1,b) * U2(i2,c)",
      {&model->factors[0], &model->factors[1], &model->factors[2]});

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int mode = 0; mode < 3; ++mode) {
      // Y has dims (I_mode, r_a, r_b) with (a, b) the other two ranks in
      // ascending mode order.
      const int ma = mode == 0 ? 1 : 0;
      const int mb = mode == 2 ? 1 : 2;
      DenseTensor y({tensor.dim(mode), r[static_cast<std::size_t>(ma)],
                     r[static_cast<std::size_t>(mb)]});
      report.seconds_in_kernels +=
          timed_run(session, kernel_ids[static_cast<std::size_t>(mode)],
                    slots[static_cast<std::size_t>(mode)], &y);
      // Matricized Y is (I x ra*rb) row-major. One orthogonal-iteration
      // step toward the leading left subspace (stand-in for the SVD).
      const std::int64_t cols =
          r[static_cast<std::size_t>(ma)] * r[static_cast<std::size_t>(mb)];
      DenseTensor ymat({tensor.dim(mode), cols});
      for (std::int64_t i = 0; i < ymat.size(); ++i) {
        ymat.data()[i] = y.data()[i];
      }
      DenseTensor& u = model->factors[static_cast<std::size_t>(mode)];
      // z = Y^T u ; u_new = orth(Y z)
      DenseTensor z({cols, r[static_cast<std::size_t>(mode)]});
      xgemm(cols, r[static_cast<std::size_t>(mode)], tensor.dim(mode), 1.0,
            ymat.data(), 1, cols, u.data(), r[static_cast<std::size_t>(mode)],
            1, z.data(), r[static_cast<std::size_t>(mode)], 1);
      DenseTensor u_new = matmul(ymat, z);
      orthonormalize_columns(&u_new);
      u = std::move(u_new);
    }
    report.seconds_in_kernels += timed_run(
        session, core_id,
        {nullptr, &model->factors[0], &model->factors[1], &model->factors[2]},
        &model->core);
    report.core_norms.push_back(model->core.norm());
    ++report.sweeps;
  }
  return report;
}

CompletionReport cp_complete(const CooTensor& observed, CpModel* model,
                             int epochs, double step,
                             const PlannerOptions& options) {
  SPTTN_CHECK(observed.is_sorted());
  const int d = observed.order();
  CompletionReport report;

  // Two sessions over the observation pattern: one with unit values (model
  // evaluation via TTTP) and one whose values are rewritten to the
  // residual each epoch (gradient MTTKRPs). They share every cached plan —
  // plans depend only on structure, and both bind the same structure.
  CooTensor ones = observed;
  for (double& v : ones.values()) v = 1.0;
  Session eval_session(ones, options);
  Session grad_session(ones, options);

  std::vector<const DenseTensor*> tttp_slots{nullptr};
  for (int m = 0; m < d; ++m) {
    tttp_slots.push_back(&model->factors[static_cast<std::size_t>(m)]);
  }
  const int tttp_id = eval_session.prepare(
      tttp_expr(d), {tttp_slots.begin() + 1, tttp_slots.end()});

  std::vector<int> grad_ids;
  std::vector<std::vector<const DenseTensor*>> grad_slots(
      static_cast<std::size_t>(d));
  for (int mode = 0; mode < d; ++mode) {
    auto& s = grad_slots[static_cast<std::size_t>(mode)];
    s.push_back(nullptr);
    for (int m = 0; m < d; ++m) {
      if (m != mode) s.push_back(&model->factors[static_cast<std::size_t>(m)]);
    }
    grad_ids.push_back(
        grad_session.prepare(mttkrp_expr(d, mode), {s.begin() + 1, s.end()}));
  }

  std::vector<double> model_vals(static_cast<std::size_t>(observed.nnz()));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Model values on the pattern (TTTP with unit sparse values).
    report.seconds_in_kernels +=
        timed_run(eval_session, tttp_id, tttp_slots, nullptr, model_vals);
    double se = 0;
    auto resid_vals = grad_session.values();
    for (std::int64_t e = 0; e < observed.nnz(); ++e) {
      const double resid =
          observed.value(e) - model_vals[static_cast<std::size_t>(e)];
      resid_vals[static_cast<std::size_t>(e)] = resid;
      se += resid * resid;
    }
    report.rmse.push_back(
        std::sqrt(se / static_cast<double>(observed.nnz())));
    // Gradient step per factor: MTTKRP of the residual values in place on
    // the session's CSF (structure unchanged, so every cached plan holds).
    for (int mode = 0; mode < d; ++mode) {
      DenseTensor g({observed.dim(mode), model->rank});
      report.seconds_in_kernels +=
          timed_run(grad_session, grad_ids[static_cast<std::size_t>(mode)],
                    grad_slots[static_cast<std::size_t>(mode)], &g);
      DenseTensor& u = model->factors[static_cast<std::size_t>(mode)];
      for (std::int64_t i = 0; i < u.size(); ++i) {
        u.data()[i] += step * g.data()[i];
      }
    }
    ++report.epochs;
  }
  return report;
}

}  // namespace spttn
