#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/plan_verifier.hpp"
#include "core/planner.hpp"
#include "dist/comm_backend.hpp"
#include "dist/dist_spttn.hpp"
#include "exec/reference.hpp"
#include "exec/spttn.hpp"
#include "serve/kernel_cache.hpp"
#include "serve/session.hpp"
#include "tensor/generate.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using spttn::BoundKernel;
using spttn::CooTensor;
using spttn::CsfTensor;
using spttn::DenseTensor;
using spttn::DistResult;
using spttn::DistSpttn;
using spttn::ExecArgs;
using spttn::ExecStats;
using spttn::FusedExecutor;
using spttn::Kernel;
using spttn::KernelCache;
using spttn::Plan;
using spttn::PlannerOptions;
using spttn::Rng;
using spttn::Session;
using spttn::ShmemComm;
using spttn::SparsityStats;
using spttn::strfmt;

/// Set-up repetitions per run; setup_s is their median. Single set-ups
/// vary by about fifteen percent within a run on a shared host.
constexpr int kSetupReps = 5;
/// Repetitions of the per-layer call sequence in a traced run.
constexpr int kLayerReps = 3;
constexpr int kDistRanks = 4;
/// cold_nips4 checks the first op and then one op in this many (seeded).
constexpr std::uint64_t kColdCheckEvery = 8;
/// Differential tolerance, relative to the reference's largest magnitude.
constexpr double kRelTol = 1e-9;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct KernelSpec {
  std::string name;
  std::string expr;
  std::int64_t rank = 0;  ///< extent of every dense-only index
};

/// A kernel's output: dense, or values on the sparse operand's pattern.
struct Output {
  bool is_sparse = false;
  DenseTensor dense;
  std::vector<double> sparse;

  DenseTensor* dense_ptr() { return is_sparse ? nullptr : &dense; }
  std::span<double> sparse_span() { return sparse; }
  std::span<const double> values() const {
    return is_sparse ? std::span<const double>(sparse) : dense.values();
  }
};

Output make_output(const Kernel& k, std::int64_t nnz) {
  Output out;
  out.is_sparse = k.output_is_sparse();
  if (out.is_sparse) {
    out.sparse.assign(static_cast<std::size_t>(nnz), 0.0);
  } else {
    std::vector<std::int64_t> dims;
    for (int id : k.output().idx) dims.push_back(k.index_dim(id));
    out.dense = DenseTensor(dims);
  }
  return out;
}

std::vector<const DenseTensor*> ptrs(const std::vector<DenseTensor>& v) {
  std::vector<const DenseTensor*> out;
  for (const DenseTensor& t : v) out.push_back(&t);
  return out;
}

/// Dense factors of `spec` over a sparse tensor with mode sizes `dims`:
/// sparse indices take the mode extent, every other index `spec.rank`.
std::vector<DenseTensor> make_factors(const KernelSpec& spec,
                                      const std::vector<std::int64_t>& dims,
                                      Rng& rng) {
  const Kernel k = Kernel::parse(spec.expr);
  std::vector<DenseTensor> out;
  for (int i = 0; i < k.num_inputs(); ++i) {
    if (i == k.sparse_input()) continue;
    std::vector<std::int64_t> fd;
    for (int id : k.input(i).idx) {
      const int level = k.csf_level(id);
      fd.push_back(level >= 0 ? dims[static_cast<std::size_t>(level)]
                              : spec.rank);
    }
    out.push_back(spttn::random_dense(fd, rng));
  }
  return out;
}

/// reference_execute on a seeded sample of output slices. The output's
/// leading index is a sparse mode for every kernel here; the oracle runs on
/// the sub-tensor holding every nonzero of the sampled slices, which makes
/// those slices of its output exact while costing a small fraction of a
/// full reference run (the full one takes seconds for TTMc at these sizes).
struct SampledRef {
  /// (index into the checked output, index into `out`) for every value the
  /// check compares.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  Output out;
};

SampledRef sampled_reference(const KernelSpec& spec, const CooTensor& sorted,
                             const std::vector<DenseTensor>& factors,
                             Rng& rng) {
  // Slices are drawn through random nonzeros (so none is empty) until the
  // sample holds kCheckNnz nonzeros or kMaxDraws slices.
  constexpr std::int64_t kCheckNnz = 1000;
  constexpr int kMaxDraws = 8;
  const Kernel parsed = Kernel::parse(spec.expr);
  const int mode = parsed.csf_level(parsed.output().idx.at(0));
  if (mode < 0) {
    throw std::logic_error(spec.name + ": leading output index is dense");
  }
  std::vector<std::int64_t> slice_nnz(
      static_cast<std::size_t>(sorted.dim(mode)), 0);
  for (std::int64_t e = 0; e < sorted.nnz(); ++e) {
    ++slice_nnz[static_cast<std::size_t>(sorted.coord(e)[mode])];
  }
  std::vector<char> picked(slice_nnz.size(), 0);
  std::int64_t sampled = 0;
  for (int d = 0; d < kMaxDraws && sampled < kCheckNnz; ++d) {
    const auto e = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(sorted.nnz())));
    const auto x = static_cast<std::size_t>(sorted.coord(e)[mode]);
    if (!picked[x]) sampled += slice_nnz[x];
    picked[x] = 1;
  }
  CooTensor sub(sorted.dims());
  std::vector<std::int64_t> entries;  // global entry id of each sub entry
  for (std::int64_t e = 0; e < sorted.nnz(); ++e) {
    if (picked[static_cast<std::size_t>(sorted.coord(e)[mode])]) {
      sub.push_back(sorted.coord(e), sorted.value(e));
      entries.push_back(e);
    }
  }
  sub.sort_dedup();  // already in order; marks it sorted

  std::vector<const DenseTensor*> slots;
  const Kernel k =
      spttn::bind_kernel_dims(spec.expr, sub, ptrs(factors), &slots);
  SampledRef ref;
  ref.out = make_output(k, sub.nnz());
  spttn::reference_execute(k, sub, slots, ref.out.dense_ptr(),
                           ref.out.sparse_span());
  if (ref.out.is_sparse) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      ref.pairs.push_back({entries[j], static_cast<std::int64_t>(j)});
    }
  } else {
    const std::int64_t stride = ref.out.dense.stride(0);
    for (std::int64_t x = 0; x < sorted.dim(mode); ++x) {
      if (!picked[static_cast<std::size_t>(x)]) continue;
      for (std::int64_t i = x * stride; i < (x + 1) * stride; ++i) {
        ref.pairs.push_back({i, i});
      }
    }
  }
  return ref;
}

/// Every sampled value finite and max |got - ref| within the differential
/// tolerance of the sampled reference's magnitude.
bool matches(const Output& got, const SampledRef& ref) {
  const auto a = got.values();
  const auto b = ref.out.values();
  double scale = 1.0;
  double diff = 0.0;
  for (const auto& [g, r] : ref.pairs) {
    if (g >= static_cast<std::int64_t>(a.size())) return false;
    const double x = a[static_cast<std::size_t>(g)];
    const double y = b[static_cast<std::size_t>(r)];
    if (!std::isfinite(x)) return false;
    scale = std::max(scale, std::abs(y));
    diff = std::max(diff, std::abs(x - y));
  }
  return diff <= kRelTol * scale;
}

/// `t` as a request delivers it: entries in a random order and, with
/// `relabel`, every mode's indices renamed by a random permutation, which
/// makes a new structure with the same fiber statistics.
CooTensor delivered(const CooTensor& t, Rng& rng, bool relabel) {
  std::vector<std::vector<std::int64_t>> names(
      static_cast<std::size_t>(t.order()));
  for (int m = 0; m < t.order(); ++m) {
    auto& n = names[static_cast<std::size_t>(m)];
    n.resize(static_cast<std::size_t>(t.dim(m)));
    std::iota(n.begin(), n.end(), 0);
    if (relabel) rng.shuffle(n);
  }
  std::vector<std::int64_t> perm(static_cast<std::size_t>(t.nnz()));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  CooTensor out(t.dims());
  std::vector<std::int64_t> c(static_cast<std::size_t>(t.order()));
  for (const std::int64_t e : perm) {
    const auto src = t.coord(e);
    for (std::size_t m = 0; m < c.size(); ++m) {
      c[m] = names[m][static_cast<std::size_t>(src[m])];
    }
    out.push_back(c, t.value(e));
  }
  return out;
}

/// A FROSTT-like preset (tensor/generate.hpp) at `scale` with exactly the
/// preset's expected nonzero count. make_preset_tensor's nnz varies by
/// about ten percent between seeds (a few hundred fibers with geometric
/// fan-outs), which would show as spread between runs; here fibers are
/// grown from a quarter more roots than make_preset_tensor uses, on the
/// same scaled dims and fan-outs, and the sorted tensor is cut after the
/// target count.
CooTensor preset_exact(const std::string& name, double scale, Rng& rng) {
  const spttn::TensorPreset& p = spttn::find_preset(name);
  const double dim_scale = std::sqrt(scale);
  std::vector<std::int64_t> dims;
  for (const std::int64_t d : p.dims) {
    dims.push_back(std::max<std::int64_t>(
        4, std::llround(static_cast<double>(d) * dim_scale)));
  }
  std::vector<double> fanout;
  double per_root = 1.0;
  for (std::size_t l = 0; l < p.fanout.size(); ++l) {
    fanout.push_back(
        std::min(p.fanout[l], static_cast<double>(dims[l + 1]) * 0.8));
    per_root *= fanout.back();
  }
  const auto target = std::llround(static_cast<double>(p.nnz) * scale);
  double roots = 1.25 * static_cast<double>(target) / per_root;
  for (;;) {
    const CooTensor t = spttn::hierarchical_coo(
        dims, std::min<std::int64_t>(dims[0], std::llround(roots)), fanout,
        rng);
    if (t.nnz() >= target) {
      CooTensor cut(dims);
      for (std::int64_t e = 0; e < target; ++e) {
        cut.push_back(t.coord(e), t.value(e));
      }
      return cut;
    }
    if (std::llround(roots) >= dims[0]) {
      throw std::runtime_error("preset " + name + " cannot reach its nnz");
    }
    roots *= 1.25;
  }
}

/// One generated sparse tensor with the kernels served over it.
struct TensorJob {
  CooTensor unsorted;
  std::vector<KernelSpec> specs;
  std::vector<std::vector<DenseTensor>> factors;  ///< one set per spec
  std::vector<SampledRef> refs;                   ///< one per spec

  /// `delivered` is the unsorted tensor a request starts from.
  TensorJob(CooTensor delivered, std::vector<KernelSpec> kernel_specs,
            Rng& rng)
      : unsorted(std::move(delivered)), specs(std::move(kernel_specs)) {
    for (const KernelSpec& s : specs) {
      factors.push_back(make_factors(s, unsorted.dims(), rng));
    }
  }

  /// Compute the oracle outputs (sorted = this job's tensor, sorted).
  void compute_refs(const CooTensor& sorted, Rng& rng) {
    refs.clear();
    for (std::size_t k = 0; k < specs.size(); ++k) {
      refs.push_back(sampled_reference(specs[k], sorted, factors[k], rng));
    }
  }
};

/// A tensor bound for serving: sorted COO, its Session and prepared ids.
/// Members are destroyed in reverse order: the session before the tensor
/// and cache it points into.
struct Served {
  std::unique_ptr<CooTensor> coo;
  KernelCache* cache = nullptr;
  std::unique_ptr<Session> session;
  std::vector<int> ids;
  std::vector<Output> outs;  ///< one per prepared kernel
};

/// Set-up of one tensor: sort `unsorted` (a copy of the job's delivered
/// tensor, made by the caller outside the clock), bind, prepare every kernel.
Served bind_and_prepare(std::unique_ptr<CooTensor> unsorted,
                        const TensorJob& job, KernelCache* cache,
                        const PlannerOptions& opts, Tracer* tr,
                        std::int64_t rid) {
  Served s;
  s.coo = std::move(unsorted);
  s.cache = cache;
  {
    Scope span(tr, "tensor.sort_dedup", rid);
    s.coo->sort_dedup();
  }
  {
    Scope span(tr, "serve.bind", rid);
    s.session = std::make_unique<Session>(*s.coo, opts, cache);
  }
  for (std::size_t k = 0; k < job.specs.size(); ++k) {
    Scope span(tr, "serve.prepare", rid);
    s.ids.push_back(
        s.session->prepare(job.specs[k].expr, ptrs(job.factors[k])));
  }
  return s;
}

void allocate_outputs(Served* s) {
  s->outs.clear();
  for (const int id : s->ids) {
    s->outs.push_back(make_output(s->session->kernel(id), s->coo->nnz()));
  }
}

/// Per-layer observations of a traced run (beyond span durations).
struct LayerAcc {
  double nnz = 0;
  double paths_total = 0;
  double paths_searched = 0;
  double plan_flops = 0;
  int lowered_regions = 0;
  int total_regions = 0;
  int threads_used = 0;
  int nested_regions = 0;
  double partition_imbalance = 1.0;
  double program_bytes = 0;
  std::vector<std::string> kernel_names;
  std::vector<double> kernel_flops;
  std::vector<std::vector<double>> kernel_run_ms;  ///< per kernel, per rep
  KernelCache::Counters cache;
  std::vector<double> queue_wait_ms;
  std::vector<double> dist_max_local_ms;
  std::vector<double> dist_allgather_ms;
  std::vector<double> dist_allreduce_ms;
  std::vector<double> dist_comm_bytes;
  std::vector<double> dist_imbalance;
  std::vector<double> dist_overhead_ms;

  double exec_run_ms() const {
    double sum = 0;
    for (const auto& v : kernel_run_ms) sum += median(v);
    return sum;
  }

  void add_dist(const DistResult& res, double wall_ms) {
    const double comm_ms = res.comm_seconds * 1e3;
    dist_max_local_ms.push_back(res.max_local_seconds * 1e3);
    dist_allgather_ms.push_back(
        res.breakdown(spttn::CollectiveKind::kAllgather).seconds * 1e3);
    dist_allreduce_ms.push_back(
        res.breakdown(spttn::CollectiveKind::kAllreduce).seconds * 1e3);
    dist_comm_bytes.push_back(static_cast<double>(res.comm_bytes));
    dist_imbalance.push_back(res.imbalance);
    dist_overhead_ms.push_back(wall_ms - res.max_local_seconds * 1e3 -
                               comm_ms);
  }
};

/// A generated tensor's job together with its sorted form.
using JobTensor = std::pair<const TensorJob*, const CooTensor*>;

/// The traced per-layer walk: the public calls that Session, the cache and
/// the executor make internally, made one by one on the workload's own
/// sorted tensors so each layer gets its own span (sorting, binding and
/// preparing already have spans in the set-up or the ops). Repeated
/// kLayerReps times, one request id per repetition; per-kernel ExecStats
/// and plan counts come from the first repetition.
void walk_layers(Tracer& tr, const std::vector<JobTensor>& jobs, int threads,
                 LayerAcc* acc) {
  const PlannerOptions opts;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const std::int64_t rid = tr.new_request();
    Scope root(&tr, "layers", rid);
    std::size_t kernel_slot = 0;
    for (const auto& [job, sorted] : jobs) {
      const CooTensor& coo = *sorted;
      std::optional<CsfTensor> csf;
      {
        Scope span(&tr, "tensor.csf_build", rid);
        csf.emplace(coo);
      }
      {
        Scope span(&tr, "tensor.structure_hash", rid);
        (void)coo.structure_hash();
      }
      std::optional<SparsityStats> stats;
      {
        Scope span(&tr, "core.stats", rid);
        stats.emplace(SparsityStats::from_coo(coo));
      }
      if (rep == 0) acc->nnz += static_cast<double>(coo.nnz());
      for (std::size_t k = 0; k < job->specs.size(); ++k, ++kernel_slot) {
        std::vector<const DenseTensor*> slots;
        const Kernel kernel = spttn::bind_kernel_dims(
            job->specs[k].expr, coo, ptrs(job->factors[k]), &slots);
        std::optional<Plan> plan;
        {
          Scope span(&tr, "core.make_plan", rid);
          plan.emplace(spttn::make_plan(kernel, *stats, opts));
        }
        {
          Scope span(&tr, "analysis.verify_plan", rid);
          const spttn::VerifyReport report =
              spttn::verify_plan(kernel, *plan, opts, &*stats);
          if (!report.ok()) {
            throw std::runtime_error("verify_plan rejected " +
                                     job->specs[k].name + ": " +
                                     report.to_string());
          }
        }
        std::optional<FusedExecutor> exec;
        {
          Scope span(&tr, "exec.compile", rid);
          exec.emplace(kernel, *plan);
        }
        Output out = make_output(kernel, coo.nnz());
        ExecStats stats_out;
        ExecArgs args;
        args.sparse = &*csf;
        args.dense = slots;
        args.out_dense = out.dense_ptr();
        args.out_sparse = out.sparse_span();
        args.num_threads = threads;
        exec->execute(args);  // warm: first touch of buffers and output
        args.stats = &stats_out;
        const std::int64_t t0 = tr.now_ns();
        {
          Scope span(&tr, "exec.execute", rid);
          exec->execute(args);
        }
        const double run_ms = static_cast<double>(tr.now_ns() - t0) * 1e-6;
        if (rep == 0) {
          acc->kernel_names.push_back(job->specs[k].name);
          acc->kernel_flops.push_back(plan->flops);
          acc->kernel_run_ms.emplace_back();
          acc->paths_total += plan->paths_total;
          acc->paths_searched += plan->paths_searched;
          acc->plan_flops += plan->flops;
          acc->lowered_regions += stats_out.lowered_regions;
          acc->total_regions += stats_out.total_regions;
          acc->threads_used =
              std::max(acc->threads_used, stats_out.threads_used);
          acc->nested_regions += stats_out.nested_regions;
          acc->partition_imbalance =
              std::max(acc->partition_imbalance, stats_out.partition_imbalance);
          acc->program_bytes += static_cast<double>(exec->program_bytes());
        }
        acc->kernel_run_ms[kernel_slot].push_back(run_ms);
      }
    }
  }
}

/// One DistSpttn::run over the shared-memory transport with concurrent
/// single-threaded ranks; returns its wall time (ms).
double dist_run(const DistSpttn& dist, ShmemComm& comm, Output* out,
                DistResult* res) {
  const auto t0 = Clock::now();
  *res = dist.run(comm, PlannerOptions{}, out->dense_ptr(),
                  out->sparse_span(), /*local_threads=*/1,
                  /*concurrent_ranks=*/true);
  return ms_between(t0, Clock::now());
}

/// The dist layer on a workload that does not itself run distributed: the
/// workload's first kernel once per repetition through DistSpttn, so every
/// traced run reports the dist metrics for its own inputs.
void dist_leg(Tracer& tr, const TensorJob& job, const CooTensor& coo,
              LayerAcc* acc) {
  const BoundKernel bound =
      spttn::bind(job.specs[0].expr, coo, ptrs(job.factors[0]));
  const DistSpttn dist(bound, kDistRanks);
  ShmemComm comm(kDistRanks);
  Output out = make_output(bound.kernel, coo.nnz());
  for (int rep = 0; rep <= kLayerReps; ++rep) {
    const std::int64_t rid = tr.new_request();
    DistResult res;
    double wall = 0;
    {
      Scope span(&tr, "dist.run", rid);
      wall = dist_run(dist, comm, &out, &res);
    }
    if (rep > 0) acc->add_dist(res, wall);  // rep 0 plans and warms
  }
}

std::vector<Metric> layer_metrics(const Tracer& tr, const LayerAcc& acc,
                                  const WorkloadRun& run) {
  const auto span_ms = [&](const char* name) {
    const std::vector<double> v = per_request_ms(tr.spans(), name);
    return v.empty() ? 0.0 : median(v);
  };
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  const double run_ms = acc.exec_run_ms();
  const double probes =
      static_cast<double>(acc.cache.hits + acc.cache.misses);
  const double p50_traced = med(run.traced_op_ms);
  const double p50_untraced = med(run.op_ms);
  return {
      {"tensor.sort_ms", span_ms("tensor.sort_dedup"), "ms"},
      {"tensor.csf_build_ms", span_ms("tensor.csf_build"), "ms"},
      {"tensor.structure_hash_ms", span_ms("tensor.structure_hash"), "ms"},
      {"tensor.nnz", acc.nnz, "count"},
      {"core.stats_ms", span_ms("core.stats"), "ms"},
      {"core.plan_ms", span_ms("core.make_plan"), "ms"},
      {"core.paths_total", acc.paths_total, "count"},
      {"core.paths_searched", acc.paths_searched, "count"},
      {"core.plan_flops", acc.plan_flops, "flop"},
      {"analysis.verify_ms", span_ms("analysis.verify_plan"), "ms"},
      {"exec.compile_ms", span_ms("exec.compile"), "ms"},
      {"exec.run_ms", run_ms, "ms"},
      {"exec.gflops", run_ms > 0 ? acc.plan_flops / run_ms * 1e-6 : 0.0,
       "GFLOP/s"},
      {"exec.lowered_frac",
       acc.total_regions > 0 ? static_cast<double>(acc.lowered_regions) /
                                   acc.total_regions
                             : 0.0,
       "ratio"},
      {"exec.partition_imbalance", acc.partition_imbalance, "ratio"},
      {"exec.threads_used", static_cast<double>(acc.threads_used), "count"},
      {"exec.nested_regions", static_cast<double>(acc.nested_regions),
       "count"},
      {"exec.program_bytes", acc.program_bytes, "B"},
      {"serve.bind_ms", span_ms("serve.bind"), "ms"},
      {"serve.prepare_ms", span_ms("serve.prepare"), "ms"},
      {"serve.cache_hits", static_cast<double>(acc.cache.hits), "count"},
      {"serve.cache_misses", static_cast<double>(acc.cache.misses), "count"},
      {"serve.planned", static_cast<double>(acc.cache.planned), "count"},
      {"serve.evictions", static_cast<double>(acc.cache.evictions), "count"},
      {"serve.bytes_resident", static_cast<double>(acc.cache.bytes_resident),
       "B"},
      {"serve.hit_ratio",
       probes > 0 ? static_cast<double>(acc.cache.hits) / probes : 0.0,
       "ratio"},
      {"serve.queue_wait_ms_p50", med(acc.queue_wait_ms), "ms"},
      {"dist.max_local_ms", med(acc.dist_max_local_ms), "ms"},
      {"dist.allgather_ms", med(acc.dist_allgather_ms), "ms"},
      {"dist.allreduce_ms", med(acc.dist_allreduce_ms), "ms"},
      {"dist.comm_bytes", med(acc.dist_comm_bytes), "B"},
      {"dist.imbalance", med(acc.dist_imbalance), "ratio"},
      {"dist.overhead_ms", med(acc.dist_overhead_ms), "ms"},
      {"pool.lanes",
       static_cast<double>(spttn::ThreadPool::global().size()), "count"},
      {"trace.overhead_ms", p50_traced - p50_untraced, "ms"},
  };
}

void kernel_notes(const LayerAcc& acc, std::vector<std::string>* notes) {
  for (std::size_t k = 0; k < acc.kernel_names.size(); ++k) {
    const double ms = median(acc.kernel_run_ms[k]);
    notes->push_back(strfmt(
        "kernel %-10s exec.run_ms %9.3f  plan_flops %.4g  exec.gflops %.3f",
        acc.kernel_names[k].c_str(), ms, acc.kernel_flops[k],
        acc.kernel_flops[k] / ms * 1e-6));
  }
}

/// In a traced run every other op is traced, so the tracing overhead is
/// measured inside one process (traced against untraced p50).
Tracer* tracer_for_op(Tracer* tr, std::int64_t op) {
  return tr != nullptr && op % 2 == 0 ? tr : nullptr;
}

void record_op(WorkloadRun* run, const Tracer* traced, double ms) {
  (traced != nullptr ? run->traced_op_ms : run->op_ms).push_back(ms);
}

int lanes() { return spttn::ThreadPool::global().size(); }

/// Traced-run epilogue shared by every workload: the per-layer walk, the
/// queue-wait estimate, and the metrics. `exec_phase` holds, per traced
/// op, the latency of its execution phase and the index of the kernel it
/// ran (-1: every kernel of the walk once).
void finish_trace(Tracer& tr, const std::vector<JobTensor>& jobs,
                  int threads, LayerAcc* acc,
                  const std::vector<std::pair<double, int>>& exec_phase,
                  WorkloadRun* run) {
  walk_layers(tr, jobs, threads, acc);
  for (const auto& [ms, kernel] : exec_phase) {
    const double alone =
        kernel < 0
            ? acc->exec_run_ms()
            : median(acc->kernel_run_ms[static_cast<std::size_t>(kernel)]);
    acc->queue_wait_ms.push_back(ms - alone);
  }
  run->layers = layer_metrics(tr, *acc, *run);
  kernel_notes(*acc, &run->notes);
}

// ---------------------------------------------------------------- kernels

std::vector<KernelSpec> order4_specs() {
  return {
      {"mttkrp4", "A(i,r) = T(i,j,k,l)*B(j,r)*C(k,r)*D(l,r)", 8},
      {"ttmc4", "S(i,r,s,t) = T(i,j,k,l)*U(j,r)*V(k,s)*W(l,t)", 8},
      {"tttp4", "S(i,j,k,l) = T(i,j,k,l)*U(i,r)*V(j,r)*W(k,r)*X(l,r)", 8},
  };
}

/// The per-mode MTTKRPs that apps::cp_als issues on an order-3 tensor.
std::vector<KernelSpec> als_specs() {
  return {
      {"mttkrp.m0", "M(i0,r) = T(i0,i1,i2) * U1(i1,r) * U2(i2,r)", 32},
      {"mttkrp.m1", "M(i1,r) = T(i0,i1,i2) * U0(i0,r) * U2(i2,r)", 32},
      {"mttkrp.m2", "M(i2,r) = T(i0,i1,i2) * U0(i0,r) * U1(i1,r)", 32},
  };
}

std::vector<KernelSpec> serve3_specs() {
  return {
      {"mttkrp3", "A(i,r) = T(i,j,k)*B(j,r)*C(k,r)", 16},
      {"ttmc3", "S(i,r,s) = T(i,j,k)*U(j,r)*V(k,s)", 16},
      {"tttp3", "S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)", 16},
  };
}

/// mttkrp4 and ttmc4.
std::vector<KernelSpec> serve4_specs() {
  std::vector<KernelSpec> specs = order4_specs();
  specs.resize(2);
  return specs;
}

Rng workload_rng(const Options& o) { return Rng(spttn::hash_mix(o.seed)); }

bool deadline_passed(Clock::time_point start, const Options& o) {
  return ms_between(start, Clock::now()) >= o.seconds * 1e3;
}

// -------------------------------------------------------------- workloads

/// Each op is a new order-4 nips-like structure, delivered unsorted: sort,
/// bind, prepare three kernels (misses on one long-lived cache that fills
/// and evicts), run each once.
WorkloadRun cold_nips4(const Options& o, Tracer* tr) {
  WorkloadRun run;
  const PlannerOptions opts;
  KernelCache::Config config;
  config.capacity = 4;
  KernelCache cache(config);
  std::vector<std::pair<double, int>> exec_phase;
  std::unique_ptr<TensorJob> last;
  std::unique_ptr<CooTensor> last_sorted;  // the last op's tensor, sorted
  double busy_ms = 0;
  std::int64_t done = 0;
  Rng base_rng = workload_rng(o);
  const CooTensor base = preset_exact("nips", 0.05, base_rng);
  reset_peak_rss();

  const auto loop_start = Clock::now();
  for (std::int64_t op = 0; !deadline_passed(loop_start, o); ++op) {
    Rng rng(spttn::hash_mix(o.seed) ^
            spttn::hash_mix(static_cast<std::uint64_t>(op) + 1));
    auto job = std::make_unique<TensorJob>(delivered(base, rng, true),
                                           order4_specs(), rng);
    // Outputs are sized from the delivered tensor (generated without
    // duplicates, so sorting keeps its nnz) before the clock starts.
    std::vector<Output> outs;
    for (std::size_t k = 0; k < job->specs.size(); ++k) {
      outs.push_back(make_output(
          spttn::bind_kernel_dims(job->specs[k].expr, job->unsorted,
                                  ptrs(job->factors[k]), nullptr),
          job->unsorted.nnz()));
    }
    Tracer* t = tracer_for_op(tr, op);
    const std::int64_t rid = t != nullptr ? t->new_request() : -1;
    ++run.attempted;
    try {
      Served s;
      auto coo = std::make_unique<CooTensor>(std::move(job->unsorted));
      const auto t0 = Clock::now();
      Clock::time_point t_ready;
      {
        Scope span(t, "op", rid);
        s = bind_and_prepare(std::move(coo), *job, &cache, opts, t, rid);
        t_ready = Clock::now();
        for (std::size_t k = 0; k < s.ids.size(); ++k) {
          Scope run_span(t, "serve.run", rid);
          s.session->run(s.ids[k], outs[k].dense_ptr(), outs[k].sparse_span(),
                         lanes());
        }
      }
      const auto t1 = Clock::now();
      record_op(&run, t, ms_between(t0, t1));
      if (t == nullptr) run.setup_s.push_back(ms_between(t0, t_ready) * 1e-3);
      if (t != nullptr) exec_phase.push_back({ms_between(t_ready, t1), -1});
      busy_ms += ms_between(t0, t1);
      ++done;
      // A seeded sample of requests is checked against the oracle.
      if (op == 0 || rng.next_below(kColdCheckEvery) == 0) {
        job->compute_refs(*s.coo, rng);
        bool ok = true;
        for (std::size_t k = 0; k < outs.size(); ++k) {
          ok = ok && matches(outs[k], job->refs[k]);
        }
        if (!ok) ++run.failed;
      }
      s.session.reset();
      last_sorted = std::move(s.coo);
      last = std::move(job);
    } catch (const std::exception& e) {
      ++run.failed;
      run.notes.push_back(std::string("op failed: ") + e.what());
    }
  }
  run.ops_per_s = static_cast<double>(done) / (busy_ms * 1e-3);

  if (tr != nullptr && last != nullptr) {
    LayerAcc acc;
    acc.cache = cache.counters();
    dist_leg(*tr, *last, *last_sorted, &acc);
    finish_trace(*tr, {{last.get(), last_sorted.get()}}, lanes(), &acc,
                 exec_phase, &run);
  }
  return run;
}

/// One nell-2-like tensor; each op is one ALS sweep's three per-mode
/// MTTKRPs through Session::run_with on every pool lane.
WorkloadRun als_nell2(const Options& o, Tracer* tr) {
  WorkloadRun run;
  const PlannerOptions opts;
  Rng rng = workload_rng(o);
  TensorJob job(
      delivered(preset_exact("nell-2", 0.02, rng), rng, false),
      als_specs(), rng);

  std::unique_ptr<KernelCache> cache;
  Served s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Served{};
    reset_peak_rss();
    cache = std::make_unique<KernelCache>();
    const std::int64_t rid = tr != nullptr ? tr->new_request() : -1;
    auto coo = std::make_unique<CooTensor>(job.unsorted);
    const auto t0 = Clock::now();
    s = bind_and_prepare(std::move(coo), job, cache.get(), opts, tr, rid);
    run.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    run.setup_peak_rss_mb.push_back(peak_rss_mb());
  }
  reset_peak_rss();
  allocate_outputs(&s);
  job.compute_refs(*s.coo, rng);
  std::vector<std::vector<const DenseTensor*>> slots(job.specs.size());
  for (std::size_t k = 0; k < job.specs.size(); ++k) {
    (void)spttn::bind_kernel_dims(job.specs[k].expr, *s.coo,
                                  ptrs(job.factors[k]), &slots[k]);
  }

  std::vector<std::pair<double, int>> exec_phase;
  double busy_ms = 0;
  std::int64_t done = 0;
  const auto loop_start = Clock::now();
  for (std::int64_t op = 0; !deadline_passed(loop_start, o); ++op) {
    Tracer* t = tracer_for_op(tr, op);
    const std::int64_t rid = t != nullptr ? t->new_request() : -1;
    ++run.attempted;
    try {
      const auto t0 = Clock::now();
      {
        Scope span(t, "op", rid);
        for (std::size_t k = 0; k < s.ids.size(); ++k) {
          Scope run_span(t, "serve.run_with", rid);
          s.session->run_with(s.ids[k], slots[k], s.outs[k].dense_ptr(), {},
                              lanes());
        }
      }
      const double ms = ms_between(t0, Clock::now());
      record_op(&run, t, ms);
      if (t != nullptr) exec_phase.push_back({ms, -1});
      busy_ms += ms;
      ++done;
      bool ok = true;
      for (std::size_t k = 0; k < s.outs.size(); ++k) {
        ok = ok && matches(s.outs[k], job.refs[k]);
      }
      if (!ok) ++run.failed;
    } catch (const std::exception& e) {
      ++run.failed;
      run.notes.push_back(std::string("op failed: ") + e.what());
    }
  }
  run.ops_per_s = static_cast<double>(done) / (busy_ms * 1e-3);

  if (tr != nullptr) {
    LayerAcc acc;
    acc.cache = cache->counters();
    dist_leg(*tr, job, *s.coo, &acc);
    finish_trace(*tr, {{&job, s.coo.get()}}, lanes(), &acc, exec_phase, &run);
  }
  return run;
}

/// Closed loop of four outstanding Session::submit requests rotating over
/// five kernels on two tensors. Each request computes its kernel
/// signature, probes the cache (a hit is required) and submits.
WorkloadRun serve_mix(const Options& o, Tracer* tr) {
  constexpr int kOutstanding = 4;
  WorkloadRun run;
  const PlannerOptions opts;
  Rng rng = workload_rng(o);
  TensorJob job3(
      delivered(spttn::random_coo({256, 256, 256}, 150000, rng), rng, false),
      serve3_specs(), rng);
  TensorJob job4(
      delivered(spttn::random_coo({64, 64, 64, 64}, 150000, rng), rng, false),
      serve4_specs(), rng);

  std::unique_ptr<KernelCache> cache;
  Served s3;
  Served s4;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s3 = Served{};
    s4 = Served{};
    reset_peak_rss();
    cache = std::make_unique<KernelCache>();
    const std::int64_t rid = tr != nullptr ? tr->new_request() : -1;
    auto coo3 = std::make_unique<CooTensor>(job3.unsorted);
    auto coo4 = std::make_unique<CooTensor>(job4.unsorted);
    const auto t0 = Clock::now();
    s3 = bind_and_prepare(std::move(coo3), job3, cache.get(), opts, tr, rid);
    s4 = bind_and_prepare(std::move(coo4), job4, cache.get(), opts, tr, rid);
    run.setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
    run.setup_peak_rss_mb.push_back(peak_rss_mb());
  }
  reset_peak_rss();
  job3.compute_refs(*s3.coo, rng);
  job4.compute_refs(*s4.coo, rng);

  struct Kind {
    Served* served;
    std::size_t k;
    const SampledRef* ref;
  };
  std::vector<Kind> kinds;
  for (std::size_t k = 0; k < job3.specs.size(); ++k) {
    kinds.push_back({&s3, k, &job3.refs[k]});
  }
  for (std::size_t k = 0; k < job4.specs.size(); ++k) {
    kinds.push_back({&s4, k, &job4.refs[k]});
  }

  struct Slot {
    std::vector<Output> outs;  ///< one per kind
    spttn::TaskHandle handle;
    bool busy = false;
    bool hit = false;
    int kind = 0;
    Tracer* t = nullptr;
    std::int64_t rid = -1;
    Clock::time_point start;
    std::int64_t ns[4] = {0, 0, 0, 0};  ///< start, signed, probed, submitted
  };
  std::vector<Slot> slots(kOutstanding);
  for (Slot& slot : slots) {
    for (const Kind& kd : kinds) {
      slot.outs.push_back(make_output(
          kd.served->session->kernel(kd.served->ids[kd.k]),
          kd.served->coo->nnz()));
    }
  }

  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::vector<std::pair<double, int>> exec_phase;
  const auto issue = [&](Slot& slot) {
    const std::int64_t req = issued++;
    ++run.attempted;
    slot.kind = static_cast<int>(req % static_cast<std::int64_t>(kinds.size()));
    slot.t = tracer_for_op(tr, req);
    slot.rid = slot.t != nullptr ? slot.t->new_request() : -1;
    const Kind& kd = kinds[static_cast<std::size_t>(slot.kind)];
    Session& session = *kd.served->session;
    const int id = kd.served->ids[kd.k];
    Output& out = slot.outs[static_cast<std::size_t>(slot.kind)];
    try {
      slot.start = Clock::now();
      if (slot.t != nullptr) slot.ns[0] = slot.t->now_ns();
      const spttn::KernelSignature sig =
          spttn::make_signature(session.kernel(id), session.stats(), opts);
      if (slot.t != nullptr) slot.ns[1] = slot.t->now_ns();
      slot.hit = kd.served->cache->lookup(sig) != nullptr;
      if (slot.t != nullptr) slot.ns[2] = slot.t->now_ns();
      slot.handle = session.submit(id, out.dense_ptr(), out.sparse_span());
      if (slot.t != nullptr) slot.ns[3] = slot.t->now_ns();
      slot.busy = true;
    } catch (const std::exception& e) {
      ++run.failed;
      run.notes.push_back(std::string("submit failed: ") + e.what());
    }
  };

  const auto loop_start = Clock::now();
  Clock::time_point last_done = loop_start;
  for (;;) {
    bool progressed = false;
    for (Slot& slot : slots) {
      if (!slot.busy) {
        if (!deadline_passed(loop_start, o)) issue(slot);
        continue;
      }
      if (!slot.handle.done()) continue;
      const auto t_done = Clock::now();
      progressed = true;
      slot.busy = false;
      bool ok = slot.hit;
      try {
        slot.handle.wait();
      } catch (const std::exception& e) {
        ok = false;
        run.notes.push_back(std::string("request failed: ") + e.what());
      }
      const double ms = ms_between(slot.start, t_done);
      record_op(&run, slot.t, ms);
      ++completed;
      last_done = t_done;
      if (slot.t != nullptr) {
        const std::int64_t end_ns =
            slot.ns[0] + static_cast<std::int64_t>(ms * 1e6);
        const int root =
            slot.t->record("request", slot.rid, -1, slot.ns[0], end_ns);
        slot.t->record("serve.signature", slot.rid, root, slot.ns[0],
                       slot.ns[1]);
        slot.t->record("serve.lookup", slot.rid, root, slot.ns[1],
                       slot.ns[2]);
        slot.t->record("serve.submit", slot.rid, root, slot.ns[2],
                       slot.ns[3]);
        slot.t->record("serve.complete", slot.rid, root, slot.ns[3], end_ns);
        exec_phase.push_back({ms, slot.kind});
      }
      const Kind& kd = kinds[static_cast<std::size_t>(slot.kind)];
      ok = ok &&
           matches(slot.outs[static_cast<std::size_t>(slot.kind)], *kd.ref);
      if (!ok) ++run.failed;
      if (!deadline_passed(loop_start, o)) issue(slot);
    }
    const bool any_busy = std::any_of(slots.begin(), slots.end(),
                                      [](const Slot& s) { return s.busy; });
    if (!any_busy && deadline_passed(loop_start, o)) break;
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  run.ops_per_s = static_cast<double>(completed) /
                  (ms_between(loop_start, last_done) * 1e-3);

  if (tr != nullptr) {
    LayerAcc acc;
    acc.cache = cache->counters();
    dist_leg(*tr, job3, *s3.coo, &acc);
    finish_trace(*tr, {{&job3, s3.coo.get()}, {&job4, s4.coo.get()}}, 1, &acc,
                 exec_phase, &run);
  }
  return run;
}

using WorkloadFn = WorkloadRun (*)(const Options&, Tracer*);

const std::vector<std::pair<std::string, WorkloadFn>>& registry() {
  static const std::vector<std::pair<std::string, WorkloadFn>> r = {
      {"cold_nips4", cold_nips4},
      {"als_nell2", als_nell2},
      {"serve_mix", serve_mix},
  };
  return r;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap memory back first (glibc keeps it)
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

WorkloadRun run_workload(const Options& options, Tracer* tracer) {
  for (const auto& [name, fn] : registry()) {
    if (name == options.workload) return fn(options, tracer);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
