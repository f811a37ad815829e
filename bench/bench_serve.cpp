// Sustained-load serving bench: concurrent client threads fire mixed
// kernel-family requests through Sessions backed by one shared KernelCache
// and report per-kernel latency percentiles (p50/p99/max) plus aggregate
// throughput — the fleet-serving view of the paper's search-once /
// execute-many claim. Persists machine-readable rows to BENCH_serve.json
// (--json=path), same schema family as BENCH_verify.json.
//
// Every client runs its requests synchronously on its own thread (the
// request is the unit of parallelism, matching Session::submit's model).
// Signature hashing, the cache probe, planning and compilation all happen
// once per kernel in the untimed prepare phase; each timed request is one
// Session::run, which goes straight to the prepared entry's compiled
// executor: argument binding plus one sequential execution of the nest.
// The tensors are toy-sized, so the numbers measure dispatch overhead, not
// throughput.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "analysis/kernel_suite.hpp"
#include "bench_common.hpp"
#include "serve/kernel_cache.hpp"
#include "serve/session.hpp"
#include "util/cli.hpp"

using namespace spttn;
using namespace spttn::bench;

namespace {

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

struct Row {
  std::string kernel;
  std::size_t requests = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_serve");
  const std::int64_t* clients =
      cli.add_int("clients", 4, "concurrent client threads");
  const std::int64_t* requests =
      cli.add_int("requests", 200, "requests per client");
  const std::int64_t* seed = cli.add_int("seed", 42, "random tensor seed");
  const std::string* json =
      cli.add_string("json", "BENCH_serve.json",
                     "output path for machine-readable rows ('' = skip)");
  cli.parse(argc, argv);

  // Mixed families: MTTKRP (dense output), TTMc (larger intermediate),
  // TTTP (sparse output) — the three shapes a serving mix alternates over.
  const std::vector<std::string> wanted = {"mttkrp3", "ttmc3", "tttp3"};
  std::vector<std::unique_ptr<SuiteInstance>> instances;
  for (const SuiteKernel& sk : paper_kernel_suite()) {
    if (std::find(wanted.begin(), wanted.end(), sk.name) != wanted.end()) {
      instances.push_back(
          make_suite_instance(sk, static_cast<std::uint64_t>(*seed)));
    }
  }
  const std::size_t nk = instances.size();

  // One shared cache, one session per bound structure; prepare warms every
  // plan so the measurement loop never searches.
  KernelCache cache;
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<int> kernel_ids;
  std::vector<std::string> names;
  for (std::size_t k = 0; k < nk; ++k) {
    auto s = std::make_unique<Session>(instances[k]->sparse, PlannerOptions{},
                                       &cache);
    // Factors in order of appearance; dense_slots() holds a null at the
    // sparse operand's position, which prepare() re-derives itself.
    std::vector<const DenseTensor*> slots;
    for (const DenseTensor* d : instances[k]->dense_slots()) {
      if (d != nullptr) slots.push_back(d);
    }
    kernel_ids.push_back(
        s->prepare(instances[k]->bound.kernel.to_string(), slots));
    names.push_back(wanted.size() == nk ? wanted[k] : "kernel");
    sessions.push_back(std::move(s));
  }

  const int n_clients = static_cast<int>(*clients);
  const std::size_t per_client = static_cast<std::size_t>(*requests);
  // lat[client][kernel] = request latencies in microseconds.
  std::vector<std::vector<std::vector<double>>> lat(
      static_cast<std::size_t>(n_clients),
      std::vector<std::vector<double>>(nk));

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      // Per-client outputs: requests are independent, like real clients.
      std::vector<DenseTensor> out_dense(nk);
      std::vector<std::vector<double>> out_sparse(nk);
      for (std::size_t k = 0; k < nk; ++k) {
        if (sessions[k]->kernel(kernel_ids[k]).output_is_sparse()) {
          out_sparse[k].assign(
              static_cast<std::size_t>(instances[k]->sparse.nnz()), 0.0);
        } else {
          out_dense[k] = sessions[k]->make_output(kernel_ids[k]);
        }
      }
      for (std::size_t r = 0; r < per_client; ++r) {
        const std::size_t k = (r + static_cast<std::size_t>(c)) % nk;
        const bool sparse_out =
            sessions[k]->kernel(kernel_ids[k]).output_is_sparse();
        const auto t0 = std::chrono::steady_clock::now();
        sessions[k]->run(kernel_ids[k],
                         sparse_out ? nullptr : &out_dense[k],
                         out_sparse[k]);
        const auto t1 = std::chrono::steady_clock::now();
        lat[static_cast<std::size_t>(c)][k].push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();

  Table table(strfmt("Sustained serving load: %d client(s) x %zu request(s)",
                     n_clients, per_client));
  table.set_header({"kernel", "requests", "p50[us]", "p99[us]", "max[us]"});
  std::vector<Row> rows;
  std::vector<double> all;
  for (std::size_t k = 0; k < nk; ++k) {
    std::vector<double> merged;
    for (int c = 0; c < n_clients; ++c) {
      const auto& v = lat[static_cast<std::size_t>(c)][k];
      merged.insert(merged.end(), v.begin(), v.end());
    }
    all.insert(all.end(), merged.begin(), merged.end());
    std::sort(merged.begin(), merged.end());
    Row row;
    row.kernel = names[k];
    row.requests = merged.size();
    row.p50_us = percentile(merged, 0.50);
    row.p99_us = percentile(merged, 0.99);
    row.max_us = merged.empty() ? 0.0 : merged.back();
    rows.push_back(row);
    table.add_row({row.kernel, strfmt("%zu", row.requests),
                   strfmt("%.1f", row.p50_us), strfmt("%.1f", row.p99_us),
                   strfmt("%.1f", row.max_us)});
  }
  std::sort(all.begin(), all.end());
  Row total;
  total.kernel = "ALL";
  total.requests = all.size();
  total.p50_us = percentile(all, 0.50);
  total.p99_us = percentile(all, 0.99);
  total.max_us = all.empty() ? 0.0 : all.back();
  table.add_row({total.kernel, strfmt("%zu", total.requests),
                 strfmt("%.1f", total.p50_us), strfmt("%.1f", total.p99_us),
                 strfmt("%.1f", total.max_us)});
  const auto counters = cache.counters();
  const double rps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
  table.add_note(strfmt(
      "throughput %.0f req/s; cache: %llu hits, %llu planner searches",
      rps, static_cast<unsigned long long>(counters.hits),
      static_cast<unsigned long long>(counters.planned)));
  table.print(std::cout);

  if (!json->empty()) {
    std::ofstream os(*json);
    os << "{\n  \"bench\": \"bench_serve\",\n  \"unit\": \"us\",\n"
       << "  \"clients\": " << n_clients << ",\n  \"requests_per_client\": "
       << per_client << ",\n  \"seed\": " << *seed
       << ",\n  \"throughput_rps\": " << strfmt("%.1f", rps)
       << ",\n  \"planner_searches\": " << counters.planned
       << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      os << "    {\"kernel\": \"" << r.kernel << "\", \"requests\": "
         << r.requests << ", \"p50_us\": " << strfmt("%.2f", r.p50_us)
         << ", \"p99_us\": " << strfmt("%.2f", r.p99_us)
         << ", \"max_us\": " << strfmt("%.2f", r.max_us) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << *json << "\n";
  }
  return 0;
}
