#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(std::string name, std::int64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::int64_t t = now_ns();
  spans_.push_back({std::move(name), t, t, parent, request});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("trace spans must close in LIFO order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int Tracer::record(std::string name, std::int64_t request, int parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"self_ns\":" << self[i] << "}\n";
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<double> per_request_ms(const std::vector<SpanRecord>& spans,
                                   const std::string& name) {
  std::map<std::int64_t, double> sums;
  for (const SpanRecord& s : spans) {
    if (s.name == name) {
      sums[s.request] += static_cast<double>(s.duration_ns()) * 1e-6;
    }
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& kv : sums) out.push_back(kv.second);
  return out;
}

}  // namespace perfbench
