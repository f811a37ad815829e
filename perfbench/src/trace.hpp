// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions (tensor/, core/, analysis/, exec/, serve/,
// dist/); nothing inside the library is instrumented. Each span carries a
// name, start and end (steady clock, ns since the tracer was created), the
// index of its parent span (-1 for a root) and the id of the request it
// belongs to. Spans stay in memory and are written out once, at the end of
// the run. A null Tracer* disables recording: Scope then does nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            ///< index into Tracer::spans(), -1 for a root
  std::int64_t request = -1;  ///< request (op) id shared by a span tree

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded recorder: the benchmark records from its client thread
/// only (submitted requests are recorded by the client when it observes
/// their completion).
class Tracer {
 public:
  Tracer();

  /// Nanoseconds since construction.
  std::int64_t now_ns() const;

  /// Fresh request id.
  std::int64_t new_request() { return next_request_++; }

  /// Open a span nested in the innermost open span (or a root when none is
  /// open); returns its index. Spans close in LIFO order.
  int begin(std::string name, std::int64_t request);
  void end(int span);

  /// Record an already finished span with explicit times and parent (for
  /// requests that overlap in time, which a stack cannot nest).
  int record(std::string name, std::int64_t request, int parent,
             std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Write one JSON object per span (with its self time) to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  std::int64_t next_request_ = 0;
};

/// RAII span around one call; a no-op when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->begin(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent). Same order as `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// Per request that has spans named `name`, the sum of their durations (ms);
/// one value per such request, in request order.
std::vector<double> per_request_ms(const std::vector<SpanRecord>& spans,
                                   const std::string& name);

}  // namespace perfbench
