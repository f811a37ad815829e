// Unit tests of the benchmark's own machinery: the tail-percentile rule,
// span self time, and the result schema.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(median(ramp(5)), 3);
  EXPECT_DOUBLE_EQ(median(ramp(4)), 2);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 0.9), 90);
  EXPECT_DOUBLE_EQ(percentile(ramp(1), 0.9), 1);
  EXPECT_THROW(median({}), std::runtime_error);
}

TEST(Percentile, P90RefusedBelowHundredSamples) {
  EXPECT_EQ(min_samples_for(0.9), 100);
  EXPECT_THROW(tail_percentile(ramp(99), 0.9), std::runtime_error);
  EXPECT_THROW(tail_percentile(ramp(10), 0.9), std::runtime_error);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(100), 0.9), 90);
  EXPECT_DOUBLE_EQ(tail_percentile(ramp(200), 0.9), 180);
  // The rule is "ten samples beyond the percentile", not a fixed count.
  EXPECT_EQ(min_samples_for(0.5), 20);
  EXPECT_EQ(min_samples_for(0.99), 1000);
}

SpanRecord span(const char* name, std::int64_t start, std::int64_t end,
                int parent) {
  return {name, start, end, parent, 7};
}

TEST(Trace, SelfTimeSubtractsChildCoverage) {
  // op [0,100) with children sort [10,30), plan [25,60) (overlapping, e.g.
  // two spans recorded around concurrent work) and run [70,90); plan has a
  // child verify [30,40) that must not count against op.
  const std::vector<SpanRecord> spans = {
      span("op", 0, 100, -1),     // 0
      span("sort", 10, 30, 0),    // 1
      span("plan", 25, 60, 0),    // 2
      span("verify", 30, 40, 2),  // 3
      span("run", 70, 90, 0),     // 4
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (60 - 10) - (90 - 70));  // union [10,60)+[70,90)
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 35 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 20);
}

TEST(Trace, SelfTimeClipsChildrenToParent) {
  const std::vector<SpanRecord> spans = {
      span("request", 100, 200, -1),
      span("complete", 150, 260, 0),  // observed past the parent's end
      span("early", 40, 120, 0),
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 20);
}

TEST(Trace, RecorderNestsAndSumsPerRequest) {
  Tracer tr;
  const std::int64_t a = tr.new_request();
  const std::int64_t b = tr.new_request();
  {
    Scope op(&tr, "op", a);
    { Scope child(&tr, "prepare", a); }
    { Scope child(&tr, "prepare", a); }
  }
  { Scope other(&tr, "prepare", b); }
  { Scope off(nullptr, "ignored", b); }
  ASSERT_EQ(tr.spans().size(), 4u);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[2].parent, 0);
  EXPECT_EQ(tr.spans()[3].parent, -1);
  EXPECT_EQ(per_request_ms(tr.spans(), "prepare").size(), 2u);
  EXPECT_TRUE(per_request_ms(tr.spans(), "ignored").empty());
  const int open = tr.begin("outer", a);
  tr.begin("inner", a);
  EXPECT_THROW(tr.end(open), std::logic_error);
}

TEST(Result, RoundTripsThroughSchema) {
  Result r;
  r.correct = true;
  r.attempted = 1234;
  r.failed = 0;
  r.metrics = {
      {"setup_s", 0.81270000000000009, "s"},
      {"ops_per_s", 137.25, "1/s"},
      {"op_ms_p50", 1.0 / 3.0, "ms"},
      {"serve.hit_ratio", 0, "ratio"},
      {"dist.overhead_ms", -0.125, "ms"},
  };
  const std::string json = to_json(r);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(parse_result(json), r);  // every digit survives
  EXPECT_EQ(to_json(parse_result(json)), json);

  Result failed = r;
  failed.correct = false;
  failed.failed = 3;
  failed.metrics.clear();
  EXPECT_EQ(parse_result(to_json(failed)), failed);
}

TEST(Result, RejectsOffSchemaInput) {
  const std::string ok =
      R"({"correct": true, "attempted": 2, "failed": 0, "metrics": )"
      R"({"a": {"value": 1.5, "unit": "ms"}}})";
  EXPECT_NO_THROW(parse_result(ok));
  const std::vector<std::string> bad = {
      R"({"correct": true, "attempted": 2, "failed": 0})",
      R"({"correct": true, "attempted": 2, "failed": 0, "metrics": {}, )"
      R"("x": 1})",
      R"({"correct": 1, "attempted": 2, "failed": 0, "metrics": {}})",
      R"({"correct": true, "attempted": 0, "failed": 0, "metrics": {}})",
      R"({"correct": true, "attempted": 2.5, "failed": 0, "metrics": {}})",
      R"({"correct": true, "attempted": 2, "failed": 3, "metrics": {}})",
      R"({"correct": true, "attempted": 2, "failed": 0, "metrics": )"
      R"({"a": {"value": 1}}})",
      R"({"correct": true, "attempted": 2, "failed": 0, "metrics": )"
      R"({"a": {"value": 1, "unit": "ms", "n": 3}}})",
      R"({"correct": true, "attempted": 2, "failed": 0, "metrics": )"
      R"({"a": {"value": 1, "unit": "ms"}, "a": {"value": 2, "unit": "ms"}}})",
      ok + " trailing",
  };
  for (const std::string& s : bad) {
    EXPECT_THROW(parse_result(s), std::runtime_error) << s;
  }
}

}  // namespace
}  // namespace perfbench
