// Summary statistics and the result schema the benchmark prints.
//
// The last line of a run's standard output is one JSON object with exactly
// the keys "correct", "attempted", "failed" and "metrics"; each metric is
// {"value": <number>, "unit": <string>}. to_json and parse_result are
// inverse on that schema (parse_result rejects anything else).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `values`; throws on empty input.
double percentile(std::vector<double> values, double q);

/// Median (nearest rank, q = 0.5).
double median(std::vector<double> values);

/// Tail percentile under the reporting rule: at least ten samples must lie
/// beyond it, so p90 needs >= 100 samples. Throws std::runtime_error naming
/// the sample count otherwise.
double tail_percentile(std::vector<double> values, double q);

/// Smallest sample count for which tail_percentile(., q) is reported.
std::int64_t min_samples_for(double q);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;

  bool operator==(const Metric&) const = default;
};

struct Result {
  bool correct = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  ///< printed in this order

  bool operator==(const Result&) const = default;
};

/// One-line JSON rendering; numbers keep all 17 significant digits.
std::string to_json(const Result& r);

/// Strict parser for to_json's output: exactly the four keys, integer
/// counts, attempted >= 1, metric objects with exactly "value" and "unit".
/// Throws std::runtime_error on any deviation.
Result parse_result(const std::string& json);

/// Escape a string for a JSON string literal (without the quotes).
std::string json_escape(const std::string& s);

}  // namespace perfbench
