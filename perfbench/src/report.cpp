#include "report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::int64_t nearest_rank(std::int64_t n, double q) {
  const auto r = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::int64_t>(r, 1, n);
}

/// Minimal recursive-descent reader for the result schema.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        else if (c == 't') c = '\t';
        else if (c != '"' && c != '\\' && c != '/') fail("unsupported escape");
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  /// Number token as text (validated by the caller's conversion).
  std::string number_token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) fail("expected a number");
    return s_.substr(start, pos_ - start);
  }

  double number() {
    const std::string tok = number_token();
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
      fail("bad number '" + tok + "'");
    }
    return v;
  }

  std::int64_t integer() {
    const std::string tok = number_token();
    if (tok.find_first_of(".eE") != std::string::npos) {
      fail("expected a whole number, got '" + tok + "'");
    }
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size()) fail("bad integer '" + tok + "'");
    return v;
  }

  bool boolean() {
    skip_ws();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
    return false;
  }

  void finish() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("result JSON: " + what + " at offset " +
                             std::to_string(pos_));
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string number_text(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::runtime_error("percentile of no samples");
  const auto n = static_cast<std::int64_t>(values.size());
  const auto k = static_cast<std::size_t>(nearest_rank(n, q) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::int64_t min_samples_for(double q) {
  std::int64_t n = 1;
  while (n - nearest_rank(n, q) < 10) ++n;
  return n;
}

double tail_percentile(std::vector<double> values, double q) {
  const auto n = static_cast<std::int64_t>(values.size());
  if (n < min_samples_for(q)) {
    std::ostringstream msg;
    msg << "p" << std::lround(q * 100) << " refused: " << n
        << " samples, need at least " << min_samples_for(q)
        << " (ten samples beyond the percentile)";
    throw std::runtime_error(msg.str());
  }
  return percentile(std::move(values), q);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string to_json(const Result& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out << ", ";
    out << '"' << json_escape(m.name) << "\": {\"value\": "
        << number_text(m.value) << ", \"unit\": \"" << json_escape(m.unit)
        << "\"}";
  }
  out << "}}";
  return out.str();
}

Result parse_result(const std::string& json) {
  Reader in(json);
  Result r;
  std::map<std::string, int> seen;
  in.expect('{');
  do {
    const std::string key = in.string();
    if (++seen[key] > 1) in.fail("duplicate key '" + key + "'");
    in.expect(':');
    if (key == "correct") {
      r.correct = in.boolean();
    } else if (key == "attempted") {
      r.attempted = in.integer();
    } else if (key == "failed") {
      r.failed = in.integer();
    } else if (key == "metrics") {
      in.expect('{');
      if (!in.consume('}')) {
        do {
          Metric m;
          m.name = in.string();
          for (const Metric& prior : r.metrics) {
            if (prior.name == m.name) in.fail("duplicate metric " + m.name);
          }
          in.expect(':');
          in.expect('{');
          bool has_value = false;
          bool has_unit = false;
          do {
            const std::string field = in.string();
            in.expect(':');
            if (field == "value" && !has_value) {
              m.value = in.number();
              has_value = true;
            } else if (field == "unit" && !has_unit) {
              m.unit = in.string();
              has_unit = true;
            } else {
              in.fail("unexpected metric field '" + field + "'");
            }
          } while (in.consume(','));
          in.expect('}');
          if (!has_value || !has_unit) {
            in.fail("metric " + m.name + " incomplete");
          }
          r.metrics.push_back(std::move(m));
        } while (in.consume(','));
        in.expect('}');
      }
    } else {
      in.fail("unexpected key '" + key + "'");
    }
  } while (in.consume(','));
  in.expect('}');
  in.finish();
  for (const char* key : {"correct", "attempted", "failed", "metrics"}) {
    if (seen[key] != 1) in.fail(std::string("missing key '") + key + "'");
  }
  if (r.attempted < 1) in.fail("attempted must be at least 1");
  if (r.failed < 0 || r.failed > r.attempted) in.fail("failed out of range");
  return r;
}

}  // namespace perfbench
