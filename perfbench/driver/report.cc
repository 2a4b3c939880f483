#include "driver/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::size_t MinSamplesForTail(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

namespace {

// "detect_p50_ms" -> "detect": the family a sample set belongs to.
std::string FamilyOf(const std::string& name) {
  for (const char* suffix : {"_p50_", "_p90_"}) {
    const std::size_t at = name.find(suffix);
    if (at != std::string::npos) return name.substr(0, at);
  }
  return name;
}

}  // namespace

void Report::Claim(const std::string& name, const Samples& samples,
                   const std::string& statistic) {
  const auto key = std::make_pair(&samples, statistic);
  const auto claimed = claims_.find(key);
  if (claimed != claims_.end()) {
    std::fprintf(stderr, "perfbench: %s and %s are one statistic of one sample set\n",
                 claimed->second.c_str(), name.c_str());
    std::abort();
  }
  claims_[key] = name;
  const std::string family = FamilyOf(name);
  const auto owner = families_.find(&samples);
  if (owner != families_.end() && owner->second != family) {
    std::fprintf(stderr, "perfbench: sample set of %s reused by %s\n",
                 owner->second.c_str(), name.c_str());
    std::abort();
  }
  families_[&samples] = family;
}

void Report::Add(Metric m) {
  for (const Metric& existing : metrics_) {
    if (existing.name == m.name) {
      std::fprintf(stderr, "perfbench: metric %s reported twice\n", m.name.c_str());
      std::abort();
    }
  }
  metrics_.push_back(std::move(m));
}

void Report::Percentile(const std::string& kind, const std::string& name,
                        const std::string& unit, const Samples& samples, double q) {
  char basis[16];
  std::snprintf(basis, sizeof(basis), "p%g", q * 100.0);
  Claim(name, samples, basis);
  if (q > 0.5 && samples.size() < MinSamplesForTail(q)) {
    errors_.push_back(name + ": only " + std::to_string(samples.size()) +
                      " samples, a " + basis + " needs " +
                      std::to_string(MinSamplesForTail(q)));
  }
  if (samples.empty()) errors_.push_back(name + ": no samples");
  Add({name, unit, Quantile(samples.values, q), samples.size(), basis, kind});
}

void Report::MeanOf(const std::string& kind, const std::string& name,
                    const std::string& unit, const Samples& samples) {
  Claim(name, samples, "mean");
  Add({name, unit, Mean(samples.values), samples.size(), "mean", kind});
}

void Report::Value(const std::string& kind, const std::string& name,
                   const std::string& unit, double value, std::size_t n,
                   const std::string& basis) {
  Add({name, unit, value, n, basis, kind});
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
