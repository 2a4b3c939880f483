// Sample sets, the metrics computed from them, and the run's result line.
//
// Every metric names the sample set it was computed from and the statistic
// it took. Registering one (set, statistic) pair under two names, or one set
// under two metric families, aborts the run: one number reported under two
// names would make two metrics look independent when they are one.

#ifndef PERFBENCH_DRIVER_REPORT_H_
#define PERFBENCH_DRIVER_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One named set of measurements (latencies, sizes, ...).
struct Samples {
  std::vector<double> values;
  void Add(double v) { values.push_back(v); }
  std::size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Smallest sample count for which a tail percentile q has at least 10
/// samples beyond it.
std::size_t MinSamplesForTail(double q);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t n = 0;      ///< samples (or base count) behind the value
  std::string basis;      ///< how the value was taken ("p90", "mean", ...)
  std::string kind;       ///< "e2e" or "layer"
};

class Report {
 public:
  /// Percentile `q` of `samples` as metric `name`. A tail percentile (q >
  /// 0.5) with fewer than 10 samples beyond it is refused: the run fails.
  void Percentile(const std::string& kind, const std::string& name,
                  const std::string& unit, const Samples& samples, double q);
  /// Mean of `samples` as metric `name`.
  void MeanOf(const std::string& kind, const std::string& name,
              const std::string& unit, const Samples& samples);
  /// A value that is not a statistic of a sample set (a count, a ratio of
  /// counters, a rate); `n` is its base.
  void Value(const std::string& kind, const std::string& name,
             const std::string& unit, double value, std::size_t n,
             const std::string& basis);

  const std::vector<Metric>& metrics() const { return metrics_; }
  bool ok() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Claim(const std::string& name, const Samples& samples,
             const std::string& statistic);
  void Add(Metric m);

  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  // (set, statistic) -> metric name, and set -> metric family.
  std::map<std::pair<const Samples*, std::string>, std::string> claims_;
  std::map<const Samples*, std::string> families_;
};

/// Writes `s` as a JSON string literal.
std::string JsonString(const std::string& s);
/// %.17g, the digits a double needs to round-trip.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPORT_H_
