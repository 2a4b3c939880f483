#include "vulnds/adaptive_sampler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "vulnds/reverse_sampler.h"

namespace vulnds {

Result<AdaptiveRunStats> RunAdaptiveSampling(const UncertainGraph& graph,
                                             const std::vector<NodeId>& candidates,
                                             const AdaptiveOptions& options) {
  const std::size_t c = candidates.size();
  if (c == 0) return Status::InvalidArgument("empty candidate set");
  if (options.k == 0 || options.k > c) {
    return Status::InvalidArgument("k must be in [1, |candidates|], got " +
                                   std::to_string(options.k));
  }
  // Stated in the positive so NaN (false under every comparison) fails it
  // too: a NaN eps or delta never separates the top-k, so the run would
  // burn all of max_samples.
  if (!(options.eps > 0.0 && std::isfinite(options.eps) &&
        options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument(
        "eps must be finite and > 0, and delta in (0, 1)");
  }
  if (options.batch == 0) return Status::InvalidArgument("batch must be > 0");

  AdaptiveRunStats stats;
  stats.estimates.assign(c, 0.0);
  stats.radii.assign(c, 1.0);
  if (options.max_samples == 0) return stats;

  // Union-bound split of delta over candidates and checkpoints.
  const double checkpoints = std::max(
      1.0, std::ceil(std::log2(static_cast<double>(options.max_samples))));
  const double delta_each =
      options.delta / (static_cast<double>(c) * checkpoints);
  const double log_term = std::log(3.0 / delta_each);

  ReverseSampler sampler(graph, candidates);
  std::vector<uint32_t> counts(c, 0);
  std::vector<char> defaulted;

  std::size_t t = 0;
  while (t < options.max_samples) {
    const std::size_t stop = std::min(options.max_samples, t + options.batch);
    for (; t < stop; ++t) {
      sampler.SampleWorld(WorldSeed(options.seed, t), &defaulted);
      for (std::size_t i = 0; i < c; ++i) counts[i] += defaulted[i];
    }
    // Empirical-Bernstein radius per candidate (Bernoulli variance).
    const auto dt = static_cast<double>(t);
    for (std::size_t i = 0; i < c; ++i) {
      const double mean = static_cast<double>(counts[i]) / dt;
      const double variance = mean * (1.0 - mean);
      stats.estimates[i] = mean;
      stats.radii[i] =
          std::sqrt(2.0 * variance * log_term / dt) + 3.0 * log_term / dt;
    }
    // Separation test: the k-th largest lower limit must clear the
    // (k+1)-th largest upper limit minus eps.
    std::vector<double> lower(c);
    std::vector<double> upper(c);
    for (std::size_t i = 0; i < c; ++i) {
      lower[i] = stats.estimates[i] - stats.radii[i];
      upper[i] = stats.estimates[i] + stats.radii[i];
    }
    std::vector<std::size_t> order(c);
    for (std::size_t i = 0; i < c; ++i) order[i] = i;
    std::nth_element(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(options.k - 1),
                     order.end(), [&](std::size_t a, std::size_t b) {
                       return stats.estimates[a] > stats.estimates[b];
                     });
    // Lowest lower limit among the current top-k...
    double kth_lower = 1.0;
    for (std::size_t i = 0; i < options.k; ++i) {
      kth_lower = std::min(kth_lower, lower[order[i]]);
    }
    // ...must beat the highest upper limit outside it (within eps slack).
    double rest_upper = -1.0;
    for (std::size_t i = options.k; i < c; ++i) {
      rest_upper = std::max(rest_upper, upper[order[i]]);
    }
    if (options.k == c || kth_lower >= rest_upper - options.eps) {
      stats.separated = true;
      break;
    }
  }
  stats.samples_used = t;
  return stats;
}

}  // namespace vulnds
