// Adaptive sequential sampling (extension beyond the paper).
//
// The paper's Theorem 4 fixes the sample size t up-front from the worst
// case (every estimate variance at its maximum 1/4). When true default
// probabilities sit near 0 or 1 — typical after candidate reduction — far
// fewer samples suffice. This module adds an anytime variant: after each
// batch of worlds it recomputes an empirical-Bernstein confidence radius
//
//   r(v) = sqrt(2 * Var_t(v) * log(3/delta') / t) + 3 * log(3/delta') / t
//
// per candidate (Audibert et al. 2009; delta' = delta / (|B| * ceil(log2 T))
// by union bound over candidates and checkpoints) and stops as soon as the
// k-th largest lower confidence limit clears the (k+1)-th largest upper
// confidence limit — i.e. the top-k is confidently separated — or the
// fixed-t budget of Theorem 5 is exhausted, whichever happens first.
// The returned set therefore keeps the (eps, delta) contract while often
// sampling a small fraction of the worst-case budget.

#ifndef VULNDS_VULNDS_ADAPTIVE_SAMPLER_H_
#define VULNDS_VULNDS_ADAPTIVE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace vulnds {

/// Configuration of the adaptive run.
struct AdaptiveOptions {
  std::size_t k = 1;           ///< how many nodes must be separated
  double eps = 0.3;            ///< slack added to the separation test
  double delta = 0.1;          ///< overall failure budget
  std::size_t max_samples = 100000;  ///< hard budget T
  std::size_t batch = 32;      ///< worlds per confidence checkpoint
  uint64_t seed = 42;
};

/// Result of the adaptive run.
struct AdaptiveRunStats {
  std::vector<double> estimates;   ///< p̂ per candidate (candidate order)
  std::vector<double> radii;       ///< final confidence radius per candidate
  std::size_t samples_used = 0;
  bool separated = false;  ///< stop condition fired before the budget
};

/// Runs reverse sampling over `candidates`, stopping early once the top-k
/// is separated within eps at confidence 1 - delta. Requires
/// 1 <= k <= |candidates|, a non-empty candidate set, a finite eps > 0 and
/// delta in (0, 1).
Result<AdaptiveRunStats> RunAdaptiveSampling(const UncertainGraph& graph,
                                             const std::vector<NodeId>& candidates,
                                             const AdaptiveOptions& options);

}  // namespace vulnds

#endif  // VULNDS_VULNDS_ADAPTIVE_SAMPLER_H_
