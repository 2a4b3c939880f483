// Small fixture graphs shared across test files.

#ifndef VULNDS_TESTS_TESTING_TEST_GRAPHS_H_
#define VULNDS_TESTS_TESTING_TEST_GRAPHS_H_

#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/builder.h"
#include "graph/uncertain_graph.h"

namespace vulnds::testing {

/// Aborts on a non-OK status (works in Release builds unlike assert).
inline void CheckOk(const Status& status) {
  if (!status.ok()) std::abort();
}

/// The paper's running example (Figure 3): 5 nodes A..E, 6 edges, all
/// probabilities `p` (Example 1 uses p = 0.2).
inline UncertainGraph PaperExampleGraph(double p = 0.2) {
  UncertainGraphBuilder b(5);
  for (NodeId v = 0; v < 5; ++v) CheckOk(b.SetSelfRisk(v, p));
  // A=0 B=1 C=2 D=3 E=4; edges as in Figure 3(e).
  CheckOk(b.AddEdge(0, 1, p));  // A -> B
  CheckOk(b.AddEdge(0, 2, p));  // A -> C
  CheckOk(b.AddEdge(1, 3, p));  // B -> D
  CheckOk(b.AddEdge(1, 4, p));  // B -> E
  CheckOk(b.AddEdge(2, 4, p));  // C -> E
  CheckOk(b.AddEdge(3, 4, p));  // D -> E
  return b.Build().MoveValue();
}

/// A 3-node chain a -> b -> c with the given probabilities.
inline UncertainGraph ChainGraph(double ps, double pe) {
  UncertainGraphBuilder b(3);
  for (NodeId v = 0; v < 3; ++v) CheckOk(b.SetSelfRisk(v, ps));
  CheckOk(b.AddEdge(0, 1, pe));
  CheckOk(b.AddEdge(1, 2, pe));
  return b.Build().MoveValue();
}

/// Random small graph for oracle comparisons: n nodes, each possible edge
/// picked independently with probability `edge_density`; self-risks uniform
/// in [0, max_risk), edge probabilities uniform in [0, max_prob). Total
/// uncertain entities stay enumerable for n <= 5 or so.
inline UncertainGraph RandomSmallGraph(std::size_t n, double edge_density,
                                       uint64_t seed, double max_risk = 1.0,
                                       double max_prob = 1.0) {
  Rng rng(seed);
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    CheckOk(b.SetSelfRisk(v, max_risk * rng.NextDouble()));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      if (rng.NextDouble() < edge_density) {
        CheckOk(b.AddEdge(u, v, max_prob * rng.NextDouble()));
      }
    }
  }
  return b.Build().MoveValue();
}

}  // namespace vulnds::testing

#endif  // VULNDS_TESTS_TESTING_TEST_GRAPHS_H_
