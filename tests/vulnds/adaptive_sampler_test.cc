#include "vulnds/adaptive_sampler.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "exact/possible_world.h"
#include "testing/test_graphs.h"
#include "vulnds/sample_size.h"

namespace vulnds {
namespace {

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

AdaptiveOptions Base(std::size_t k) {
  AdaptiveOptions o;
  o.k = k;
  o.max_samples = 20000;
  return o;
}

TEST(AdaptiveTest, Validation) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  EXPECT_FALSE(RunAdaptiveSampling(g, {}, Base(1)).ok());
  EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, Base(0)).ok());
  EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, Base(3)).ok());
  AdaptiveOptions bad = Base(1);
  bad.eps = 0.0;
  EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, bad).ok());
  bad = Base(1);
  bad.batch = 0;
  EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, bad).ok());
}

TEST(AdaptiveTest, RejectsNonFiniteEpsAndDelta) {
  // NaN fails every comparison, so a check written as "reject if eps <= 0"
  // lets it through; such a run never separates and burns max_samples.
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double eps : {nan, inf, -inf}) {
    AdaptiveOptions bad = Base(1);
    bad.eps = eps;
    EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, bad).ok()) << "eps " << eps;
  }
  for (const double delta : {nan, inf, -inf}) {
    AdaptiveOptions bad = Base(1);
    bad.delta = delta;
    EXPECT_FALSE(RunAdaptiveSampling(g, {0, 1}, bad).ok()) << "delta " << delta;
  }
  EXPECT_TRUE(RunAdaptiveSampling(g, {0, 1}, Base(1)).ok());
}

TEST(AdaptiveTest, WellSeparatedStopsEarly) {
  // One near-certain node among near-safe ones: separation is obvious after
  // a handful of batches, far below the worst-case Hoeffding budget.
  UncertainGraphBuilder b(6);
  ASSERT_TRUE(b.SetSelfRisk(0, 0.9).ok());
  for (NodeId v = 1; v < 6; ++v) ASSERT_TRUE(b.SetSelfRisk(v, 0.05).ok());
  UncertainGraph g = b.Build().MoveValue();
  const auto run = RunAdaptiveSampling(g, AllNodes(g), Base(1));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->separated);
  const std::size_t hoeffding = BasicSampleSize(0.3, 0.1, 1, 6);
  EXPECT_LT(run->samples_used, hoeffding);
  // The winner is node 0.
  for (NodeId v = 1; v < 6; ++v) {
    EXPECT_GT(run->estimates[0], run->estimates[v]);
  }
}

TEST(AdaptiveTest, IndistinguishableRunsToBudget) {
  // All candidates identical: separation beyond eps = tiny is impossible,
  // so the run exhausts the budget without claiming separation... except
  // the eps slack; use a very small eps to force a full run.
  UncertainGraphBuilder b(4);
  for (NodeId v = 0; v < 4; ++v) ASSERT_TRUE(b.SetSelfRisk(v, 0.5).ok());
  UncertainGraph g = b.Build().MoveValue();
  AdaptiveOptions o = Base(1);
  o.eps = 1e-4;
  o.max_samples = 2000;
  const auto run = RunAdaptiveSampling(g, AllNodes(g), o);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->samples_used, 2000u);
  EXPECT_FALSE(run->separated);
}

TEST(AdaptiveTest, KEqualsCandidatesIsImmediatelySeparated) {
  UncertainGraph g = testing::ChainGraph(0.3, 0.3);
  const auto run = RunAdaptiveSampling(g, AllNodes(g), Base(3));
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->separated);
  EXPECT_LE(run->samples_used, 32u);  // first checkpoint
}

TEST(AdaptiveTest, EstimatesUnbiased) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  AdaptiveOptions o = Base(1);
  o.eps = 1e-6;        // force a long run
  o.max_samples = 30000;
  const auto run = RunAdaptiveSampling(g, AllNodes(g), o);
  ASSERT_TRUE(run.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(run->estimates[v], (*exact)[v], 0.02) << "node " << v;
  }
}

TEST(AdaptiveTest, RadiiShrinkWithSamples) {
  UncertainGraph g = testing::PaperExampleGraph(0.3);
  AdaptiveOptions small = Base(1);
  small.eps = 1e-6;
  small.max_samples = 256;
  AdaptiveOptions large = small;
  large.max_samples = 8192;
  const auto a = RunAdaptiveSampling(g, AllNodes(g), small);
  const auto b = RunAdaptiveSampling(g, AllNodes(g), large);
  ASSERT_TRUE(a.ok() && b.ok());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(b->radii[v], a->radii[v]) << "node " << v;
  }
}

// Contract sweep: when the run claims separation, the claimed top-k must
// satisfy the (eps, delta) conditions against the exact oracle.
class AdaptiveContractSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdaptiveContractSweep, SeparationClaimIsCorrect) {
  const uint64_t seed = GetParam();
  UncertainGraph g = testing::RandomSmallGraph(5, 0.35, seed);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const std::size_t k = 2;
  AdaptiveOptions o = Base(k);
  o.seed = seed * 31 + 5;
  const auto run = RunAdaptiveSampling(g, AllNodes(g), o);
  ASSERT_TRUE(run.ok());
  if (!run->separated) GTEST_SKIP() << "budget exhausted (legal)";
  // The k nodes with the largest estimates must all have exact probability
  // >= Pk - eps.
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return run->estimates[a] > run->estimates[b];
  });
  const auto truth = ExactTopK(g, k);
  ASSERT_TRUE(truth.ok());
  const double pk = (*exact)[truth->back()];
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_GE((*exact)[order[i]], pk - o.eps - 1e-9) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveContractSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace vulnds
