#include "vulnds/reverse_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>

#include "exact/possible_world.h"
#include "simd/dispatch.h"
#include "testing/test_graphs.h"
#include "vulnds/coin_columns.h"

namespace vulnds {
namespace {

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// Forward evaluation (exact::EvaluateWorld) of the world `w` the reverse
// sampler observes: one flag per node.
std::vector<char> ForwardDefaults(const UncertainGraph& g, uint64_t w) {
  std::vector<char> self(g.num_nodes());
  std::vector<char> edges(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    self[v] = WorldNodeSelfDefaults(w, v, g.self_risk(v)) ? 1 : 0;
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edges[e] = WorldEdgeSurvives(w, e, g.edges()[e].prob) ? 1 : 0;
  }
  return EvaluateWorld(g, self, edges);
}

TEST(WorldPurityTest, CoinsAreDeterministic) {
  const uint64_t w = WorldSeed(42, 7);
  EXPECT_EQ(WorldSeed(42, 7), w);
  EXPECT_NE(WorldSeed(42, 8), w);
  EXPECT_NE(WorldSeed(43, 7), w);
  EXPECT_EQ(WorldNodeSelfDefaults(w, 3, 0.5), WorldNodeSelfDefaults(w, 3, 0.5));
  EXPECT_EQ(WorldEdgeSurvives(w, 9, 0.5), WorldEdgeSurvives(w, 9, 0.5));
}

TEST(WorldPurityTest, DeterministicProbabilities) {
  const uint64_t w = WorldSeed(1, 1);
  EXPECT_FALSE(WorldNodeSelfDefaults(w, 0, 0.0));
  EXPECT_TRUE(WorldNodeSelfDefaults(w, 0, 1.0));
  EXPECT_FALSE(WorldEdgeSurvives(w, 0, 0.0));
  EXPECT_TRUE(WorldEdgeSurvives(w, 0, 1.0));
}

TEST(WorldPurityTest, CoinFrequenciesMatchProbability) {
  int node_hits = 0;
  int edge_hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t w = WorldSeed(5, static_cast<uint64_t>(i));
    node_hits += WorldNodeSelfDefaults(w, 11, 0.3) ? 1 : 0;
    edge_hits += WorldEdgeSurvives(w, 11, 0.7) ? 1 : 0;
  }
  EXPECT_NEAR(node_hits / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(edge_hits / static_cast<double>(n), 0.7, 0.01);
}

// The core equivalence property: reverse evaluation of world w equals
// forward evaluation (exact::EvaluateWorld) of the identical world.
class ReverseForwardEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReverseForwardEquivalence, MatchesForwardEvaluationWorldByWorld) {
  const uint64_t seed = GetParam();
  UncertainGraph g = testing::RandomSmallGraph(9, 0.3, seed);
  ReverseSampler sampler(g, AllNodes(g));
  std::vector<char> reverse_flags;
  for (uint64_t sample = 0; sample < 200; ++sample) {
    const uint64_t w = WorldSeed(seed ^ 0x5555, sample);
    const std::vector<char> forward = ForwardDefaults(g, w);
    sampler.SampleWorld(w, &reverse_flags);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(reverse_flags[v], forward[v])
          << "world " << sample << " node " << v << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReverseForwardEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The same oracle above the CoinColumns density gate, where the sampler
// expands through the padded survivor kernel of the given tier: candidate
// subsets that share upstream regions and cycles, each sampler reused over
// many worlds, so a conclusion from world i leaking into world i+1 or into a
// later candidate's search would show as a wrong flag.
class ReverseForwardDenseEquivalence
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(ReverseForwardDenseEquivalence, CandidateSubsetsMatchForwardWorldByWorld) {
  const auto [seed, best_tier] = GetParam();
  const simd::SimdTier tier =
      best_tier ? simd::BestSupportedTier() : simd::SimdTier::kScalar;
  // The second graph's low risks make searches exhaust into safe regions
  // about as often as they find a default.
  const std::vector<UncertainGraph> graphs = {
      testing::RandomSmallGraph(24, 0.3, seed),
      testing::RandomSmallGraph(24, 0.3, seed, 0.06, 0.3)};
  // Per candidate and consecutive world pair: safe then defaulted, and
  // defaulted then safe — both must occur for the leak check to bite.
  std::size_t safe_to_defaulted = 0;
  std::size_t defaulted_to_safe = 0;
  for (const UncertainGraph& g : graphs) {
    ASSERT_TRUE(CoinColumns::Worthwhile(g));
    const std::vector<std::vector<NodeId>> subsets = {
        AllNodes(g), {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22},
        {23, 17, 11, 5, 0}, {7}};
    for (const std::vector<NodeId>& candidates : subsets) {
      ReverseSampler sampler(g, candidates, nullptr, tier);
      std::vector<char> flags;
      std::vector<char> previous;
      for (uint64_t sample = 0; sample < 120; ++sample) {
        const uint64_t w = WorldSeed(seed ^ 0xD15E, sample);
        const std::vector<char> forward = ForwardDefaults(g, w);
        sampler.SampleWorld(w, &flags);
        ASSERT_EQ(flags.size(), candidates.size());
        for (std::size_t c = 0; c < candidates.size(); ++c) {
          ASSERT_EQ(flags[c], forward[candidates[c]])
              << "world " << sample << " candidate " << candidates[c]
              << " seed " << seed << " tier " << simd::SimdTierName(tier);
          if (!previous.empty() && previous[c] != flags[c]) {
            ++(flags[c] != 0 ? safe_to_defaulted : defaulted_to_safe);
          }
        }
        previous = flags;
      }
    }
  }
  EXPECT_GT(safe_to_defaulted, 0u);
  EXPECT_GT(defaulted_to_safe, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndTiers, ReverseForwardDenseEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, bool>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_best" : "_scalar");
    });

TEST(ReverseSamplerTest, CandidateSubsetOnly) {
  UncertainGraph g = testing::PaperExampleGraph(0.3);
  const std::vector<NodeId> candidates = {3, 4};
  ReverseSampler sampler(g, candidates);
  std::vector<char> flags;
  sampler.SampleWorld(WorldSeed(1, 0), &flags);
  EXPECT_EQ(flags.size(), 2u);
}

TEST(ReverseSamplerTest, EstimatesConvergeToExact) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  const auto exact = ExactDefaultProbabilities(g);
  ASSERT_TRUE(exact.ok());
  const std::size_t t = 40000;
  const ReverseSampleStats stats = RunReverseSampling(g, AllNodes(g), t, 99);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const double p = (*exact)[v];
    const double sigma = std::sqrt(p * (1 - p) / t);
    EXPECT_NEAR(stats.estimates[v], p, 5 * sigma + 1e-9) << "node " << v;
  }
}

TEST(ReverseSamplerTest, ParallelEqualsSerial) {
  UncertainGraph g = testing::RandomSmallGraph(12, 0.25, 21);
  ThreadPool pool(8);
  const std::vector<NodeId> candidates = {0, 3, 5, 7, 11};
  const ReverseSampleStats serial =
      RunReverseSampling(g, candidates, 3000, 7, nullptr);
  const ReverseSampleStats parallel =
      RunReverseSampling(g, candidates, 3000, 7, &pool);
  EXPECT_EQ(serial.estimates, parallel.estimates);
}

TEST(ReverseSamplerTest, AgreesWithForwardSamplerDistribution) {
  // Forward (Algorithm 1) and reverse (Algorithm 5) estimate the same
  // quantity; on 20k samples they must agree within Monte-Carlo error.
  UncertainGraph g = testing::RandomSmallGraph(10, 0.3, 31);
  const std::size_t t = 20000;
  const ReverseSampleStats rev = RunReverseSampling(g, AllNodes(g), t, 1);
  // Compare against the exact oracle (cheapest precise reference).
  const auto exact = ExactDefaultProbabilities(g);
  if (exact.ok()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const double p = (*exact)[v];
      const double sigma = std::sqrt(p * (1 - p) / t) + 1e-9;
      EXPECT_NEAR(rev.estimates[v], p, 5 * sigma);
    }
  }
}

TEST(ReverseSamplerTest, ZeroSamples) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const ReverseSampleStats stats = RunReverseSampling(g, {0, 1}, 0, 1);
  EXPECT_EQ(stats.samples, 0u);
  EXPECT_EQ(stats.estimates, (std::vector<double>{0.0, 0.0}));
}

TEST(ReverseSamplerTest, EmptyCandidates) {
  UncertainGraph g = testing::ChainGraph(0.5, 0.5);
  const ReverseSampleStats stats = RunReverseSampling(g, {}, 100, 1);
  EXPECT_TRUE(stats.estimates.empty());
}

TEST(ReverseSamplerTest, SharedWorldAcrossCandidates) {
  // With ps(a)=1 and certain edges a->b->c, every candidate must default in
  // every world, and conclusions must be shared consistently.
  UncertainGraphBuilder b(3);
  ASSERT_TRUE(b.SetSelfRisk(0, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2, 1.0).ok());
  UncertainGraph g = b.Build().MoveValue();
  ReverseSampler sampler(g, {2, 1, 0});
  std::vector<char> flags;
  for (uint64_t s = 0; s < 50; ++s) {
    sampler.SampleWorld(WorldSeed(3, s), &flags);
    EXPECT_EQ(flags, (std::vector<char>{1, 1, 1}));
  }
}

TEST(ReverseSamplerTest, StopsAtTheFirstDefaultedInNeighborItReaches) {
  // Candidate 0's certain in-arcs, in arc order: hubs 1, 2, 3 (self-risk 0,
  // each fed by kFeeders certain arcs), then node 4 with self-risk 1. Node
  // 4's self coin is flipped when expanding 0 reaches it, so the search
  // stops there: no hub is ever expanded and no feeder arc's coin evaluated.
  constexpr NodeId kFeeders = 40;
  UncertainGraphBuilder b(5 + kFeeders);
  ASSERT_TRUE(b.SetSelfRisk(4, 1.0).ok());
  for (NodeId hub = 1; hub <= 4; ++hub) ASSERT_TRUE(b.AddEdge(hub, 0, 1.0).ok());
  for (NodeId hub = 1; hub <= 3; ++hub) {
    for (NodeId f = 0; f < kFeeders; ++f) {
      ASSERT_TRUE(b.AddEdge(5 + f, hub, 1.0).ok());
    }
  }
  const UncertainGraph g = b.Build().MoveValue();
  ASSERT_FALSE(CoinColumns::Worthwhile(g));
  const CoinColumns cols = CoinColumns::Build(g);
  ReverseSampler direct(g, {0});  // no columns below the gate
  ReverseSampler scalar(g, {0}, &cols, simd::SimdTier::kScalar);
  ReverseSampler best(g, {0}, &cols, simd::BestSupportedTier());
  constexpr uint64_t kWorlds = 3;
  for (ReverseSampler* sampler : {&direct, &scalar, &best}) {
    for (uint64_t w = 0; w < kWorlds; ++w) {
      std::vector<char> flags;
      // Settled: the candidate, the three hubs and node 4.
      EXPECT_EQ(sampler->SampleWorld(WorldSeed(5, w), &flags), 5u);
      EXPECT_EQ(flags, std::vector<char>{1});
    }
    // Per world: five self coins plus candidate 0's four in-arc coins.
    const simd::CoinKernelStats& coins = sampler->coin_stats();
    EXPECT_EQ(coins.batched_coins + coins.tail_coins, kWorlds * 9);
  }
}

TEST(ReverseSamplerTest, TouchedIsBoundedByCandidateWork) {
  UncertainGraph g = testing::PaperExampleGraph(0.2);
  ReverseSampler sampler(g, {4});
  std::vector<char> flags;
  const std::size_t touched = sampler.SampleWorld(WorldSeed(9, 0), &flags);
  // One candidate can touch at most every node once.
  EXPECT_LE(touched, g.num_nodes());
}

}  // namespace
}  // namespace vulnds
