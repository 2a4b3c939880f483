// End-to-end tier bit-identity: the simd= knob must never change a single
// bit of any result — rankings, scores, the early-stop position, kth hash
// order, samples_processed — for any (tier, thread count, wave schedule)
// combination. On hosts without AVX2 the forced-avx2 mode legally degrades
// to scalar, so every assertion still holds (identity becomes trivial);
// tests/simd/ covers the kernels lane-by-lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/thread_pool.h"
#include "simd/dispatch.h"
#include "testing/test_graphs.h"
#include "vulnds/bsrbk.h"
#include "vulnds/coin_columns.h"
#include "vulnds/detector.h"
#include "vulnds/reverse_sampler.h"

namespace vulnds {
namespace {

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

void ExpectSameResult(const DetectionResult& a, const DetectionResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.topk, b.topk) << what;
  ASSERT_EQ(a.scores.size(), b.scores.size()) << what;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    // Bitwise, not approximate: the contract is identity.
    EXPECT_EQ(a.scores[i], b.scores[i]) << what << " score " << i;
  }
  EXPECT_EQ(a.samples_budget, b.samples_budget) << what;
  EXPECT_EQ(a.samples_processed, b.samples_processed) << what;
  EXPECT_EQ(a.verified_count, b.verified_count) << what;
  EXPECT_EQ(a.candidate_count, b.candidate_count) << what;
  EXPECT_EQ(a.nodes_touched, b.nodes_touched) << what;
  EXPECT_EQ(a.early_stopped, b.early_stopped) << what;
}

TEST(SimdIdentityTest, SampleOrderIsIdenticalAcrossTiers) {
  for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    const BottomKSampleOrder scalar =
        MakeBottomKSampleOrder(42, t, simd::SimdTier::kScalar);
    const BottomKSampleOrder best =
        MakeBottomKSampleOrder(42, t, simd::BestSupportedTier());
    EXPECT_EQ(scalar.order, best.order) << "t=" << t;
    ASSERT_EQ(scalar.hash_of.size(), best.hash_of.size());
    for (std::size_t i = 0; i < t; ++i) {
      EXPECT_EQ(scalar.hash_of[i], best.hash_of[i]) << "t=" << t << " i=" << i;
    }
  }
}

TEST(SimdIdentityTest, DirectPathMatchesColumnKernelsOnSparseGraphs) {
  // Below the density gate samplers skip the columns and evaluate coins
  // straight off the arcs; forcing columns in must not change a bit, in
  // either tier.
  const UncertainGraph g = testing::RandomSmallGraph(60, 0.03, 515);
  ASSERT_FALSE(CoinColumns::Worthwhile(g));
  const std::vector<NodeId> candidates = AllNodes(g);
  const ReverseSampleStats direct = RunReverseSampling(
      g, candidates, 600, 5, nullptr, nullptr, simd::SimdTier::kScalar);
  const CoinColumns cols = CoinColumns::Build(g);
  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
    const ReverseSampleStats kernels =
        RunReverseSampling(g, candidates, 600, 5, nullptr, &cols, tier);
    ASSERT_EQ(kernels.estimates.size(), direct.estimates.size());
    for (std::size_t c = 0; c < kernels.estimates.size(); ++c) {
      EXPECT_EQ(kernels.estimates[c], direct.estimates[c])
          << "tier=" << simd::SimdTierName(tier) << " candidate " << c;
    }
    EXPECT_EQ(kernels.nodes_touched, direct.nodes_touched);
  }
}

// The HashUnit value a coin switches at: the largest prob for which
// `survives(prob)` is still false (survival is monotone in prob, and the
// bit patterns of positive doubles are ordered like their values). A coin
// with exactly this probability must not survive; one ulp above, it must.
double SwitchPoint(const std::function<bool(double)>& survives) {
  uint64_t lo = std::bit_cast<uint64_t>(0.0);  // never survives
  uint64_t hi = std::bit_cast<uint64_t>(1.0);  // always survives
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (survives(std::bit_cast<double>(mid)) ? hi : lo) = mid;
  }
  return std::bit_cast<double>(lo);
}

// A sparse graph (below the density gate) whose coins sit on the edge of
// the predicate: the special probabilities 0, 1, denorm_min and
// nextafter(1, 0), and — for every other edge and node — the exact switch
// point of that coin in one of the first `worlds` worlds, or one ulp
// below or above it.
UncertainGraph BoundaryProbabilityGraph(uint64_t seed, std::size_t worlds) {
  constexpr std::size_t kNodes = 48;
  const double special[] = {0.0, 1.0, std::numeric_limits<double>::denorm_min(),
                            std::nextafter(1.0, 0.0)};
  const auto near_switch = [&](std::size_t i, double at) {
    switch (i % 3) {
      case 0: return at;
      case 1: return std::nextafter(at, 0.0);
      default: return std::nextafter(at, 2.0);
    }
  };
  UncertainGraphBuilder b(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    const uint64_t world = WorldSeed(seed, v % worlds);
    const double at = SwitchPoint([&](double p) {
      return WorldNodeSelfDefaults(world, v, p);
    });
    // Half the nodes get denorm_min (never defaults, yet not the 0
    // early-out) so reverse BFS runs reach past their first node; the switch
    // points themselves are near-uniform in (0, 1).
    double risk = special[2];
    if (v % 4 == 0) risk = special[v / 4 % 4];
    if (v % 4 == 1) risk = near_switch(v / 4, at);
    testing::CheckOk(b.SetSelfRisk(v, risk));
  }
  Rng rng(seed);
  for (EdgeId e = 0; e < 2 * kNodes; ++e) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(kNodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(kNodes));
    if (dst == src) dst = (dst + 1) % kNodes;
    const uint64_t world = WorldSeed(seed, e % worlds);
    const double at = SwitchPoint([&](double p) {
      return WorldEdgeSurvives(world, e, p);
    });
    const double prob = e % 5 == 4 ? special[e / 5 % 4] : near_switch(e, at);
    testing::CheckOk(b.AddEdge(src, dst, prob));  // edge id == e
  }
  return b.Build().MoveValue();
}

// Algorithm 5's answer for every node, straight from the defining
// predicates: v defaults iff a self-defaulted node reaches it over
// surviving edges.
std::vector<char> ReferenceDefaults(const UncertainGraph& g,
                                    uint64_t world_seed) {
  std::vector<char> out(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<char> seen(g.num_nodes(), 0);
    std::vector<NodeId> queue = {v};
    seen[v] = 1;
    for (std::size_t head = 0; head < queue.size() && !out[v]; ++head) {
      const NodeId u = queue[head];
      if (WorldNodeSelfDefaults(world_seed, u, g.self_risk(u))) out[v] = 1;
      for (const Arc& arc : g.InArcs(u)) {
        if (!seen[arc.neighbor] &&
            WorldEdgeSurvives(world_seed, arc.edge, arc.prob)) {
          seen[arc.neighbor] = 1;
          queue.push_back(arc.neighbor);
        }
      }
    }
  }
  return out;
}

TEST(SimdIdentityTest, BoundaryProbabilitiesAgreeWorldByWorld) {
  // Coins exactly on, and one ulp around, their switch points: the direct
  // sparse path, both forced column tiers and the defining predicates must
  // agree on every flag and (between samplers) every expansion count.
  constexpr uint64_t kSeed = 21;
  constexpr std::size_t kWorlds = 24;
  const UncertainGraph g = BoundaryProbabilityGraph(kSeed, kWorlds);
  ASSERT_FALSE(CoinColumns::Worthwhile(g));
  const CoinColumns cols = CoinColumns::Build(g);
  const std::vector<NodeId> candidates = AllNodes(g);
  ReverseSampler direct(g, candidates);  // no columns below the gate
  ReverseSampler scalar(g, candidates, &cols, simd::SimdTier::kScalar);
  ReverseSampler best(g, candidates, &cols, simd::BestSupportedTier());
  std::size_t defaults = 0;
  for (std::size_t w = 0; w < kWorlds; ++w) {
    const uint64_t world = WorldSeed(kSeed, w);
    std::vector<char> d, s, b;
    const std::size_t touched = direct.SampleWorld(world, &d);
    EXPECT_EQ(scalar.SampleWorld(world, &s), touched) << "world " << w;
    EXPECT_EQ(best.SampleWorld(world, &b), touched) << "world " << w;
    EXPECT_EQ(s, d) << "scalar columns, world " << w;
    EXPECT_EQ(b, d) << "best-tier columns, world " << w;
    EXPECT_EQ(ReferenceDefaults(g, world), d) << "world " << w;
    defaults += static_cast<std::size_t>(std::count(d.begin(), d.end(), 1));
  }
  // Neither trivially all-safe nor all-defaulted.
  EXPECT_GT(defaults, 0u);
  EXPECT_LT(defaults, kWorlds * g.num_nodes());
}

TEST(SimdIdentityTest, ReverseSamplingIsIdenticalAcrossTiersAndThreads) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.12, 2024);
  const std::vector<NodeId> candidates = AllNodes(g);
  const ReverseSampleStats reference = RunReverseSampling(
      g, candidates, 800, 7, nullptr, nullptr, simd::SimdTier::kScalar);
  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
      const ReverseSampleStats stats =
          RunReverseSampling(g, candidates, 800, 7, pool, nullptr, tier);
      ASSERT_EQ(stats.estimates.size(), reference.estimates.size());
      for (std::size_t c = 0; c < stats.estimates.size(); ++c) {
        EXPECT_EQ(stats.estimates[c], reference.estimates[c])
            << "tier=" << simd::SimdTierName(tier) << " candidate " << c;
      }
      EXPECT_EQ(stats.nodes_touched, reference.nodes_touched)
          << "tier=" << simd::SimdTierName(tier);
    }
  }
}

TEST(SimdIdentityTest, BottomKRunIsIdenticalAcrossTiersThreadsAndWaves) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.12, 4711);
  const std::vector<NodeId> candidates = AllNodes(g);
  BottomKRunOptions serial_scalar;
  serial_scalar.simd_tier = simd::SimdTier::kScalar;
  const Result<BottomKRunStats> reference =
      RunBottomKSampling(g, candidates, 1500, 3, 8, 99, serial_scalar);
  ASSERT_TRUE(reference.ok());

  ThreadPool pool2(2), pool7(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::BestSupportedTier()}) {
      for (const WaveMode mode : {WaveMode::kAdaptive, WaveMode::kFixed}) {
        BottomKRunOptions run;
        run.pool = pool;
        run.simd_tier = tier;
        run.wave.mode = mode;
        const Result<BottomKRunStats> stats =
            RunBottomKSampling(g, candidates, 1500, 3, 8, 99, run);
        ASSERT_TRUE(stats.ok());
        const std::string what = std::string("tier=") + simd::SimdTierName(tier);
        EXPECT_EQ(stats->samples_processed, reference->samples_processed) << what;
        EXPECT_EQ(stats->early_stopped, reference->early_stopped) << what;
        EXPECT_EQ(stats->nodes_touched, reference->nodes_touched) << what;
        EXPECT_EQ(stats->reached_bk, reference->reached_bk) << what;
        ASSERT_EQ(stats->estimates.size(), reference->estimates.size());
        for (std::size_t c = 0; c < stats->estimates.size(); ++c) {
          EXPECT_EQ(stats->estimates[c], reference->estimates[c])
              << what << " candidate " << c;
        }
      }
    }
  }
}

TEST(SimdIdentityTest, FullDetectTranscriptsIdenticalAcrossTiersAndThreads) {
  const UncertainGraph graphs[] = {testing::PaperExampleGraph(0.3),
                                   testing::RandomSmallGraph(50, 0.1, 321)};
  ThreadPool pool2(2), pool7(7);
  for (const UncertainGraph& g : graphs) {
    for (const Method method :
         {Method::kSampleReverse, Method::kBsr, Method::kBsrbk}) {
      DetectorOptions reference_options;
      reference_options.method = method;
      reference_options.k = 3;
      reference_options.simd_mode = simd::SimdMode::kScalar;
      const Result<DetectionResult> reference =
          DetectTopK(g, reference_options);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();

      for (const simd::SimdMode mode :
           {simd::SimdMode::kAuto, simd::SimdMode::kScalar,
            simd::SimdMode::kAvx2}) {
        for (ThreadPool* pool :
             {static_cast<ThreadPool*>(nullptr), &pool2, &pool7}) {
          DetectorOptions options = reference_options;
          options.simd_mode = mode;
          options.pool = pool;
          const Result<DetectionResult> got = DetectTopK(g, options);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameResult(*reference, *got,
                           std::string(MethodName(method)) + " simd=" +
                               simd::SimdModeName(mode));
        }
      }
    }
  }
}

// A warm context must serve the same bits as a cold run when the tiers of
// the warming query and the served query differ: cached sample orders are
// tier-independent by construction.
TEST(SimdIdentityTest, WarmContextServesIdenticalBitsAcrossTiers) {
  const UncertainGraph g = testing::RandomSmallGraph(40, 0.15, 777);
  DetectorOptions scalar_options;
  scalar_options.k = 3;
  scalar_options.simd_mode = simd::SimdMode::kScalar;
  DetectorOptions avx2_options = scalar_options;
  avx2_options.simd_mode = simd::SimdMode::kAvx2;

  const Result<DetectionResult> cold = DetectTopK(g, scalar_options);
  ASSERT_TRUE(cold.ok());

  DetectionContext warmed_by_avx2;
  ASSERT_TRUE(DetectTopK(g, avx2_options, &warmed_by_avx2).ok());
  const Result<DetectionResult> warm_scalar =
      DetectTopK(g, scalar_options, &warmed_by_avx2);
  ASSERT_TRUE(warm_scalar.ok());
  EXPECT_GT(warmed_by_avx2.reuse_hits, 0u);
  ExpectSameResult(*cold, *warm_scalar, "warm avx2 -> scalar");
}

}  // namespace
}  // namespace vulnds
