// Property tests for the ADAPTIVE wave scheduler: for every thread count,
// every ramp schedule, and every (honest or adversarial) lower-bound hint,
// RunBottomKSampling must be bit-identical to the serial loop. The schedule
// may only move wall-clock time and the worlds_wasted / waves_issued
// telemetry; the moment it moves anything else, these tests fail.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "testing/test_graphs.h"
#include "vulnds/bounds.h"
#include "vulnds/bsrbk.h"

namespace vulnds {
namespace {

// Same generator family as bsrbk_parallel_test: a noisy ring with chords,
// big enough that worlds do non-trivial BFS work but early stop still fires.
UncertainGraph RingWithChords(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  UncertainGraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.SetSelfRisk(v, 0.05 + 0.4 * rng.NextDouble()));
  }
  for (NodeId v = 0; v < n; ++v) {
    testing::CheckOk(b.AddEdge(v, (v + 1) % n, rng.NextDouble()));
    if (rng.NextDouble() < 0.5) {
      const NodeId w = (v + 2 + rng.NextBounded(n - 3)) % n;
      if (w != v) testing::CheckOk(b.AddEdge(v, w, 0.5 * rng.NextDouble()));
    }
  }
  return b.Build().MoveValue();
}

std::vector<NodeId> AllNodes(const UncertainGraph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) ids[v] = v;
  return ids;
}

void ExpectBitIdentical(const BottomKRunStats& serial,
                        const BottomKRunStats& adaptive, const char* what) {
  EXPECT_EQ(serial.samples_processed, adaptive.samples_processed) << what;
  EXPECT_EQ(serial.total_samples, adaptive.total_samples) << what;
  EXPECT_EQ(serial.nodes_touched, adaptive.nodes_touched) << what;
  EXPECT_EQ(serial.early_stopped, adaptive.early_stopped) << what;
  ASSERT_EQ(serial.estimates.size(), adaptive.estimates.size()) << what;
  for (std::size_t c = 0; c < serial.estimates.size(); ++c) {
    EXPECT_EQ(serial.estimates[c], adaptive.estimates[c])  // bit-exact
        << what << " candidate " << c;
    EXPECT_EQ(serial.reached_bk[c], adaptive.reached_bk[c])
        << what << " candidate " << c;
  }
}

std::vector<std::size_t> SweptThreadCounts() {
  return {1, 2, 7,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

BottomKRunOptions AdaptiveRun(ThreadPool* pool, std::size_t probe,
                              std::size_t ramp,
                              const std::vector<double>* lower = nullptr) {
  BottomKRunOptions run;
  run.pool = pool;
  run.wave.mode = WaveMode::kAdaptive;
  run.wave.probe_size = probe;
  run.wave.ramp = ramp;
  run.candidate_lower_bounds = lower;
  return run;
}

TEST(BsrbkAdaptiveTest, RampScheduleSweepIsBitIdentical) {
  const UncertainGraph g = RingWithChords(40, 97);
  const std::vector<NodeId> candidates = AllNodes(g);
  const auto serial = RunBottomKSampling(g, candidates, 500, 2, 8, 1234);
  ASSERT_TRUE(serial.ok());
  // Probe and ramp shape every wave boundary; none of them may matter.
  const std::size_t probes[] = {0, 1, 3, 64, 1000};
  const std::size_t ramps[] = {0, 2, 3, 7};
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    for (const std::size_t probe : probes) {
      for (const std::size_t ramp : ramps) {
        const auto adaptive = RunBottomKSampling(
            g, candidates, 500, 2, 8, 1234,
            AdaptiveRun(&pool, probe, ramp));
        ASSERT_TRUE(adaptive.ok());
        ExpectBitIdentical(*serial, *adaptive,
                           ("threads=" + std::to_string(threads) +
                            " probe=" + std::to_string(probe) +
                            " ramp=" + std::to_string(ramp))
                               .c_str());
      }
    }
  }
}

TEST(BsrbkAdaptiveTest, AdversarialStopAlignments) {
  // The serial run tells us the stop position S; then a probe wave of
  // exactly S (stop on the last world of the first wave), S - 1 (stop is
  // the first world of the second wave), S + 1 (the probe outruns the
  // stop), and a probe far beyond S (stop deep inside the first wave) must
  // all fold to the same answer.
  const UncertainGraph g = RingWithChords(30, 11);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 2000;
  const auto serial = RunBottomKSampling(g, candidates, t, 1, 8, 31);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->early_stopped);
  const std::size_t stop = serial->samples_processed;
  ASSERT_GT(stop, 1u);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    for (const std::size_t probe : {stop, stop - 1, stop + 1, 4 * stop}) {
      const auto adaptive = RunBottomKSampling(g, candidates, t, 1, 8, 31,
                                               AdaptiveRun(&pool, probe, 2));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("threads=" + std::to_string(threads) +
                          " probe=" + std::to_string(probe))
                             .c_str());
      if (threads > 1) {
        // Whatever the alignment, waste is bounded by the final wave and
        // the telemetry must account exactly for materialized - folded.
        EXPECT_TRUE(adaptive->early_stopped);
        EXPECT_GE(adaptive->waves_issued, 1u);
      }
    }
  }
}

TEST(BsrbkAdaptiveTest, LyingLowerBoundsNeverChangeResults) {
  // The lower-bound hint steers the estimator only. Bounds that overstate
  // the default rate (estimate undershoots -> waves clamp too small) and
  // bounds that understate it (estimate overshoots -> waves ramp to the
  // cap) must both leave every result byte identical.
  const UncertainGraph g = RingWithChords(25, 5);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 600;
  const auto serial = RunBottomKSampling(g, candidates, t, 2, 6, 77);
  ASSERT_TRUE(serial.ok());
  const std::vector<double> overshoot(candidates.size(), 1e-9);
  const std::vector<double> undershoot(candidates.size(), 0.999);
  const std::vector<double> zeros(candidates.size(), 0.0);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    for (const std::vector<double>* lower :
         {&overshoot, &undershoot, &zeros,
          static_cast<const std::vector<double>*>(nullptr)}) {
      const auto adaptive = RunBottomKSampling(
          g, candidates, t, 2, 6, 77, AdaptiveRun(&pool, 0, 0, lower));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("threads=" + std::to_string(threads)).c_str());
    }
  }
}

TEST(BsrbkAdaptiveTest, MismatchedLowerBoundSizeIsRejected) {
  const UncertainGraph g = RingWithChords(10, 3);
  const std::vector<NodeId> candidates = AllNodes(g);
  ThreadPool pool(2);
  const std::vector<double> wrong(candidates.size() + 1, 0.1);
  const auto run = RunBottomKSampling(g, candidates, 100, 1, 4, 7,
                                      AdaptiveRun(&pool, 0, 0, &wrong));
  EXPECT_FALSE(run.ok());
}

TEST(BsrbkAdaptiveTest, ExhaustedBudgetWastesNothing) {
  // No early stop (bk unreachable): every world folds, so the schedule may
  // issue however many waves it likes but must waste zero worlds.
  UncertainGraphBuilder b(6);
  for (NodeId v = 0; v < 6; ++v) testing::CheckOk(b.SetSelfRisk(v, 0.02));
  const UncertainGraph g = b.Build().MoveValue();
  const std::vector<NodeId> candidates = AllNodes(g);
  const auto serial = RunBottomKSampling(g, candidates, 333, 1, 64, 9);
  ASSERT_TRUE(serial.ok());
  ASSERT_FALSE(serial->early_stopped);
  for (const std::size_t threads : SweptThreadCounts()) {
    ThreadPool pool(threads);
    const auto adaptive = RunBottomKSampling(g, candidates, 333, 1, 64, 9,
                                             AdaptiveRun(&pool, 0, 0));
    ASSERT_TRUE(adaptive.ok());
    ExpectBitIdentical(*serial, *adaptive,
                       ("threads=" + std::to_string(threads)).c_str());
    EXPECT_EQ(adaptive->worlds_wasted, 0u);
    EXPECT_EQ(adaptive->samples_processed, 333u);
  }
}

TEST(BsrbkAdaptiveTest, AdaptiveWastesLessThanFixedOnShortStop) {
  // The scheduler's reason to exist: a stop position far inside the fixed
  // wave. With 4 workers the fixed schedule materializes a 128-world wave;
  // a stop in the first few dozen positions wastes most of it, while the
  // adaptive probe-and-clamp schedule wastes a handful. Deterministic given
  // the seed, so a strict inequality is safe to pin.
  const UncertainGraph g = RingWithChords(35, 19);
  const std::vector<NodeId> candidates = AllNodes(g);
  const std::size_t t = 4000;
  const auto serial = RunBottomKSampling(g, candidates, t, 1, 6, 13);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(serial->early_stopped);
  ASSERT_LT(serial->samples_processed, 64u)
      << "workload drifted; pick a seed with a short stop";
  ThreadPool pool(4);
  BottomKRunOptions fixed;
  fixed.pool = &pool;
  fixed.wave.mode = WaveMode::kFixed;
  const auto fixed_run =
      RunBottomKSampling(g, candidates, t, 1, 6, 13, fixed);
  ASSERT_TRUE(fixed_run.ok());
  const auto adaptive_run = RunBottomKSampling(g, candidates, t, 1, 6, 13,
                                               AdaptiveRun(&pool, 0, 0));
  ASSERT_TRUE(adaptive_run.ok());
  ExpectBitIdentical(*serial, *fixed_run, "fixed");
  ExpectBitIdentical(*serial, *adaptive_run, "adaptive");
  EXPECT_LT(adaptive_run->worlds_wasted, fixed_run->worlds_wasted);
}

// The serial choice: with analytic lower bounds, an adaptive pooled run
// projected to stop inside one full wave (4 workers x 32 worlds) runs the
// serial loop — waves_issued == 0 — and matches the 1-wide run bit for bit.
TEST(BsrbkAdaptiveTest, ShortProjectedRunTakesTheSerialLoop) {
  const UncertainGraph g = RingWithChords(40, 23);
  const std::vector<NodeId> candidates = AllNodes(g);
  const Result<std::vector<double>> lower = LowerBounds(g, 2);
  ASSERT_TRUE(lower.ok());
  ThreadPool one(1), four(4);
  const auto narrow = RunBottomKSampling(g, candidates, 2000, 2, 8, 41,
                                         AdaptiveRun(&one, 0, 0, &*lower));
  const auto wide = RunBottomKSampling(g, candidates, 2000, 2, 8, 41,
                                       AdaptiveRun(&four, 0, 0, &*lower));
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(narrow->early_stopped);
  ASSERT_LT(narrow->samples_processed, 4u * 32u)
      << "workload drifted; pick a seed with a short stop";
  ExpectBitIdentical(*narrow, *wide, "4-wide vs 1-wide");
  EXPECT_EQ(wide->waves_issued, 0u);
  EXPECT_EQ(wide->worlds_wasted, 0u);

  // The same run without lower bounds has no projection at position 0 and
  // keeps the wave machinery, as does the fixed schedule with them.
  const auto unbounded = RunBottomKSampling(g, candidates, 2000, 2, 8, 41,
                                            AdaptiveRun(&four, 0, 0));
  ASSERT_TRUE(unbounded.ok());
  ExpectBitIdentical(*narrow, *unbounded, "4-wide without lower bounds");
  EXPECT_GT(unbounded->waves_issued, 0u);
  BottomKRunOptions fixed = AdaptiveRun(&four, 0, 0, &*lower);
  fixed.wave.mode = WaveMode::kFixed;
  const auto fixed_run =
      RunBottomKSampling(g, candidates, 2000, 2, 8, 41, fixed);
  ASSERT_TRUE(fixed_run.ok());
  ExpectBitIdentical(*narrow, *fixed_run, "4-wide fixed schedule");
  EXPECT_GT(fixed_run->waves_issued, 0u);
}

TEST(BsrbkAdaptiveTest, LongProjectedRunStillIssuesWaves) {
  // A high bk pushes the projection past one full wave: the pool is used.
  const UncertainGraph g = RingWithChords(40, 23);
  const std::vector<NodeId> candidates = AllNodes(g);
  const Result<std::vector<double>> lower = LowerBounds(g, 2);
  ASSERT_TRUE(lower.ok());
  ThreadPool one(1), four(4);
  const auto narrow = RunBottomKSampling(g, candidates, 4000, 2, 200, 41,
                                         AdaptiveRun(&one, 0, 0, &*lower));
  const auto wide = RunBottomKSampling(g, candidates, 4000, 2, 200, 41,
                                       AdaptiveRun(&four, 0, 0, &*lower));
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  ASSERT_GE(narrow->samples_processed, 4u * 32u)
      << "workload drifted; the stop must lie past one full wave";
  ExpectBitIdentical(*narrow, *wide, "4-wide vs 1-wide, bk=200");
  EXPECT_GT(wide->waves_issued, 0u);
  EXPECT_EQ(narrow->waves_issued, 0u);
}

TEST(BsrbkAdaptiveTest, SeedSweepAcrossThreadCountsAndHints) {
  // Broad property sweep mirroring the fixed-schedule suite: many
  // (graph, seed) pairs, every thread count, with and without hints.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const UncertainGraph g = RingWithChords(15 + seed % 7, seed * 13 + 1);
    const std::vector<NodeId> candidates = AllNodes(g);
    const std::size_t t = 200 + seed * 37;
    const auto serial = RunBottomKSampling(g, candidates, t, 2, 5, seed);
    ASSERT_TRUE(serial.ok());
    const std::vector<double> hint(candidates.size(), 0.01 * (seed % 5));
    for (const std::size_t threads : SweptThreadCounts()) {
      ThreadPool pool(threads);
      const auto adaptive = RunBottomKSampling(
          g, candidates, t, 2, 5, seed, AdaptiveRun(&pool, 0, 0, &hint));
      ASSERT_TRUE(adaptive.ok());
      ExpectBitIdentical(*serial, *adaptive,
                         ("seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads))
                             .c_str());
    }
  }
}

}  // namespace
}  // namespace vulnds
