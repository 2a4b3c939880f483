// Micro-benchmarks (google-benchmark) for the core sampling machinery:
// per-world cost of forward vs reverse sampling, the bound iterations,
// candidate reduction and the bottom-k sketch.

#include <benchmark/benchmark.h>

#include <numeric>

#include "gen/datasets.h"
#include "sketch/bottom_k.h"
#include "vulnds/basic_sampler.h"
#include "vulnds/bounds.h"
#include "vulnds/candidate_reduction.h"
#include "vulnds/reverse_sampler.h"

namespace {

using namespace vulnds;

const UncertainGraph& CitationGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kCitation, 1.0, 42).MoveValue();
  return graph;
}

const UncertainGraph& BitcoinGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kBitcoin, 1.0, 42).MoveValue();
  return graph;
}

// P2P and Guarantee sit below the CoinColumns density gate, so their
// samplers take the direct per-arc coin path instead of the batched kernels.
const UncertainGraph& P2PGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kP2P, 1.0, 42).MoveValue();
  return graph;
}

const UncertainGraph& GuaranteeGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kGuarantee, 1.0, 42).MoveValue();
  return graph;
}

void BM_ForwardSampleWorld(benchmark::State& state) {
  const UncertainGraph& graph =
      state.range(0) == 0 ? CitationGraph() : BitcoinGraph();
  ForwardWorldSampler sampler(graph);
  Rng rng(1);
  std::vector<char> defaulted;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleWorld(rng, &defaulted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardSampleWorld)->Arg(0)->Arg(1);

// Wiki sits above the gate: the analyst mix's column-kernel graph.
const UncertainGraph& WikiGraph() {
  static const UncertainGraph graph =
      MakeDataset(DatasetId::kWiki, 1.0, 42).MoveValue();
  return graph;
}

// Arg: 0 Citation, 3 Guarantee, 2 P2P (direct coins below the density
// gate); 1 Bitcoin, 4 Wiki (column kernels).
const UncertainGraph& ReverseBenchGraph(int64_t arg) {
  switch (arg) {
    case 0: return CitationGraph();
    case 1: return BitcoinGraph();
    case 2: return P2PGraph();
    case 3: return GuaranteeGraph();
    default: return WikiGraph();
  }
}

void BM_ReverseSampleWorld(benchmark::State& state) {
  const UncertainGraph& graph = ReverseBenchGraph(state.range(0));
  // Candidates: the top 5% by upper bound, the realistic BSR workload.
  const auto upper = UpperBounds(graph, 2);
  const auto lower = LowerBounds(graph, 2);
  const auto reduced =
      ReduceCandidates(*lower, *upper, graph.num_nodes() / 20);
  ReverseSampler sampler(graph, reduced->candidates);
  std::vector<char> defaulted;
  uint64_t world = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.SampleWorld(WorldSeed(7, world++), &defaulted));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReverseSampleWorld)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_LowerBounds(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LowerBounds(graph, order));
  }
}
BENCHMARK(BM_LowerBounds)->Arg(1)->Arg(2)->Arg(5);

void BM_UpperBounds(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const int order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpperBounds(graph, order));
  }
}
BENCHMARK(BM_UpperBounds)->Arg(1)->Arg(2)->Arg(5);

void BM_CandidateReduction(benchmark::State& state) {
  const UncertainGraph& graph = BitcoinGraph();
  const auto lower = LowerBounds(graph, 2);
  const auto upper = UpperBounds(graph, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReduceCandidates(*lower, *upper, graph.num_nodes() / 20));
  }
}
BENCHMARK(BM_CandidateReduction);

void BM_BottomKSketchAdd(benchmark::State& state) {
  const int bk = static_cast<int>(state.range(0));
  BottomKSketch sketch(bk, 99);
  uint64_t id = 0;
  for (auto _ : state) {
    sketch.Add(id++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKSketchAdd)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
