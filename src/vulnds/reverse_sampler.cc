#include "vulnds/reverse_sampler.h"

#include <algorithm>
#include <span>

#include "common/rng.h"

namespace vulnds {

namespace {
// Domain separators so node coins, edge coins and world seeds never collide.
constexpr uint64_t kNodeSalt = 0x9AE16A3B2F90404FULL;
constexpr uint64_t kEdgeSalt = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kWorldSalt = 0x165667B19E3779F9ULL;

// Column-path block: four vector blocks, the AVX2 kernel's unrolled pass.
// Smaller blocks stop sooner but leave that pass partly empty; the whole
// run pays for every coin past the first default.
constexpr std::size_t kBlockSlots = 4 * simd::kCoinLanes;
}  // namespace

uint64_t WorldSeed(uint64_t seed, uint64_t sample_index) {
  return Mix64(seed ^ Mix64(sample_index + kWorldSalt));
}

// UniformHash(world_seed ^ salt).HashUnit(id) < prob, with the 0/1
// early-outs — spelled through the one inline predicate the sampler's
// direct path uses, so the spec and the fast path are the same function.
bool WorldNodeSelfDefaults(uint64_t world_seed, NodeId v, double self_risk) {
  return simd::CoinHitsProb(world_seed ^ kNodeSalt, simd::CoinInnerHash(v),
                            self_risk);
}

bool WorldEdgeSurvives(uint64_t world_seed, EdgeId e, double prob) {
  return simd::CoinHitsProb(world_seed ^ kEdgeSalt, simd::CoinInnerHash(e),
                            prob);
}

CandidateCoinTable CandidateCoinTable::Build(
    const UncertainGraph& graph, const std::vector<NodeId>& candidates) {
  CandidateCoinTable table;
  table.self_inner.reserve(candidates.size());
  table.arc_begin.reserve(candidates.size() + 1);
  std::size_t arcs = 0;
  for (const NodeId v : candidates) {
    table.self_inner.push_back(simd::CoinInnerHash(v));
    table.arc_begin.push_back(arcs);
    arcs += graph.InDegree(v);
  }
  table.arc_begin.push_back(arcs);
  table.arc_inner.reserve(arcs);
  for (const NodeId v : candidates) {
    for (const Arc& arc : graph.InArcs(v)) {
      table.arc_inner.push_back(simd::CoinInnerHash(arc.edge));
    }
  }
  return table;
}

RunCoins::RunCoins(const UncertainGraph& graph,
                   const std::vector<NodeId>& candidates,
                   const CoinColumns* columns)
    : columns_(columns) {
  if (columns_ == nullptr && CoinColumns::Worthwhile(graph)) {
    owned_columns_ = CoinColumns::Shared(graph);
    columns_ = owned_columns_.get();
  }
  // Without columns (sparse graph below the density gate) samplers evaluate
  // each coin's defining double predicate directly off the arcs
  // (simd::CoinHitsProb) — bit-identical to the column thresholds by the
  // kernel contract — with no column build at all.
  if (columns_ == nullptr) {
    candidate_coins_ = CandidateCoinTable::Build(graph, candidates);
  }
}

ReverseSampler::ReverseSampler(const UncertainGraph& graph,
                               std::vector<NodeId> candidates,
                               const CoinColumns* columns,
                               simd::SimdTier tier,
                               const CandidateCoinTable* candidate_coins)
    : graph_(graph),
      candidates_(std::move(candidates)),
      columns_(columns),
      candidate_coins_(candidate_coins),
      tier_(tier),
      conclusion_stamp_(graph.num_nodes(), 0),
      conclusion_(graph.num_nodes(), 0),
      visited_stamp_(graph.num_nodes(), 0) {
  if (columns_ == nullptr && candidate_coins_ == nullptr) {
    owned_coins_ = std::make_unique<const RunCoins>(graph, candidates_);
    columns_ = owned_coins_->columns();
    candidate_coins_ = owned_coins_->candidate_coins();
  }
  queue_.reserve(graph.num_nodes());
}

bool ReverseSampler::NodeSelfDefaults(NodeId v, const uint64_t* self_inner) {
  // WorldNodeSelfDefaults itself without columns; with them, its integer
  // form (CoinThreshold folds the 0/1 early-outs in) — bit-identical by the
  // kernel contract.
  ++coin_stats_.tail_coins;
  if (columns_ == nullptr) {
    return simd::CoinHitsProb(
        node_seed_,
        self_inner != nullptr ? *self_inner : simd::CoinInnerHash(v),
        graph_.self_risk(v));
  }
  return simd::CoinHits(node_seed_, columns_->node_inner[v],
                        columns_->node_threshold[v]);
}

ReverseSampler::Conclusion ReverseSampler::GetConclusion(NodeId v) const {
  if (conclusion_stamp_[v] != sample_stamp_) return Conclusion::kUnknown;
  return static_cast<Conclusion>(conclusion_[v]);
}

void ReverseSampler::SetConclusion(NodeId v, Conclusion c) {
  conclusion_stamp_[v] = sample_stamp_;
  conclusion_[v] = static_cast<char>(c);
}

bool ReverseSampler::Reach(NodeId w, std::size_t* touched,
                           const uint64_t* self_inner) {
  if (visited_stamp_[w] == visit_stamp_) return false;
  visited_stamp_[w] = visit_stamp_;
  // Line 7: reuse a previous conclusion about w in this sample.
  switch (GetConclusion(w)) {
    case Conclusion::kDefaulted:
      return true;
    case Conclusion::kSafe:
      return false;  // dead region; do not expand
    case Conclusion::kUnknown:
      break;
  }
  // Lines 9-13: flip w's self-risk coin (memoized by world purity).
  ++*touched;
  if (NodeSelfDefaults(w, self_inner)) {
    SetConclusion(w, Conclusion::kDefaulted);
    return true;
  }
  queue_.push_back(w);
  return false;
}

bool ReverseSampler::EvaluateCandidate(std::size_t index,
                                       std::size_t* touched) {
  // Algorithm 5 lines 2-20, one candidate. Reach settles each node when it
  // is first reached, so the search stops at the first default it finds
  // without expanding the nodes queued ahead of it.
  // Below the gate the candidate's own coins come from the run's table; a
  // non-empty queue starts with the candidate, so head 0 expands it.
  const CandidateCoinTable* table = candidate_coins_;
  ++visit_stamp_;
  queue_.clear();
  bool found_default =
      Reach(candidates_[index], touched,
            table != nullptr ? &table->self_inner[index] : nullptr);
  for (std::size_t head = 0; head < queue_.size() && !found_default; ++head) {
    const NodeId u = queue_[head];
    // Lines 14-20: expand along surviving in-edges, in ascending arc order
    // on both paths, so the queue is byte-identical for every tier.
    if (columns_ == nullptr) {
      // Sparse graph below the density gate: direct per-arc coins.
      const std::span<const Arc> arcs = graph_.InArcs(u);
      const uint64_t* table_inner =
          head == 0 ? table->arc_inner.data() + table->arc_begin[index]
                    : nullptr;
      for (std::size_t j = 0; j < arcs.size(); ++j) {
        ++coin_stats_.tail_coins;
        const uint64_t inner = table_inner != nullptr
                                   ? table_inner[j]
                                   : simd::CoinInnerHash(arcs[j].edge);
        if (simd::CoinHitsProb(edge_seed_, inner, arcs[j].prob) &&
            Reach(arcs[j].neighbor, touched)) {
          found_default = true;
          break;
        }
      }
    } else {
      // The run's coins a 16-slot block per batched-kernel call (worlds are
      // pure, so testing a coin for an already-visited neighbor changes
      // nothing); survivors come back in ascending arc order, and no block
      // past the one whose survivor reaches a default is evaluated.
      const std::size_t run_begin = columns_->pad_offsets[u];
      const std::size_t degree = graph_.InDegree(u);
      for (std::size_t block = 0; block < degree && !found_default;
           block += kBlockSlots) {
        const std::size_t slot = run_begin + block;
        uint32_t survivor[kBlockSlots];
        const std::size_t survivors = simd::CoinSurvivorsPadded(
            tier_, edge_seed_, columns_->edge_inner.data() + slot,
            columns_->edge_threshold.data() + slot,
            std::min(kBlockSlots, degree - block), survivor, &coin_stats_);
        for (std::size_t s = 0; s < survivors; ++s) {
          if (Reach(columns_->edge_neighbor[slot + survivor[s]], touched)) {
            found_default = true;
            break;
          }
        }
      }
    }
  }

  if (found_default) {
    SetConclusion(candidates_[index], Conclusion::kDefaulted);
    return true;
  }
  // Exhausted without a default: the queue holds exactly the explored
  // region, which is reverse-unreachable from any defaulted node in this
  // world.
  for (const NodeId u : queue_) SetConclusion(u, Conclusion::kSafe);
  return false;
}

std::size_t ReverseSampler::SampleWorld(uint64_t world_seed,
                                        std::vector<char>* defaulted) {
  edge_seed_ = world_seed ^ kEdgeSalt;
  node_seed_ = world_seed ^ kNodeSalt;
  ++sample_stamp_;
  defaulted->assign(candidates_.size(), 0);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    (*defaulted)[i] = EvaluateCandidate(i, &touched) ? 1 : 0;
  }
  return touched;
}

namespace {

void RunChunk(const UncertainGraph& graph, const std::vector<NodeId>& candidates,
              const RunCoins& coins, simd::SimdTier tier, uint64_t seed,
              std::size_t begin, std::size_t end, std::vector<uint32_t>* counts,
              std::size_t* touched, simd::CoinKernelStats* coin_stats) {
  ReverseSampler sampler(graph, candidates, coins.columns(), tier,
                         coins.candidate_coins());
  std::vector<char> defaulted;
  for (std::size_t i = begin; i < end; ++i) {
    *touched += sampler.SampleWorld(WorldSeed(seed, i), &defaulted);
    simd::AccumulateCounts(
        tier, counts->data(),
        reinterpret_cast<const unsigned char*>(defaulted.data()),
        defaulted.size());
  }
  coin_stats->Add(sampler.coin_stats());
}

}  // namespace

ReverseSampleStats RunReverseSampling(const UncertainGraph& graph,
                                      const std::vector<NodeId>& candidates,
                                      std::size_t t, uint64_t seed,
                                      ThreadPool* pool,
                                      const CoinColumns* columns,
                                      simd::SimdTier tier) {
  ReverseSampleStats stats;
  stats.samples = t;
  stats.estimates.assign(candidates.size(), 0.0);
  if (t == 0 || candidates.empty()) return stats;

  // Resolved once here; every worker sampler shares it read-only.
  const RunCoins coins(graph, candidates, columns);

  std::vector<uint32_t> counts(candidates.size(), 0);
  if (pool == nullptr || pool->num_threads() <= 1 || t < 16) {
    RunChunk(graph, candidates, coins, tier, seed, 0, t, &counts,
             &stats.nodes_touched, &stats.coin_stats);
  } else {
    const std::size_t workers = std::min<std::size_t>(pool->num_threads(), t);
    std::vector<std::vector<uint32_t>> partial(
        workers, std::vector<uint32_t>(candidates.size(), 0));
    std::vector<std::size_t> partial_touched(workers, 0);
    std::vector<simd::CoinKernelStats> partial_coins(workers);
    const std::size_t chunk = (t + workers - 1) / workers;
    pool->ParallelFor(workers, [&](std::size_t w) {
      const std::size_t begin = w * chunk;
      const std::size_t end = std::min(t, begin + chunk);
      if (begin < end) {
        RunChunk(graph, candidates, coins, tier, seed, begin, end,
                 &partial[w], &partial_touched[w], &partial_coins[w]);
      }
    });
    for (std::size_t w = 0; w < workers; ++w) {
      stats.nodes_touched += partial_touched[w];
      stats.coin_stats.Add(partial_coins[w]);
      for (std::size_t c = 0; c < candidates.size(); ++c) counts[c] += partial[w][c];
    }
  }
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    stats.estimates[c] = static_cast<double>(counts[c]) / static_cast<double>(t);
  }
  return stats;
}

}  // namespace vulnds
