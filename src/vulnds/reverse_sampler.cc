#include "vulnds/reverse_sampler.h"

#include <algorithm>

#include "common/rng.h"

namespace vulnds {

namespace {
// Domain separators so node coins, edge coins and world seeds never collide.
constexpr uint64_t kNodeSalt = 0x9AE16A3B2F90404FULL;
constexpr uint64_t kEdgeSalt = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kWorldSalt = 0x165667B19E3779F9ULL;
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

ReverseSampler::ReverseSampler(const UncertainGraph& graph,
                               std::vector<NodeId> candidates,
                               const CoinColumns* columns,
                               simd::SimdTier tier)
    : graph_(graph),
      candidates_(std::move(candidates)),
      columns_(columns),
      tier_(tier),
      conclusion_stamp_(graph.num_nodes(), 0),
      conclusion_(graph.num_nodes(), 0),
      visited_stamp_(graph.num_nodes(), 0) {
  if (columns_ == nullptr && CoinColumns::Worthwhile(graph)) {
    owned_columns_ = CoinColumns::Shared(graph);
    columns_ = owned_columns_.get();
  }
  queue_.reserve(graph.num_nodes());
  // columns_ may stay null on sparse graphs (below the density gate): the
  // sampler then evaluates each coin's defining double predicate directly
  // off the arcs (simd::CoinHitsProb) — bit-identical to the column
  // thresholds by the kernel contract — with no column build at all.
  if (columns_ != nullptr) survivor_scratch_.resize(columns_->max_run);
}

bool ReverseSampler::NodeSelfDefaults(NodeId v) {
  // WorldNodeSelfDefaults itself without columns; with them, its integer
  // form (CoinThreshold folds the 0/1 early-outs in) — bit-identical by the
  // kernel contract.
  ++coin_stats_.tail_coins;
  if (columns_ == nullptr) {
    return simd::CoinHitsProb(node_seed_, simd::CoinInnerHash(v),
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

bool ReverseSampler::Reach(NodeId w, std::size_t* touched) {
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
  if (NodeSelfDefaults(w)) {
    SetConclusion(w, Conclusion::kDefaulted);
    return true;
  }
  queue_.push_back(w);
  return false;
}

bool ReverseSampler::EvaluateCandidate(NodeId v, std::size_t* touched) {
  // Algorithm 5 lines 2-20, one candidate. Reach settles each node when it
  // is first reached, so the search stops at the first default it finds
  // without expanding the nodes queued ahead of it.
  ++visit_stamp_;
  queue_.clear();
  bool found_default = Reach(v, touched);
  for (std::size_t head = 0; head < queue_.size() && !found_default; ++head) {
    const NodeId u = queue_[head];
    // Lines 14-20: expand along surviving in-edges, in ascending arc order
    // on both paths, so the queue is byte-identical for every tier.
    if (columns_ == nullptr) {
      // Sparse graph below the density gate: direct per-arc coins.
      for (const Arc& arc : graph_.InArcs(u)) {
        ++coin_stats_.tail_coins;
        if (simd::CoinHitsProb(edge_seed_, simd::CoinInnerHash(arc.edge),
                               arc.prob) &&
            Reach(arc.neighbor, touched)) {
          found_default = true;
          break;
        }
      }
    } else {
      // The whole in-arc run's coins in one batched-kernel call (worlds are
      // pure, so testing a coin for an already-visited neighbor changes
      // nothing); survivors come back in ascending arc order.
      const std::size_t run_begin = columns_->pad_offsets[u];
      const std::size_t survivors = simd::CoinSurvivorsPadded(
          tier_, edge_seed_, columns_->edge_inner.data() + run_begin,
          columns_->edge_threshold.data() + run_begin, graph_.InDegree(u),
          survivor_scratch_.data(), &coin_stats_);
      for (std::size_t s = 0; s < survivors; ++s) {
        if (Reach(columns_->edge_neighbor[run_begin + survivor_scratch_[s]],
                  touched)) {
          found_default = true;
          break;
        }
      }
    }
  }

  if (found_default) {
    SetConclusion(v, Conclusion::kDefaulted);
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
    (*defaulted)[i] = EvaluateCandidate(candidates_[i], &touched) ? 1 : 0;
  }
  return touched;
}

namespace {

void RunChunk(const UncertainGraph& graph, const std::vector<NodeId>& candidates,
              const CoinColumns* columns, simd::SimdTier tier, uint64_t seed,
              std::size_t begin, std::size_t end, std::vector<uint32_t>* counts,
              std::size_t* touched, simd::CoinKernelStats* coin_stats) {
  ReverseSampler sampler(graph, candidates, columns, tier);
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

  // The graph's cached columns when the caller has none (and the graph is
  // dense enough for them to pay — below the gate the samplers evaluate
  // coins directly off the arcs, bit-identically); every worker
  // sampler shares them read-only.
  std::shared_ptr<const CoinColumns> shared_columns;
  if (columns == nullptr && CoinColumns::Worthwhile(graph)) {
    shared_columns = CoinColumns::Shared(graph);
    columns = shared_columns.get();
  }

  std::vector<uint32_t> counts(candidates.size(), 0);
  if (pool == nullptr || pool->num_threads() <= 1 || t < 16) {
    RunChunk(graph, candidates, columns, tier, seed, 0, t, &counts,
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
        RunChunk(graph, candidates, columns, tier, seed, begin, end,
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
