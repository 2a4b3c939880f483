// Algorithm 5: reverse sampling over the transposed graph.
//
// Instead of materializing a whole world forward, each candidate runs a
// reverse BFS asking "can a self-defaulted node reach me through surviving
// edges?". Coin flips for nodes (self-risk) and edges (diffusion) are
// memoized per sample, so every candidate observes the same world and the
// per-sample work is proportional to the explored region, not the graph.
//
// Worlds are *pure functions* of (seed, sample index, entity id): an
// entity's coin is the hash of its id under the world seed. The world a
// sampler observes therefore does not depend on traversal order, which lets
// tests verify that reverse evaluation equals forward evaluation of the
// identical world (tests/vulnds/reverse_sampler_test.cc).
//
// Two forms of per-sample caching are applied, both conclusions that follow
// deterministically from the coins (they change cost, never results):
//  * a node whose self-risk coin came up "default" is recorded as defaulted
//    (the paper's line 13);
//  * when a candidate's BFS exhausts without finding a default, every node
//    it reached is recorded as non-defaulted — any later traversal entering
//    that region can stop immediately, since reverse-reachability is
//    transitive. This generalizes the paper's line-7 reuse of h-values.
//
// Both checks (line 7's conclusion lookup and lines 9-13's self-risk coin)
// run when the BFS first reaches a node, not when it dequeues it: the search
// stops at the first defaulted in-neighbor it discovers, without expanding
// the nodes queued ahead of it. The queue therefore holds exactly the
// settled, non-defaulted region of the search.

#ifndef VULNDS_VULNDS_REVERSE_SAMPLER_H_
#define VULNDS_VULNDS_REVERSE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "graph/uncertain_graph.h"
#include "simd/coin_kernels.h"
#include "vulnds/coin_columns.h"

namespace vulnds {

/// Seed identifying the world of sample `sample_index` under run seed `seed`.
uint64_t WorldSeed(uint64_t seed, uint64_t sample_index);

/// True iff node v self-defaults in the world (pure in its arguments).
bool WorldNodeSelfDefaults(uint64_t world_seed, NodeId v, double self_risk);

/// True iff edge e survives in the world (pure in its arguments).
bool WorldEdgeSurvives(uint64_t world_seed, EdgeId e, double prob);

/// Evaluates candidate default indicators world-by-world. One instance per
/// thread; reusable across samples.
///
/// Coins run through the batched kernel layer (simd/coin_kernels.h): the
/// whole in-arc run of a BFS node is tested per iteration against the
/// precomputed CoinColumns, survivors pushed in ascending arc order, so the
/// visitation order — and every result — is bit-identical to the scalar
/// WorldEdgeSurvives loop for every tier.
class ReverseSampler {
 public:
  /// Prepares a sampler for the given candidate set (node ids into `graph`).
  /// `columns` must be the graph's columns when supplied (worker samplers
  /// share the run's instance); passing nullptr uses the graph's cached
  /// CoinColumns::Shared. `tier` picks the kernel implementation —
  /// execution-only, results are identical.
  ReverseSampler(const UncertainGraph& graph, std::vector<NodeId> candidates,
                 const CoinColumns* columns = nullptr,
                 simd::SimdTier tier = simd::DefaultTier());

  /// The candidate set, in the order `defaulted` entries are reported.
  const std::vector<NodeId>& candidates() const { return candidates_; }

  /// Evaluates all candidates in the world identified by `world_seed`.
  /// Writes one flag per candidate into `defaulted` (resized to the
  /// candidate count) and returns the number of nodes whose default state
  /// a search settled (one self-risk coin each).
  std::size_t SampleWorld(uint64_t world_seed, std::vector<char>* defaulted);

  /// Kernel telemetry accumulated across every SampleWorld call so far.
  const simd::CoinKernelStats& coin_stats() const { return coin_stats_; }

 private:
  enum class Conclusion : char { kUnknown = 0, kDefaulted, kSafe };

  // Evaluates one candidate in the current sample; assumes stamps are set.
  bool EvaluateCandidate(NodeId v, std::size_t* touched);
  // Settles node w when the current search first reaches it: true iff w is
  // known or found to default in this sample. Queues w for expansion when it
  // is neither defaulted nor known safe.
  bool Reach(NodeId w, std::size_t* touched);

  bool NodeSelfDefaults(NodeId v);
  Conclusion GetConclusion(NodeId v) const;
  void SetConclusion(NodeId v, Conclusion c);

  const UncertainGraph& graph_;
  std::vector<NodeId> candidates_;
  // Keeps the graph's shared columns alive when none were passed in.
  std::shared_ptr<const CoinColumns> owned_columns_;
  const CoinColumns* columns_;
  simd::SimdTier tier_;

  uint64_t edge_seed_ = 0;     // world_seed_ ^ kEdgeSalt, set per world
  uint64_t node_seed_ = 0;     // world_seed_ ^ kNodeSalt, set per world
  uint64_t sample_stamp_ = 0;  // bumped per SampleWorld
  uint64_t visit_stamp_ = 0;   // bumped per candidate BFS

  std::vector<uint64_t> conclusion_stamp_;
  std::vector<char> conclusion_;
  std::vector<uint64_t> visited_stamp_;
  std::vector<NodeId> queue_;
  std::vector<uint32_t> survivor_scratch_;
  simd::CoinKernelStats coin_stats_;
};

/// Aggregate estimates from `t` reverse samples.
struct ReverseSampleStats {
  std::vector<double> estimates;  ///< p̂(v) per candidate (candidate order)
  std::size_t samples = 0;
  std::size_t nodes_touched = 0;  ///< SampleWorld's settled nodes, summed
  /// Kernel telemetry (batched vs tail coin evaluations). Like
  /// nodes_touched it measures cost, not answers: totals vary with the
  /// simd tier, never the estimates.
  simd::CoinKernelStats coin_stats;
};

/// Runs Algorithm 5 for `t` samples; parallel over samples when `pool` is
/// provided (deterministic: worlds are indexed, partial counts are reduced
/// in worker order). `columns` may carry the graph's columns when the caller
/// already holds them; nullptr uses the graph's cached CoinColumns::Shared.
/// `tier` is execution-only: results are bit-identical for every tier.
ReverseSampleStats RunReverseSampling(const UncertainGraph& graph,
                                      const std::vector<NodeId>& candidates,
                                      std::size_t t, uint64_t seed,
                                      ThreadPool* pool = nullptr,
                                      const CoinColumns* columns = nullptr,
                                      simd::SimdTier tier = simd::DefaultTier());

}  // namespace vulnds

#endif  // VULNDS_VULNDS_REVERSE_SAMPLER_H_
