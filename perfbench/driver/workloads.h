// The three workloads (analyst, dashboard, monitor) and the in-process
// traced run. See perfbench/README.md for why each workload exists and which
// layer metric should move which end-to-end metric.

#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver/report.h"
#include "driver/wire.h"
#include "graph/uncertain_graph.h"
#include "vulnds/detector.h"

namespace perfbench {

/// The monitor workload's memory budget (serve mem_bytes=): about five
/// resident Guarantee snapshots against the thirteen versions of an epoch.
inline constexpr std::size_t kMonitorMemBytes = 16000000;

struct Ctx {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;  ///< absolute path of vulnds_cli
};

/// A generated graph, its snapshot file (relative to the run directory) and
/// its catalog name.
struct GraphInput {
  std::string name;
  std::string path;
  vulnds::UncertainGraph graph;
};

/// One detect query of a workload.
struct DetectQuery {
  std::size_t graph = 0;  ///< index into the workload's graphs
  std::string name;       ///< catalog name the query addresses
  vulnds::DetectorOptions options;
  std::string Line() const;
};

/// What the traced run replays: the same inputs the timed run used.
struct TraceInputs {
  std::vector<std::string> setup_lines;   ///< loads, cold and warm detects
  std::vector<std::string> replay_lines;  ///< a prefix of the timed stream
  std::vector<DetectQuery> detects;       ///< detect queries of that prefix
  std::string journal_dir;                ///< monitor: a finished epoch
  /// Client-observed latency (ms) of each detect in `replay_lines`, in
  /// order, as the timed run measured it: the base of the coverage ratio.
  std::vector<double> client_detect_ms;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  Report report;
  std::vector<GraphInput> graphs;
  TraceInputs trace;
  std::string simd_tier;

  /// Counts a failed operation (wrong answer, err line, timeout, drop).
  void Fail(const std::string& why);
  /// Adds the attempted and failed operations a client thread counted.
  void Merge(const Outcome& other);
};

/// Generates the named datasets at scale 1.0 from `seed` and writes their
/// binary snapshots into the run directory.
bool MakeGraphs(const std::vector<std::string>& names, uint64_t seed,
                std::vector<GraphInput>* out);

/// Compares the ranked rows and the samples=/verified= header fields of a
/// detect response with an in-process result. Empty string when equal.
std::string CompareDetect(const std::string& response,
                          const vulnds::DetectionResult& expected);

/// For an uncached detect answer (cached=0), adds 1 to `*uncached` and the
/// worlds it materialized (the a of samples=a/b) to `*worlds`.
void CountUncached(std::string_view header, double* uncached, double* worlds);

/// The kernel tier the server reports in its scrape.
std::string SimdTier(const Scrape& scrape);

/// Pulls the per-layer metrics out of two scrapes bracketing a timed phase.
/// `client_detect` holds client-observed detect latencies (ms) of the phase,
/// `uncached_detects` and `worlds` come from the responses' cached= and
/// samples= fields.
void ScrapeLayerMetrics(const Scrape& before, const Scrape& after,
                        const Samples& client_detect_ms,
                        double uncached_detects, double worlds,
                        double scrape_bytes, Outcome* out);

/// The conditions the scrape deltas of a timed phase must meet, each
/// counted as an operation: no store IO errors, no rejected connections,
/// and a result-cache hit ratio within [min_hit_ratio, max_hit_ratio].
void CheckScrape(const Scrape& before, const Scrape& after, double min_hit_ratio,
                 double max_hit_ratio, Outcome* out);

void RunAnalyst(const Ctx& ctx, Outcome* out);
void RunDashboard(const Ctx& ctx, Outcome* out);
void RunMonitor(const Ctx& ctx, Outcome* out);

/// The in-process traced run: spans around calls into each layer's public
/// functions, over the inputs the timed run used. Spans are written to
/// `span_path` when it ends.
void RunTraced(const Ctx& ctx, const std::string& span_path, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
