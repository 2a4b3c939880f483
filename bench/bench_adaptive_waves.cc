// Adaptive vs fixed wave scheduling for cold BSRBK detection.
//
// The fixed schedule materializes equal-size waves (4 workers -> 128-world
// waves), so every early-stopping query throws away up to wave_size - 1
// fully sampled worlds past the stop position. The adaptive schedule probes,
// estimates the stop distance from the candidates' bottom-k trajectories and
// lower bounds, and clamps the final wave to the estimate. This harness
// measures exactly that waste on two workload families:
//
//   * early-stopping: paper-default BSRBK (bk=16) on bundled datasets — the
//     stop fires early in the stream, where fixed waves waste the most;
//   * non-stopping: bk far beyond reach, the budget exhausts — both
//     schedules materialize every world, so adaptive may only add
//     negligible ramp overhead and must waste nothing.
//
// Rankings are checked bit-identical between the schedules on every repeat
// (determinism is the scheduler's contract; the waves only move cost).
//
// Gate: summed across datasets, the adaptive schedule's median wasted
// worlds on the early-stopping workload must be STRICTLY below the fixed
// schedule's. Wasted worlds are a pure function of (seed, pool width, wave
// plan) — no timing involved — so the gate is enforced on every host;
// VULNDS_BENCH_GATE=0 demotes it to report-only.
//
// --json writes BENCH_adaptive_waves.json for the CI perf trajectory.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "vulnds/detector.h"

namespace {

using namespace vulnds;
using namespace vulnds::bench;

constexpr std::size_t kRepeats = 5;
constexpr std::size_t kWorkers = 4;

struct ModeRun {
  std::size_t wasted = 0;       // schedule-deterministic, identical per repeat
  std::size_t waves = 0;
  std::size_t processed = 0;
  bool early_stopped = false;
  double median_seconds = 0.0;
  DetectionResult result;       // first repeat's full result (for bit checks)
};

// Runs kRepeats cold detects under `mode`, returning telemetry and the
// median wall time. Exits on any error.
ModeRun RunMode(const UncertainGraph& graph, DetectorOptions options,
                WaveMode mode, ThreadPool* pool) {
  options.wave_mode = mode;
  options.pool = pool;
  ModeRun run;
  std::vector<double> seconds;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    WallTimer timer;
    Result<DetectionResult> result = DetectTopK(graph, options);
    if (!result.ok()) {
      std::fprintf(stderr, "detect failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    seconds.push_back(timer.Seconds());
    if (r == 0) {
      run.wasted = result->worlds_wasted;
      run.waves = result->waves_issued;
      run.processed = result->samples_processed;
      run.early_stopped = result->early_stopped;
      run.result = result.MoveValue();
    } else if (result->topk != run.result.topk ||
               result->scores != run.result.scores ||
               result->worlds_wasted != run.wasted) {
      // The schedule is pure in (seed, pool width, plan): even the waste
      // telemetry must reproduce run to run.
      std::fprintf(stderr, "DETERMINISM VIOLATION: repeat %zu diverged\n", r);
      std::exit(1);
    }
  }
  run.median_seconds = Percentile(std::move(seconds), 50.0);
  return run;
}

void CheckBitIdentical(const ModeRun& fixed, const ModeRun& adaptive,
                       const char* what) {
  if (fixed.result.topk != adaptive.result.topk ||
      fixed.result.scores != adaptive.result.scores ||
      fixed.processed != adaptive.processed ||
      fixed.early_stopped != adaptive.early_stopped) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: %s — adaptive ranking diverged "
                 "from fixed\n",
                 what);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchProfile profile = GetProfile();
  PrintProfileBanner(profile, "Adaptive vs fixed BSRBK wave scheduling");
  BenchJson json("adaptive_waves", JsonRequested(argc, argv));

  const bool gate_disabled = GateDisabled();
  json.Add("gate_enforced", !gate_disabled);
  json.Add("hardware_threads", AvailableCpus());

  ThreadPool pool(kWorkers);
  const std::vector<DatasetId> datasets = {DatasetId::kWiki, DatasetId::kP2P,
                                           DatasetId::kCitation};

  TextTable table;
  table.SetHeader({"dataset", "workload", "stop", "fixed waste", "adapt waste",
                   "fixed waves", "adapt waves", "fixed ms", "adapt ms"});
  std::size_t early_fixed_waste = 0, early_adaptive_waste = 0;
  std::vector<double> speedups;
  bool saw_early_stop = false;

  for (const DatasetId id : datasets) {
    const DatasetSpec spec = GetDatasetSpec(id);
    const double scale =
        profile.full
            ? 1.0
            : std::min(1.0, 8000.0 / static_cast<double>(spec.num_nodes));
    Result<UncertainGraph> graph = MakeDataset(id, scale, 42);
    if (!graph.ok()) {
      std::fprintf(stderr, "dataset failed: %s\n",
                   graph.status().ToString().c_str());
      return 1;
    }
    const std::string name = DatasetName(id);

    // Early-stopping workload: paper defaults — the stop fires after the
    // strongest candidates collect bk defaults, deep inside a fixed wave.
    DetectorOptions early;
    early.method = Method::kBsrbk;
    early.k = std::max<std::size_t>(1, graph->num_nodes() * 2 / 100);
    const ModeRun early_fixed =
        RunMode(*graph, early, WaveMode::kFixed, &pool);
    const ModeRun early_adaptive =
        RunMode(*graph, early, WaveMode::kAdaptive, &pool);
    CheckBitIdentical(early_fixed, early_adaptive, name.c_str());
    saw_early_stop |= early_fixed.early_stopped;
    early_fixed_waste += early_fixed.wasted;
    early_adaptive_waste += early_adaptive.wasted;
    const double speedup = early_fixed.median_seconds /
                           std::max(1e-12, early_adaptive.median_seconds);
    speedups.push_back(speedup);
    table.AddRow({name, "early-stop",
                  early_fixed.early_stopped ? std::to_string(early_fixed.processed)
                                            : "-",
                  std::to_string(early_fixed.wasted),
                  std::to_string(early_adaptive.wasted),
                  std::to_string(early_fixed.waves),
                  std::to_string(early_adaptive.waves),
                  TextTable::Num(early_fixed.median_seconds * 1e3, 2),
                  TextTable::Num(early_adaptive.median_seconds * 1e3, 2)});
    json.Add(name + "_early_wasted_fixed", early_fixed.wasted);
    json.Add(name + "_early_wasted_adaptive", early_adaptive.wasted);
    json.Add(name + "_early_adaptive_speedup", speedup);

    // Non-stopping workload: bk beyond reach within the budget, so the
    // stream exhausts. Both schedules must waste nothing; adaptive's ramp
    // may only cost extra ParallelFor rounds, not worlds.
    DetectorOptions nonstop = early;
    nonstop.bk = 100000;
    const ModeRun nonstop_fixed =
        RunMode(*graph, nonstop, WaveMode::kFixed, &pool);
    const ModeRun nonstop_adaptive =
        RunMode(*graph, nonstop, WaveMode::kAdaptive, &pool);
    CheckBitIdentical(nonstop_fixed, nonstop_adaptive, name.c_str());
    if (nonstop_fixed.early_stopped) {
      std::fprintf(stderr,
                   "NOTE: %s non-stop workload early-stopped anyway "
                   "(bk too low for this scale)\n",
                   name.c_str());
    }
    if (nonstop_fixed.wasted != 0 || nonstop_adaptive.wasted != 0) {
      std::fprintf(stderr,
                   "FAIL: %s wasted worlds on an exhausted budget "
                   "(fixed=%zu adaptive=%zu)\n",
                   name.c_str(), nonstop_fixed.wasted,
                   nonstop_adaptive.wasted);
      return 1;
    }
    table.AddRow({name, "non-stop", "-", std::to_string(nonstop_fixed.wasted),
                  std::to_string(nonstop_adaptive.wasted),
                  std::to_string(nonstop_fixed.waves),
                  std::to_string(nonstop_adaptive.waves),
                  TextTable::Num(nonstop_fixed.median_seconds * 1e3, 2),
                  TextTable::Num(nonstop_adaptive.median_seconds * 1e3, 2)});
    json.Add(name + "_nonstop_overhead_ratio",
             nonstop_adaptive.median_seconds /
                 std::max(1e-12, nonstop_fixed.median_seconds));
  }
  std::printf("%s\n", table.ToString().c_str());

  const double waste_ratio =
      early_adaptive_waste == 0
          ? static_cast<double>(early_fixed_waste)
          : static_cast<double>(early_fixed_waste) /
                static_cast<double>(early_adaptive_waste);
  std::printf("early-stop wasted worlds (summed medians): fixed=%zu "
              "adaptive=%zu (%.1fx less waste)\n",
              early_fixed_waste, early_adaptive_waste, waste_ratio);
  std::printf("median cold-detect speedup (adaptive vs fixed): %.2fx\n",
              Percentile(speedups, 50.0));
  json.Add("early_wasted_fixed_total", early_fixed_waste);
  json.Add("early_wasted_adaptive_total", early_adaptive_waste);
  json.Add("early_waste_ratio", waste_ratio);
  json.Add("adaptive_speedup_median", Percentile(speedups, 50.0));

  const bool passed =
      saw_early_stop && early_adaptive_waste < early_fixed_waste;
  json.Add("gate_passed", passed);
  if (!json.Write()) return 1;

  if (!saw_early_stop) {
    std::fprintf(stderr,
                 "GATE FAILED: no workload early-stopped — the early-stop "
                 "configurations no longer exercise the scheduler\n");
    if (!gate_disabled) return 1;
  }
  if (early_adaptive_waste >= early_fixed_waste) {
    std::fprintf(stderr,
                 "GATE FAILED: adaptive wasted %zu worlds vs fixed %zu — "
                 "the adaptive scheduler no longer cuts waste\n",
                 early_adaptive_waste, early_fixed_waste);
    if (!gate_disabled) return 1;
  }
  if (passed) {
    std::printf("\nadaptive waste %zu < fixed waste %zu: OK\n",
                early_adaptive_waste, early_fixed_waste);
  }
  return 0;
}
