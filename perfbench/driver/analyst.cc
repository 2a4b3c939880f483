// analyst: one analyst on one connection, never repeating a question.
//
// Every request is a new (graph, method, k), so the result cache never hits
// and the sampling layers do nearly all the work. The mix is fixed at three
// context-warm BSRBK queries (k in 10..1000, early stop near 16 worlds) to
// one SR/BSR query (k in 100..600, 300-450 materialized worlds), so the
// median lands inside the BSRBK mode and the p90 inside the SR/BSR mode.
// Inside the BSRBK mode the graphs come in unequal shares (P2P 3, Guarantee
// 2, Wiki 1): with equal shares the median would sit exactly on the edge
// between the Guarantee and the P2P latencies; this way it falls a third of
// the way into the P2P ones.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "driver/session.h"
#include "driver/workloads.h"

namespace perfbench {

using namespace vulnds;

namespace {

// Set-ups before the first round, for the set-up median; each round adds one.
constexpr std::size_t kWarmSetups = 8;
// Graph index (into kGraphs) of each BSRBK slot of the six in a cycle.
constexpr std::size_t kLightGraphs[] = {0, 1, 0, 2, 0, 1};
// Requests of one round: 40 turns of the 3:1 cycle, so every round holds
// the whole mix (120 BSRBK, 40 SR/BSR).
constexpr std::size_t kRoundRequests = 160;
// Requests the traced run replays: the first kReplayed of the timed stream.
constexpr std::size_t kReplayed = 32;
const std::vector<std::string> kGraphs = {"p2p", "guarantee", "wiki"};

// The fixed 3:1 request sequence. k values are drawn without replacement
// per (graph, method), so no request repeats.
std::vector<DetectQuery> MakeRequests(const std::vector<GraphInput>& graphs,
                                      uint64_t seed, uint64_t detect_seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  const auto shuffled = [&rng](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> ks;
    for (std::size_t k = lo; k <= hi; ++k) ks.push_back(k);
    for (std::size_t i = ks.size(); i > 1; --i) {
      std::swap(ks[i - 1], ks[rng.NextBounded(i)]);
    }
    return ks;
  };
  std::map<std::pair<std::size_t, int>, std::vector<std::size_t>> pools;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    pools[{g, static_cast<int>(Method::kBsrbk)}] = shuffled(10, 1000);
    pools[{g, static_cast<int>(Method::kSampleReverse)}] = shuffled(100, 600);
    pools[{g, static_cast<int>(Method::kBsr)}] = shuffled(100, 600);
  }
  std::vector<DetectQuery> out;
  std::size_t light = 0;
  std::size_t heavy = 0;
  for (std::size_t i = 0; i < kRoundRequests; ++i) {
    DetectQuery q;
    if (i % 4 != 3) {
      q.graph = kLightGraphs[light++ % 6];
      q.options.method = Method::kBsrbk;
    } else {
      q.options.method = heavy % 2 == 0 ? Method::kSampleReverse : Method::kBsr;
      q.graph = (heavy / 2) % graphs.size();
      ++heavy;
    }
    std::vector<std::size_t>& ks = pools[{q.graph, static_cast<int>(q.options.method)}];
    q.options.k = ks.back();
    ks.pop_back();
    q.options.seed = detect_seed;
    q.name = graphs[q.graph].name;
    out.push_back(q);
  }
  return out;
}

}  // namespace

void RunAnalyst(const Ctx& ctx, Outcome* out) {
  if (!MakeGraphs(kGraphs, ctx.seed, &out->graphs)) {
    out->Fail("graph generation");
    return;
  }
  const uint64_t detect_seed = 1000 + ctx.seed;
  std::vector<std::string> setup_lines;
  std::vector<DetectQuery> cold;
  for (std::size_t g = 0; g < out->graphs.size(); ++g) {
    setup_lines.push_back("load " + out->graphs[g].name + " " + out->graphs[g].path);
  }
  for (std::size_t g = 0; g < out->graphs.size(); ++g) {
    DetectQuery q;
    q.graph = g;
    q.name = out->graphs[g].name;
    q.options.k = 5;  // outside every timed k range
    q.options.seed = detect_seed;
    cold.push_back(q);
    setup_lines.push_back(q.Line());
  }

  SetupTimes setup;
  ServerProc server;
  Conn conn;
  for (std::size_t i = 0; i < kWarmSetups; ++i) {
    if (!StartAndSetUp(ctx, {}, setup_lines, &server, &conn, &setup, out, nullptr)) return;
    server.Shutdown(&conn, 10000);
  }

  // Rounds: each a fresh server, set up, that answers the whole request
  // list once. Every round does the same work, so its peak memory does not
  // depend on how fast the host let it run.
  const std::vector<DetectQuery> requests = MakeRequests(out->graphs, ctx.seed, detect_seed);
  std::vector<std::string> answers;  // round 0's, checked in-process below
  Samples detect_ms, rss_mb;
  Scrape delta, last;
  std::string response;
  double worlds = 0, uncached = 0, scrape_bytes = 0;
  double cpu_s = 0, elapsed = 0;
  std::size_t done = 0;
  for (std::size_t round = 0; elapsed < ctx.seconds; ++round) {
    if (!StartAndSetUp(ctx, {}, setup_lines, &server, &conn, &setup, out, nullptr)) return;
    Scrape before, after;
    if (!TakeScrape(&conn, &before, nullptr, out)) return;
    const double cpu0 = server.CpuSeconds();
    const int64_t start = NowNs();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::string line = requests[i].Line();
      const int64_t t0 = NowNs();
      const bool ok = conn.Request(line, true, &response);
      const int64_t t1 = NowNs();
      ++out->attempted;
      if (!ok) {
        out->Fail("no answer to: " + line);
        return;
      }
      detect_ms.Add((t1 - t0) / 1e6);
      CountUncached(HeaderOf(response), &uncached, &worlds);
      ++done;
      if (round == 0) {
        answers.push_back(std::move(response));
      } else if (AnswerBytes(response) != AnswerBytes(answers[i])) {
        out->Fail(line + ": round " + std::to_string(round) + " answers differently");
      }
    }
    elapsed += (NowNs() - start) / 1e9;
    cpu_s += server.CpuSeconds() - cpu0;
    if (!TakeScrape(&conn, &after, &scrape_bytes, out)) return;
    for (const auto& [series, value] : after) delta[series] += value - before[series];
    last = std::move(after);
    rss_mb.Add(server.PeakRssKb() / 1024.0);
    server.Shutdown(&conn, 10000);
  }

  // Reference answers, outside the timed window: the same queries run
  // in-process on the same graphs must be bit-identical.
  std::vector<DetectionContext> contexts(out->graphs.size());
  for (const DetectQuery& q : cold) {
    DetectorOptions o = q.options;
    o.pool = &ThreadPool::Global();
    (void)DetectTopK(out->graphs[q.graph].graph, o, &contexts[q.graph]);
  }
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const DetectQuery& q = requests[i];
    DetectorOptions o = q.options;
    o.pool = &ThreadPool::Global();
    Result<DetectionResult> expected = DetectTopK(out->graphs[q.graph].graph, o, &contexts[q.graph]);
    const std::string diff = expected.ok() ? CompareDetect(answers[i], *expected)
                                           : "reference failed: " + expected.status().ToString();
    if (!diff.empty()) out->Fail(q.Line() + ": " + diff);
  }

  // Where the median and p90 fall: each should sit inside its mode, so the
  // overlap of the two modes across them is printed. Advisory only: it
  // describes the mix, not an answer, and a loaded host blurs the modes.
  const double p50 = Quantile(detect_ms.values, 0.5);
  const double p90 = Quantile(detect_ms.values, 0.9);
  std::size_t heavy_below_p50 = 0, light_above_p90 = 0, heavy = 0;
  for (std::size_t i = 0; i < detect_ms.size(); ++i) {
    const bool light = requests[i % requests.size()].options.method == Method::kBsrbk;
    heavy += light ? 0 : 1;
    if (!light && detect_ms.values[i] <= p50) ++heavy_below_p50;
    if (light && detect_ms.values[i] >= p90) ++light_above_p90;
  }
  std::printf("mode check: %zu of %zu SR/BSR at or below p50, %zu of %zu BSRBK at or above p90\n",
              heavy_below_p50, heavy, light_above_p90, detect_ms.size() - heavy);
  Report& r = out->report;
  ReportSetup(setup, &r);
  r.Value("e2e", "cpu_ms_per_request", "ms", cpu_s * 1000.0 / done, done,
          "server CPU/completed");
  r.Percentile("e2e", "peak_rss_mb", "MB", rss_mb, 0.5);
  r.Percentile("e2e", "detect_p50_ms", "ms", detect_ms, 0.5);
  r.Percentile("e2e", "detect_p90_ms", "ms", detect_ms, 0.9);
  r.Value("e2e", "throughput_rps", "1/s", done / elapsed, done, "completed/elapsed");
  ScrapeLayerMetrics({}, delta, detect_ms, uncached, worlds, scrape_bytes, out);
  out->simd_tier = SimdTier(last);
  // Never-repeated detects: the result cache must not hit.
  CheckScrape({}, delta, 0.0, 0.01, out);

  out->trace.setup_lines = setup_lines;
  for (std::size_t i = 0; i < std::min<std::size_t>(requests.size(), kReplayed); ++i) {
    out->trace.replay_lines.push_back(requests[i].Line());
    out->trace.detects.push_back(requests[i]);
    out->trace.client_detect_ms.push_back(detect_ms.values[i]);
  }
}

}  // namespace perfbench
