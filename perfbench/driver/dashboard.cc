// dashboard: risk dashboards re-reading a small set of hot rankings.
//
// Two reader connections send Zipf-skewed repeats over 64 detect keys that
// set-up has already answered, so nearly every read is a result-cache hit:
// net, session, protocol, the sharded result cache and obs do the work and
// the sampling layers almost none (the mirror image of analyst). A third
// connection scrapes `metrics` once per kScrapeEvery reads, like a
// monitoring agent.
//
// The run is kRounds rounds, each a fresh server that is set up and then
// timed for an equal share of the run. A cached read costs tens of
// microseconds, and what one server process costs per read moved by up to
// a fifth from one process to the next on the same host; the run's figures
// pool every round, so no single process sets them.
//
// Each timed phase runs on two CPUs, one per reader: reader i and the server
// thread that serves its connection are pinned to CPU i, and the scraper
// and the other server threads may use either. A read is then a hand-off
// between two threads on one CPU. On four CPUs, each read woke a server
// thread on an idle virtual CPU, and on a virtual machine whose host is
// busy that wake-up waited on the hypervisor long enough to cut throughput
// to a third.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "driver/session.h"
#include "driver/workloads.h"

namespace perfbench {

using namespace vulnds;

namespace {

// Rounds in a run; each is a fresh server with its own set-up.
constexpr std::size_t kRounds = 5;
constexpr std::size_t kHotKeys = 64;
constexpr std::size_t kReaders = 2;
// Reads of reader 0 the traced run replays.
constexpr std::size_t kReplayed = 2000;
constexpr uint64_t kScrapeEvery = 1000;
const std::vector<std::string> kGraphs = {"p2p", "guarantee", "wiki"};

// Zipf(s = 1) over ranks 0..n-1, as a cumulative distribution.
std::vector<double> ZipfCdf(std::size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) total += 1.0 / static_cast<double>(r + 1);
  double acc = 0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / static_cast<double>(r + 1) / total;
    cdf[r] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

struct ReaderResult {
  Samples detect_ms;
  Outcome ops;  // attempted and failed reads
};

// What the timed phases of every round measured together.
struct Phases {
  Samples detect_ms, scrape_ms, scrape_bytes, rss_mb;
  std::vector<double> reader0_ms;  // round 0's reads of reader 0, in order
  Scrape delta, last;              // summed scrape deltas; the last scrape
  std::size_t done = 0;            // completed reads and scrapes
  double elapsed = 0, cpu_s = 0;
};

// One round's timed phase on a server that has been set up: readers and
// scraper run for `seconds`, every read checked against `reference`.
bool TimedPhase(const Ctx& ctx, double seconds, bool first, const std::vector<std::string>& lines,
                const std::vector<std::string>& reference, const std::vector<double>& cdf,
                ServerProc* server, Conn* scraper, Phases* ph, Outcome* out) {
  // The traced run after this one runs in this thread: it gets its CPUs
  // back once the timed phase is over.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  ::sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  const std::vector<int> cpus = FirstCpus(kReaders);
  if (cpus.empty()) {
    out->Fail("the timed phase needs " + std::to_string(kReaders) + " CPUs");
    return false;
  }
  bool pinned = PinThread(0, cpus);
  for (const pid_t tid : ServerThreads(*server)) pinned = PinThread(tid, cpus) && pinned;
  std::vector<Conn> readers(kReaders);
  std::string hello;
  for (std::size_t i = 0; i < kReaders; ++i) {
    const std::set<pid_t> before = ServerThreads(*server);
    if (!readers[i].Dial(kSocketPath, 10000)) {
      out->Fail("reader could not connect");
      return false;
    }
    // Once the connection has answered, its server thread exists.
    if (!Do(&readers[i], "catalog", &hello, out)) return false;
    std::size_t added = 0;
    for (const pid_t tid : ServerThreads(*server)) {
      if (before.count(tid) != 0) continue;
      pinned = PinThread(tid, {cpus[i]}) && pinned;
      ++added;
    }
    pinned = pinned && added > 0;
  }
  if (!pinned) {
    out->Fail("cannot pin the timed phase's threads");
    return false;
  }
  if (first) std::printf("timed phases on CPUs %d,%d\n", cpus[0], cpus[1]);
  Scrape before;
  if (!TakeScrape(scraper, &before, nullptr, out)) return false;

  std::vector<ReaderResult> results(kReaders);
  std::atomic<uint64_t> reads{0};
  std::atomic<std::size_t> running{kReaders};
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::condition_variable cv;
  const TimedLoop loop(seconds, MinSamplesForTail(0.9));
  const double cpu0 = server->CpuSeconds();
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      PinThread(0, {cpus[t]});
      Rng pick(ctx.seed * 1000003 + t);
      Conn& conn = readers[t];
      ReaderResult& res = results[t];
      std::string response;
      while (!stop.load(std::memory_order_relaxed) && loop.Continue(start, res.detect_ms.size())) {
        const double u = pick.NextDouble();
        const std::size_t key =
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        const int64_t t0 = NowNs();
        const bool ok = conn.Request(lines[key], true, &response);
        const int64_t t1 = NowNs();
        ++res.ops.attempted;
        if (!ok) {
          res.ops.Fail("no answer to: " + lines[key]);
          break;
        }
        res.detect_ms.Add((t1 - t0) / 1e6);
        if (AnswerBytes(response) != reference[key]) {
          res.ops.Fail(lines[key] + ": repeat differs from first answer");
        }
        if (reads.fetch_add(1, std::memory_order_relaxed) % kScrapeEvery == kScrapeEvery - 1) {
          std::lock_guard<std::mutex> lock(mu);
          cv.notify_one();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        running.fetch_sub(1);
      }
      cv.notify_one();
    });
  }
  // The scraper: one `metrics` per kScrapeEvery completed reads, for as
  // long as a reader runs.
  std::string response;
  std::size_t scrapes = 0;
  for (uint64_t next = kScrapeEvery;; next += kScrapeEvery) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return reads.load() >= next || running.load() == 0; });
      if (running.load() == 0) break;
    }
    const int64_t t0 = NowNs();
    if (!Do(scraper, "metrics", &response, out)) {
      stop = true;
      break;
    }
    const int64_t t1 = NowNs();
    ph->scrape_ms.Add((t1 - t0) / 1e6);
    ph->scrape_bytes.Add(static_cast<double>(response.size()));
    ++scrapes;
  }
  for (std::thread& t : threads) t.join();
  ph->elapsed += (NowNs() - start) / 1e9;
  ph->cpu_s += server->CpuSeconds() - cpu0;
  ::sched_setaffinity(0, sizeof(all_cpus), &all_cpus);

  ph->done += scrapes;
  for (ReaderResult& res : results) {
    out->Merge(res.ops);
    ph->done += res.detect_ms.size();
    ph->detect_ms.values.insert(ph->detect_ms.values.end(), res.detect_ms.values.begin(),
                                res.detect_ms.values.end());
  }
  if (first) ph->reader0_ms = results[0].detect_ms.values;
  Scrape after;
  if (!TakeScrape(scraper, &after, nullptr, out)) return false;
  for (const auto& [series, value] : after) ph->delta[series] += value - before[series];
  ph->last = std::move(after);
  ph->rss_mb.Add(server->PeakRssKb() / 1024.0);
  for (Conn& c : readers) c.Close();
  return out->failed == 0;
}

}  // namespace

void RunDashboard(const Ctx& ctx, Outcome* out) {
  if (!MakeGraphs(kGraphs, ctx.seed, &out->graphs)) {
    out->Fail("graph generation");
    return;
  }
  const uint64_t detect_seed = 1000 + ctx.seed;
  // 64 distinct BSRBK keys with dashboard-sized k (10..100), dealt
  // round-robin over the graphs; a key's position is its Zipf rank. k by
  // rank is fixed, so answer sizes — what a cached read costs — do not
  // change with the seed; the seed changes the graphs, the detect seed and
  // the reads.
  std::vector<DetectQuery> keys;
  for (std::size_t r = 0; r < kHotKeys; ++r) {
    DetectQuery q;
    q.graph = r % out->graphs.size();
    q.name = out->graphs[q.graph].name;
    q.options.k = 10 + (r * 37) % 91;
    q.options.seed = detect_seed;
    keys.push_back(q);
  }
  std::vector<std::string> setup_lines;
  for (const GraphInput& g : out->graphs) setup_lines.push_back("load " + g.name + " " + g.path);
  for (const GraphInput& g : out->graphs) {
    setup_lines.push_back("detect " + g.name + " 5 BSRBK seed=" + std::to_string(detect_seed));
  }
  const std::size_t first_key_line = setup_lines.size();
  std::vector<std::string> lines;
  for (const DetectQuery& q : keys) {
    setup_lines.push_back(q.Line());
    lines.push_back(q.Line());
  }
  const std::vector<double> cdf = ZipfCdf(kHotKeys);

  // Rounds: each a fresh server, set up and then timed for an equal share
  // of the run. Round 0's set-up answers are the reference every later
  // set-up answer and every read must equal.
  SetupTimes setup;
  Phases ph;
  std::vector<std::string> reference;
  std::vector<std::string> setup_answers;
  for (std::size_t round = 0; round < kRounds; ++round) {
    ServerProc server;
    Conn scraper;
    if (!StartAndSetUp(ctx, {}, setup_lines, &server, &scraper, &setup, out, &setup_answers)) {
      return;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::string answer = AnswerBytes(setup_answers[first_key_line + i]);
      if (round == 0) {
        reference.push_back(answer);
      } else if (answer != reference[i]) {
        out->Fail(lines[i] + ": round " + std::to_string(round) + " answers differently");
      }
    }
    if (!TimedPhase(ctx, ctx.seconds / kRounds, round == 0, lines, reference, cdf, &server,
                    &scraper, &ph, out)) {
      return;
    }
    server.Shutdown(&scraper, 10000);
  }

  Report& r = out->report;
  ReportSetup(setup, &r);
  r.Value("e2e", "cpu_ms_per_request", "ms", ph.cpu_s * 1000.0 / ph.done, ph.done,
          "server CPU/completed reads+scrapes");
  r.Percentile("e2e", "peak_rss_mb", "MB", ph.rss_mb, 0.5);
  r.Percentile("e2e", "detect_p50_ms", "ms", ph.detect_ms, 0.5);
  r.Percentile("e2e", "detect_p90_ms", "ms", ph.detect_ms, 0.9);
  r.Value("e2e", "throughput_rps", "1/s", ph.done / ph.elapsed, ph.done,
          "completed reads+scrapes/elapsed");
  r.Percentile("e2e", "scrape_p50_ms", "ms", ph.scrape_ms, 0.5);
  ScrapeLayerMetrics({}, ph.delta, ph.detect_ms, 0, 0, Mean(ph.scrape_bytes.values), out);
  out->simd_tier = SimdTier(ph.last);
  // Every read repeats a warmed key: the result cache must hit.
  CheckScrape({}, ph.delta, 0.95, 1.0, out);

  out->trace.setup_lines = setup_lines;
  // The replay: the first reads of reader 0's key stream in round 0, with a
  // scrape at the same cadence, and those reads' latencies in the timed run.
  Rng pick(ctx.seed * 1000003);
  for (std::size_t i = 0; i < std::min(kReplayed, ph.reader0_ms.size()); ++i) {
    const std::size_t key =
        std::lower_bound(cdf.begin(), cdf.end(), pick.NextDouble()) - cdf.begin();
    out->trace.replay_lines.push_back(lines[key]);
    out->trace.client_detect_ms.push_back(ph.reader0_ms[i]);
    if (i % kScrapeEvery == kScrapeEvery - 1) out->trace.replay_lines.push_back("metrics");
  }
  for (std::size_t i = 0; i < 16; ++i) out->trace.detects.push_back(keys[i]);
}

}  // namespace perfbench
