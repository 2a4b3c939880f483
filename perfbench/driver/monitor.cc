// monitor: the paper's risk-monitoring loop on the Guarantee graph.
//
// A writer connection stages revision batches (mostly setprob, some
// addedge/deledge, valid by construction), commits them with the journal
// on, and re-queries the new version; an auditor connection concurrently
// queries older versions, which a mem_bytes= budget holding about a third
// of them has mostly spilled. dyn, the journal, the store and the catalog
// do the work, and writes run beside reads.
//
// The run is a sequence of epochs, each a fresh server on a fresh journal
// with kRounds commits. Compaction rewrites a side file per committed
// version, so a single ever-growing lineage would make commit latency grow
// with the run's length; epochs keep the work per commit stationary. Each
// epoch contributes one set-up sample and, by SIGKILL and restart on its
// journal and spill directory, one recovery sample.

#include <dirent.h>
#include <sys/stat.h>

#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "driver/session.h"
#include "driver/workloads.h"
#include "graph/builder.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace vulnds;

namespace {

constexpr std::size_t kRounds = 12;
constexpr std::size_t kSets = 100, kAdds = 4, kDels = 2;
constexpr std::size_t kVerifyEvery = 4;  // in-process rebuild of every 4th version
constexpr std::size_t kStandingK = 200;  // the standing query re-run on each version
const char* kCompactBytes = "journal_compact_bytes=15000";

struct Revision {
  NodeId src = 0;
  NodeId dst = 0;
  double prob = 0.0;
  enum Kind { kSet, kAdd, kDel } kind = kSet;
};

// Mirrors DeltaLog semantics on a plain edge list: deledge/setprob hit the
// lowest-id live match, addedge appends.
void ApplyRevision(const Revision& r, std::vector<UncertainEdge>* edges) {
  if (r.kind == Revision::kAdd) {
    edges->push_back({r.src, r.dst, r.prob});
    return;
  }
  for (std::size_t i = 0; i < edges->size(); ++i) {
    if ((*edges)[i].src == r.src && (*edges)[i].dst == r.dst) {
      if (r.kind == Revision::kSet) {
        (*edges)[i].prob = r.prob;
      } else {
        edges->erase(edges->begin() + static_cast<std::ptrdiff_t>(i));
      }
      return;
    }
  }
}

// Draws one batch, applying each revision as it is drawn so every
// deledge/setprob targets an edge that is live at its position.
std::vector<std::string> DrawBatch(const std::string& name, std::size_t num_nodes,
                                   std::vector<UncertainEdge>* edges, Rng& rng) {
  std::vector<std::string> lines;
  const auto emit = [&](const Revision& r) {
    ApplyRevision(r, edges);
    const std::string ends = name + " " + std::to_string(r.src) + " " + std::to_string(r.dst);
    if (r.kind == Revision::kSet) {
      lines.push_back("setprob " + ends + " " + serve::FormatRoundTrip(r.prob));
    } else if (r.kind == Revision::kAdd) {
      lines.push_back("addedge " + ends + " " + serve::FormatRoundTrip(r.prob));
    } else {
      lines.push_back("deledge " + ends);
    }
  };
  for (std::size_t i = 0; i < kSets; ++i) {
    const UncertainEdge& e = (*edges)[rng.NextBounded(edges->size())];
    emit({e.src, e.dst, rng.NextDouble(), Revision::kSet});
  }
  for (std::size_t i = 0; i < kAdds; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(num_nodes));
    NodeId dst = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (src == dst) dst = static_cast<NodeId>((dst + 1) % num_nodes);
    emit({src, dst, rng.NextDouble(), Revision::kAdd});
  }
  for (std::size_t i = 0; i < kDels; ++i) {
    const UncertainEdge& e = (*edges)[rng.NextBounded(edges->size())];
    emit({e.src, e.dst, 0.0, Revision::kDel});
  }
  return lines;
}

UncertainGraph BuildFromEdges(const UncertainGraph& base, const std::vector<UncertainEdge>& edges) {
  UncertainGraphBuilder b(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) (void)b.SetSelfRisk(v, base.self_risk(v));
  for (const UncertainEdge& e : edges) (void)b.AddEdge(e.src, e.dst, e.prob);
  return b.Build().MoveValue();
}

std::size_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
}

// Bytes of the compaction side files ("<journal>.v.*.vg2") in `dir`.
std::size_t SideFileBytes(const std::string& dir) {
  std::size_t total = 0;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name.rfind("j.log.v.", 0) == 0 && name.size() > 4 &&
          name.compare(name.size() - 4, 4, ".vg2") == 0) {
        total += FileSize(dir + "/" + name);
      }
    }
    ::closedir(d);
  }
  return total;
}

uint64_t FieldU64(std::string_view header, std::string_view key) {
  return std::strtoull(std::string(HeaderField(header, key)).c_str(), nullptr, 10);
}

// Paces the auditor against the writer. Round r begins when the writer
// starts staging batch r; the auditor then audits one version committed
// before it, beside the staging and the commit. The writer re-queries the
// new version only once that audit is done. Reads and writes thus overlap
// the same way every round, and a re-query never waits behind an audit's
// page-in: that interference lands in commit latency, where it belongs to
// the write path, instead of splitting re-queries into two modes.
class RoundSync {
 public:
  /// Writer: round `r` begins.
  void Begin(std::size_t r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      begun_ = r;
    }
    cv_.notify_all();
  }
  /// Writer: blocks until the auditor is done with round `r`.
  void AwaitAudit(std::size_t r) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return audited_ >= r; });
  }
  /// Writer: no more rounds.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
  }
  /// Auditor: blocks until a round after `seen` begins; 0 once finished.
  std::size_t Next(std::size_t seen) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ || begun_ > seen; });
    return done_ ? 0 : begun_;
  }
  /// Auditor: done with round `r` (SIZE_MAX when it gives up).
  void Audited(std::size_t r) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      audited_ = r;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t begun_ = 0;    // guarded by mu_
  std::size_t audited_ = 0;  // guarded by mu_
  bool done_ = false;        // guarded by mu_
};

// What the auditor thread measured in one epoch; merged after it joins.
struct AuditResult {
  Samples ms;
  Outcome ops;
  std::size_t completed = 0;
  double uncached = 0, worlds = 0;
};

// What the writer measured in one epoch, beyond the run's samples.
struct WriteResult {
  std::vector<std::string> answers = std::vector<std::string>(kRounds + 1);  // per version
  std::size_t completed = 0;
  double uncached = 0, worlds = 0;
};

class MonitorRun {
 public:
  MonitorRun(const Ctx& ctx, const GraphInput& base, Outcome* out)
      : ctx_(ctx), base_(base), name_(base.name), out_(out) {
    standing_.k = kStandingK;
    standing_.seed = 1000 + ctx.seed;
    setup_lines_ = {"load " + name_ + " " + base.path, StandingLine(name_)};
  }

  /// One epoch: a fresh server and journal, kRounds commits beside audits,
  /// then SIGKILL, recovery and the answer checks. False on a failure.
  bool Epoch(std::size_t epoch);
  bool Enough() const {
    return timed_seconds_ >= ctx_.seconds && commit_ms_.size() >= MinSamplesForTail(0.9);
  }
  void Finish();

 private:
  std::string StandingLine(const std::string& target) const {
    DetectQuery q;
    q.name = target;
    q.options = standing_;
    return q.Line();
  }
  bool Write(Conn* writer, const std::string& dir,
             const std::vector<std::vector<std::string>>& batches, RoundSync* sync,
             WriteResult* result);
  void Audit(Conn* auditor, std::size_t epoch, RoundSync* sync, AuditResult* result) const;
  bool Recover(ServerProc* server, const std::vector<std::string>& args,
               const WriteResult& written, std::size_t spilled);

  const Ctx& ctx_;
  const GraphInput& base_;
  const std::string& name_;
  Outcome* out_;
  DetectorOptions standing_;
  std::vector<std::string> setup_lines_;

  SetupTimes setup_;
  Samples commit_ms_, detect_ms_, fresh_ms_, audit_ms_, recovery_s_, rss_mb_;
  Samples epoch_rps_;  // completed requests per second of each epoch's timed phase
  Samples commit_server_us_, touched_;
  double carried_ = 0, dropped_ = 0;
  double written_bytes_ = 0;
  double timed_seconds_ = 0;
  double cpu_seconds_ = 0;  // server CPU time of every epoch's timed phase
  std::size_t completed_ = 0;
  Scrape delta_;  // per-series sum of every epoch's after-minus-before
  Scrape last_scrape_;
  double uncached_ = 0, worlds_ = 0, scrape_bytes_ = 0;
  std::vector<std::string> last_epoch_lines_;
  std::string last_epoch_dir_;
};

void MonitorRun::Audit(Conn* auditor, std::size_t epoch, RoundSync* sync,
                       AuditResult* result) const {
  Rng pick(ctx_.seed * 1000003 + epoch);
  std::set<std::pair<std::size_t, std::size_t>> asked;
  std::string response;
  std::size_t round = 0;
  while ((round = sync->Next(round)) != 0) {
    // Versions 1..round-1 are committed; audit one at least three behind.
    if (round < 5) {
      sync->Audited(round);
      continue;
    }
    const std::size_t v = 1 + pick.NextBounded(round - 4);
    DetectQuery q;
    q.name = name_ + "@v" + std::to_string(v);
    q.options = standing_;
    do {
      q.options.k = 50 + pick.NextBounded(351);
    } while (q.options.k == kStandingK || !asked.insert({v, q.options.k}).second);
    const int64_t t0 = NowNs();
    const bool ok = Do(auditor, q.Line(), &response, &result->ops);
    if (ok) {
      result->ms.Add((NowNs() - t0) / 1e6);
      CountUncached(HeaderOf(response), &result->uncached, &result->worlds);
      ++result->completed;
    }
    if (!auditor->connected()) break;
    sync->Audited(round);
  }
  sync->Audited(SIZE_MAX);
}

bool MonitorRun::Write(Conn* writer, const std::string& dir,
                       const std::vector<std::vector<std::string>>& batches, RoundSync* sync,
                       WriteResult* result) {
  const std::string journal = dir + "/j.log";
  std::string response;
  std::size_t journal_prev = FileSize(journal);
  std::size_t commit_record = 0;
  for (std::size_t v = 1; v <= kRounds; ++v) {
    sync->Begin(v);
    for (const std::string& line : batches[v - 1]) {
      if (!Do(writer, line, &response, out_)) return false;
      ++result->completed;
    }
    const std::size_t journal_staged = FileSize(journal);
    const int64_t t0 = NowNs();
    if (!Do(writer, "commit " + name_, &response, out_)) return false;
    const int64_t t1 = NowNs();
    ++result->completed;
    const std::string_view header = HeaderOf(response);
    const std::string version = std::string(header.substr(13, header.find(' ', 13) - 13));
    if (version != name_ + "@v" + std::to_string(v)) {
      out_->Fail("commit answered " + version + ", want v" + std::to_string(v));
      return false;
    }
    commit_server_us_.Add(std::strtod(std::string(HeaderField(header, "time")).c_str(), nullptr) * 1e6);
    touched_.Add(static_cast<double>(FieldU64(header, "touched")));
    carried_ += static_cast<double>(FieldU64(header, "carried"));
    dropped_ += static_cast<double>(FieldU64(header, "dropped"));
    // Bytes written: staged records, the commit record, and on a compaction
    // the rewritten journal plus every side file. Only a compaction shrinks
    // the journal.
    const std::size_t journal_now = FileSize(journal);
    written_bytes_ += static_cast<double>(journal_staged - journal_prev);
    if (journal_now >= journal_staged) {
      commit_record = journal_now - journal_staged;
      written_bytes_ += static_cast<double>(commit_record);
    } else {
      written_bytes_ += static_cast<double>(commit_record + journal_now + SideFileBytes(dir));
    }
    journal_prev = journal_now;

    commit_ms_.Add((t1 - t0) / 1e6);
    sync->AwaitAudit(v);
    const int64_t t2 = NowNs();
    if (!Do(writer, StandingLine(version), &response, out_)) return false;
    const int64_t t3 = NowNs();
    ++result->completed;
    detect_ms_.Add((t3 - t2) / 1e6);
    fresh_ms_.Add((t1 - t0 + t3 - t2) / 1e6);  // without the wait for the audit
    CountUncached(HeaderOf(response), &result->uncached, &result->worlds);
    result->answers[v] = std::move(response);
  }
  return true;
}

bool MonitorRun::Recover(ServerProc* server, const std::vector<std::string>& args,
                         const WriteResult& written, std::size_t spilled) {
  server->Kill();
  const int64_t k0 = NowNs();
  ++out_->attempted;
  Conn conn;
  if (!server->Start(ctx_.cli, args, "server.log", 60000) || !conn.Dial(kSocketPath, 10000)) {
    out_->Fail("server did not restart after SIGKILL");
    return false;
  }
  std::string response;
  if (Do(&conn, StandingLine(name_ + "@v" + std::to_string(kRounds)), &response, out_)) {
    recovery_s_.Add((NowNs() - k0) / 1e9);
    if (AnswerBytes(response) != AnswerBytes(written.answers[kRounds])) {
      out_->Fail("latest version answers differently after recovery");
    }
  }
  if (Do(&conn, StandingLine(name_ + "@v" + std::to_string(spilled)), &response, out_) &&
      AnswerBytes(response) != AnswerBytes(written.answers[spilled])) {
    out_->Fail("spilled version v" + std::to_string(spilled) +
               " answers differently after recovery");
  }
  server->Shutdown(&conn, 10000);
  return out_->failed == 0;
}

bool MonitorRun::Epoch(std::size_t epoch) {
  const std::string dir = "e" + std::to_string(epoch);
  std::filesystem::create_directories(dir + "/spill");
  const std::vector<std::string> args = {std::string("unix=") + kSocketPath,
                                         "journal=" + dir + "/j.log",
                                         "spill_dir=" + dir + "/spill",
                                         "mem_bytes=" + std::to_string(kMonitorMemBytes),
                                         kCompactBytes};
  const std::vector<std::string> extra_args(args.begin() + 1, args.end());

  // The epoch's revision batches and the edge lists of the versions the
  // in-process rebuild checks, drawn before anything is timed.
  Rng rng(ctx_.seed * 0x9E3779B97F4A7C15ULL + 31 * epoch + 7);
  std::vector<UncertainEdge> edges(base_.graph.edges().begin(), base_.graph.edges().end());
  std::vector<std::vector<std::string>> batches;
  std::vector<std::pair<std::size_t, std::vector<UncertainEdge>>> checkpoints;
  for (std::size_t v = 1; v <= kRounds; ++v) {
    batches.push_back(DrawBatch(name_, base_.graph.num_nodes(), &edges, rng));
    if (v % kVerifyEvery == 0) checkpoints.emplace_back(v, edges);
  }

  ServerProc server;
  Conn writer;
  Conn auditor;
  if (!StartAndSetUp(ctx_, extra_args, setup_lines_, &server, &writer, &setup_, out_, nullptr)) {
    return false;
  }
  if (!auditor.Dial(kSocketPath, 10000)) {
    out_->Fail("auditor could not connect");
    return false;
  }
  Scrape before, after;
  if (!TakeScrape(&writer, &before, nullptr, out_)) return false;

  RoundSync sync;
  AuditResult audited;
  WriteResult written;
  const double cpu0 = server.CpuSeconds();
  const int64_t start = NowNs();
  std::thread audit_thread([&] { Audit(&auditor, epoch, &sync, &audited); });
  const bool wrote = Write(&writer, dir, batches, &sync, &written);
  sync.Finish();
  audit_thread.join();
  const double seconds = (NowNs() - start) / 1e9;
  const double cpu_s = server.CpuSeconds() - cpu0;
  out_->Merge(audited.ops);
  if (!wrote || out_->failed > 0) return false;
  timed_seconds_ += seconds;
  cpu_seconds_ += cpu_s;
  completed_ += written.completed + audited.completed;
  epoch_rps_.Add((written.completed + audited.completed) / seconds);
  audit_ms_.values.insert(audit_ms_.values.end(), audited.ms.values.begin(),
                          audited.ms.values.end());
  uncached_ += written.uncached + audited.uncached;
  worlds_ += written.worlds + audited.worlds;

  if (!TakeScrape(&writer, &after, &scrape_bytes_, out_)) return false;
  for (const auto& [series, value] : after) delta_[series] += value - before[series];
  last_scrape_ = std::move(after);
  rss_mb_.Add(server.PeakRssKb() / 1024.0);

  // A spilled version for the recovery check: the oldest one the catalog
  // no longer holds in memory.
  std::size_t spilled = 1;
  std::string response;
  if (Do(&writer, "catalog", &response, out_)) {
    for (std::size_t v = 1; v < kRounds; ++v) {
      if (response.find("\n" + name_ + "@v" + std::to_string(v) + "\n") == std::string::npos) {
        spilled = v;
        break;
      }
    }
  }
  auditor.Close();
  writer.Close();
  // Crash and recover on the same journal and spill directory, until the
  // latest version answers as it did before the kill.
  if (!Recover(&server, args, written, spilled)) return false;

  // Fresh answers on sampled versions against an in-process rebuild from
  // the driver's own edge list.
  for (const auto& [v, version_edges] : checkpoints) {
    DetectorOptions o = standing_;
    o.pool = &ThreadPool::Global();
    Result<DetectionResult> expected = DetectTopK(BuildFromEdges(base_.graph, version_edges), o);
    ++out_->attempted;
    const std::string diff = expected.ok() ? CompareDetect(written.answers[v], *expected)
                                           : "reference failed: " + expected.status().ToString();
    if (!diff.empty()) out_->Fail("v" + std::to_string(v) + ": " + diff);
  }

  // Keep the latest epoch's directory and stream for the traced run.
  if (!last_epoch_dir_.empty()) std::filesystem::remove_all(last_epoch_dir_);
  last_epoch_dir_ = dir;
  last_epoch_lines_.clear();
  for (std::size_t v = 1; v <= kRounds; ++v) {
    last_epoch_lines_.insert(last_epoch_lines_.end(), batches[v - 1].begin(),
                             batches[v - 1].end());
    last_epoch_lines_.push_back("commit " + name_);
    last_epoch_lines_.push_back(StandingLine(name_ + "@v" + std::to_string(v)));
  }
  return out_->failed == 0;
}

void MonitorRun::Finish() {
  Report& r = out_->report;
  ReportSetup(setup_, &r);
  r.Value("e2e", "cpu_ms_per_request", "ms", cpu_seconds_ * 1000.0 / completed_, completed_,
          "server CPU/completed");
  r.Percentile("e2e", "detect_p50_ms", "ms", detect_ms_, 0.5);
  r.Percentile("e2e", "detect_p90_ms", "ms", detect_ms_, 0.9);
  r.Percentile("e2e", "throughput_rps", "1/s", epoch_rps_, 0.5);
  r.Percentile("e2e", "peak_rss_mb", "MB", rss_mb_, 0.5);
  r.Percentile("e2e", "commit_p50_ms", "ms", commit_ms_, 0.5);
  r.Percentile("e2e", "commit_p90_ms", "ms", commit_ms_, 0.9);
  r.Percentile("e2e", "fresh_p50_ms", "ms", fresh_ms_, 0.5);
  r.Percentile("e2e", "audit_p50_ms", "ms", audit_ms_, 0.5);
  r.Percentile("e2e", "recovery_s", "s", recovery_s_, 0.5);
  const std::size_t commits = commit_ms_.size();
  r.Value("e2e", "write_kb_per_commit", "KiB", commits ? written_bytes_ / 1024.0 / commits : 0,
          commits, "journal + side-file bytes/commits");

  Samples client_detect_ms;  // every detect the phase sent: re-queries and audits
  client_detect_ms.values = detect_ms_.values;
  client_detect_ms.values.insert(client_detect_ms.values.end(), audit_ms_.values.begin(),
                                 audit_ms_.values.end());
  ScrapeLayerMetrics({}, delta_, client_detect_ms, uncached_, worlds_, scrape_bytes_, out_);
  CheckScrape({}, delta_, 0.0, 1.0, out_);
  out_->simd_tier = SimdTier(last_scrape_);
  r.MeanOf("layer", "dyn.commit_us", "us", commit_server_us_);
  r.MeanOf("layer", "dyn.touched_per_commit", "count", touched_);
  r.Value("layer", "dyn.carried_ratio", "ratio",
          carried_ + dropped_ > 0 ? carried_ / (carried_ + dropped_) : 0.0,
          static_cast<std::size_t>(carried_ + dropped_), "carried/(carried+dropped)");

  out_->trace.setup_lines = setup_lines_;
  out_->trace.replay_lines = last_epoch_lines_;
  out_->trace.journal_dir = last_epoch_dir_;
  // The replay's detects are the last epoch's re-queries, the last kRounds
  // of detect_ms_.
  out_->trace.client_detect_ms.assign(detect_ms_.values.end() - kRounds,
                                      detect_ms_.values.end());
  DetectQuery q;
  q.name = name_;
  q.options = standing_;
  out_->trace.detects.push_back(q);
}

}  // namespace

void RunMonitor(const Ctx& ctx, Outcome* out) {
  if (!MakeGraphs({"guarantee"}, ctx.seed, &out->graphs)) {
    out->Fail("graph generation");
    return;
  }
  MonitorRun run(ctx, out->graphs[0], out);
  const int64_t start = NowNs();
  for (std::size_t epoch = 0; !run.Enough(); ++epoch) {
    if ((NowNs() - start) / 1e9 > ctx.seconds + 90.0 || !run.Epoch(epoch)) return;
  }
  run.Finish();
}

}  // namespace perfbench
