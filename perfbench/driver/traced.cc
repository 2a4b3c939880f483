// The traced run: in-process, after and apart from the timed run, over the
// same generated inputs. Spans are taken around calls into each layer's
// public functions from this file only — nothing inside src/ is
// instrumented — kept in memory, and written out as JSON lines at the end.
//
// The session replay runs twice on identical fresh engines, once with spans
// and once without; the difference in wall time is the tracing overhead.
// Coverage is the share of the client-observed latency of the replayed
// detects, as the timed run measured them, that their in-process handle
// spans account for (the rest is socket, framing and scheduling).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/thread_pool.h"
#include "driver/workloads.h"
#include "dyn/journal.h"
#include "dyn/update_manager.h"
#include "graph/graph_io.h"
#include "serve/graph_catalog.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/session.h"
#include "store/memory_governor.h"
#include "vulnds/bounds.h"
#include "vulnds/candidate_reduction.h"

namespace perfbench {

using namespace vulnds;

namespace {

constexpr int kReps = 5;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // spans of one request share it; 0 = none
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  /// Runs `fn` inside a span and returns its duration in microseconds.
  template <typename Fn>
  double Time(const std::string& name, uint64_t parent, uint64_t request, Fn&& fn) {
    const uint64_t id = ++next_id_;
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    spans_.push_back({id, parent, request, name, start, end});
    return (end - start) / 1e3;
  }
  /// Opens a span whose children are timed before Close(id).
  uint64_t Open(const std::string& name, uint64_t parent, uint64_t request) {
    const uint64_t id = ++next_id_;
    open_[id] = {id, parent, request, name, NowNs(), 0};
    return id;
  }
  void Close(uint64_t id) {
    Span s = open_[id];
    open_.erase(id);
    s.end_ns = NowNs();
    spans_.push_back(std::move(s));
  }
  /// Durations in microseconds of every span called `name`. The set lives
  /// as long as the tracer, so a metric can claim it.
  const Samples& Durations(const std::string& name) {
    Samples& out = durations_[name];
    out.values.clear();
    for (const Span& s : spans_) {
      if (s.name == name) out.Add((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }
  bool Write(const std::string& path) const {
    std::ofstream f(path);
    for (const Span& s : spans_) {
      f << "{\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": " << JsonString(s.name) << ", \"start_us\": " << s.start_ns / 1000
        << ", \"dur_us\": " << (s.end_ns - s.start_ns) / 1e3 << "}\n";
    }
    return static_cast<bool>(f);
  }

 private:
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::map<uint64_t, Span> open_;
  std::map<std::string, Samples> durations_;
};

// The serving stack `vulnds_cli serve` assembles, in-process. Monitor runs
// journaled with the timed run's memory budget and a spill directory, but
// without a compaction threshold, so its journal keeps the whole record
// stream (compaction is timed on its own).
struct Engine {
  std::optional<store::MemoryGovernor> governor;
  std::unique_ptr<serve::GraphCatalog> catalog;
  std::unique_ptr<dyn::DeltaJournal> journal;
  std::unique_ptr<serve::QueryEngine> engine;
  std::unique_ptr<dyn::UpdateManager> updates;
  serve::ServerStats server;
  std::unique_ptr<serve::ServeSession> session;

  bool Build(bool journaled, const std::string& dir) {
    serve::GraphCatalogOptions catalog_options;
    if (journaled) {
      std::filesystem::create_directories(dir + "/spill");
      store::MemoryGovernorOptions g;
      g.budget_bytes = kMonitorMemBytes;
      governor.emplace(g);
      catalog_options.governor = &*governor;
      catalog_options.spill_dir = dir + "/spill";
    }
    catalog = std::make_unique<serve::GraphCatalog>(catalog_options);
    if (journaled) {
      Result<std::unique_ptr<dyn::DeltaJournal>> opened = dyn::DeltaJournal::Open(dir + "/j.log");
      if (!opened.ok()) return false;
      journal = opened.MoveValue();
    }
    serve::QueryEngineOptions engine_options;
    engine_options.pool = &ThreadPool::Global();
    engine = std::make_unique<serve::QueryEngine>(catalog.get(), engine_options);
    updates = std::make_unique<dyn::UpdateManager>(catalog.get(), journal.get());
    updates->BindObservability(engine->registry());
    session = std::make_unique<serve::ServeSession>(engine.get(), updates.get(), &server);
    return true;
  }
};

std::string VerbOf(const std::string& line) { return line.substr(0, line.find(' ')); }

}  // namespace

void RunTraced(const Ctx& ctx, const std::string& span_path, Outcome* out) {
  Tracer tracer;
  Report& r = out->report;
  const bool monitor = ctx.workload == "monitor";
  std::filesystem::create_directories("trace");

  // Set-up layers: snapshot decode and catalog load, per workload graph set.
  Samples read_ms, load_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    double read_total = 0, load_total = 0;
    serve::GraphCatalog catalog;
    for (const GraphInput& g : out->graphs) {
      read_total += tracer.Time("graph.io.read", 0, 0, [&] {
        std::ifstream in(g.path, std::ios::binary);
        if (!ReadGraphBinary(in).ok()) out->Fail("ReadGraphBinary " + g.path);
      });
      load_total += tracer.Time("serve.catalog.load", 0, 0, [&] {
        if (!catalog.Load(g.name, g.path).ok()) out->Fail("GraphCatalog::Load " + g.path);
      });
    }
    read_ms.Add(read_total / 1e3);
    load_ms.Add(load_total / 1e3);
  }
  r.Percentile("layer", "graph.io.read_ms", "ms", read_ms, 0.5);
  r.Percentile("layer", "serve.catalog.load_ms", "ms", load_ms, 0.5);

  // Session replay: three rounds of an untraced and a traced pass, each on
  // a fresh engine, alternating which pass goes first.
  std::ostringstream sink;
  const auto handle = [&](Engine& e, const std::string& line, const char* what) {
    sink.str("");
    e.session->HandleLine(line, sink);
    if (sink.view().substr(0, 2) != "ok") {
      out->Fail(std::string(what) + ": " + line + " -> " + std::string(sink.view().substr(0, 80)));
    }
  };
  std::vector<double> overheads;
  std::unique_ptr<Engine> last_traced;
  uint64_t request = 0;
  for (int round = 0; round < 3; ++round) {
    double seconds[2] = {0, 0};  // untraced, traced
    for (int pass = 0; pass < 2; ++pass) {
      const bool spans = (round + pass) % 2 == 1;
      auto engine = std::make_unique<Engine>();
      const std::string dir = std::string("trace/") + (spans ? "traced-" : "plain-") +
                              std::to_string(round);
      if (!engine->Build(monitor, dir)) {
        out->Fail("in-process engine in " + dir);
        return;
      }
      for (const std::string& line : out->trace.setup_lines) handle(*engine, line, "set-up");
      const int64_t start = NowNs();
      for (const std::string& line : out->trace.replay_lines) {
        if (!spans) {
          handle(*engine, line, "replay");
          continue;
        }
        ++request;
        const uint64_t root = tracer.Open("request", 0, request);
        tracer.Time("serve.protocol.parse", root, request,
                    [&] { (void)serve::ParseServeRequest(line); });
        tracer.Time("serve.session.handle." + VerbOf(line), root, request,
                    [&] { handle(*engine, line, "replay"); });
        tracer.Close(root);
      }
      seconds[spans ? 1 : 0] = (NowNs() - start) / 1e9;
      if (spans) last_traced = std::move(engine);
    }
    overheads.push_back(seconds[1] / seconds[0] - 1.0);
  }
  r.MeanOf("layer", "serve.protocol.parse_us", "us", tracer.Durations("serve.protocol.parse"));
  std::map<std::string, Samples> verbs;
  for (const std::string& line : out->trace.replay_lines) verbs[VerbOf(line)];
  for (auto& [verb, samples] : verbs) {
    samples = tracer.Durations("serve.session.handle." + verb);
    r.MeanOf("layer", "serve.session.handle_us." + verb, "us", samples);
  }
  r.Value("layer", "trace.overhead_ratio", "ratio", Median(overheads),
          out->trace.replay_lines.size(), "median of 3: traced/untraced replay time - 1");
  // Coverage: the traced pass's detect handle spans against the timed
  // run's client latencies of the same requests. The traced pass that ran
  // last holds the spans of the last replay.
  const std::vector<double>& spans = verbs["detect"].values;
  const std::vector<double>& client = out->trace.client_detect_ms;
  const std::size_t same = spans.size() >= client.size() ? client.size() : 0;
  double span_us = 0, client_us = 0;
  for (std::size_t i = 0; i < same; ++i) {
    span_us += spans[spans.size() - same + i];
    client_us += client[i] * 1e3;
  }
  r.Value("layer", "trace.coverage_ratio", "ratio", client_us > 0 ? span_us / client_us : 0.0,
          same, "sum of handle spans / sum of client latency, same detects");

  // vulnds layers called directly: bounds, reduction, and detection on a
  // 1-wide against a default-wide pool.
  std::vector<std::vector<double>> lower(out->graphs.size()), upper(out->graphs.size());
  Samples bounds_us;
  for (std::size_t g = 0; g < out->graphs.size(); ++g) {
    Samples per_graph;
    for (int rep = 0; rep < kReps; ++rep) {
      per_graph.Add(tracer.Time("vulnds.bounds", 0, 0, [&] {
        lower[g] = LowerBounds(out->graphs[g].graph, 2, &ThreadPool::Global()).MoveValue();
        upper[g] = UpperBounds(out->graphs[g].graph, 2, &ThreadPool::Global()).MoveValue();
      }));
    }
    bounds_us.Add(Median(per_graph.values));
  }
  r.MeanOf("layer", "vulnds.bounds_direct_us", "us", bounds_us);
  for (const DetectQuery& q : out->trace.detects) {
    tracer.Time("vulnds.reduce", 0, 0, [&] {
      if (!ReduceCandidates(lower[q.graph], upper[q.graph], q.options.k).ok()) {
        out->Fail("ReduceCandidates k=" + std::to_string(q.options.k));
      }
    });
  }
  r.MeanOf("layer", "vulnds.reduce_direct_us", "us", tracer.Durations("vulnds.reduce"));

  ThreadPool serial(1);
  ThreadPool wide(0);
  std::vector<DetectionContext> serial_ctx(out->graphs.size()), wide_ctx(out->graphs.size());
  // Monitor's re-query meets a new version with cold bounds, so its contexts
  // start cold every time; the others run context-warm as the server does.
  const std::size_t queries = std::min<std::size_t>(out->trace.detects.size(), 12);
  const int rounds = monitor ? kReps : 1;
  for (std::size_t g = 0; g < out->graphs.size() && !monitor; ++g) {
    DetectorOptions warm;
    warm.k = 5;
    warm.pool = &serial;
    (void)DetectTopK(out->graphs[g].graph, warm, &serial_ctx[g]);
    warm.pool = &wide;
    (void)DetectTopK(out->graphs[g].graph, warm, &wide_ctx[g]);
  }
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < queries; ++i) {
      const DetectQuery& q = out->trace.detects[i];
      if (monitor) {
        serial_ctx[q.graph] = DetectionContext();
        wide_ctx[q.graph] = DetectionContext();
      }
      Result<DetectionResult> a = Status::Internal("not run");
      Result<DetectionResult> b = Status::Internal("not run");
      DetectorOptions o = q.options;
      const auto serial_run = [&] {
        o.pool = &serial;
        tracer.Time("vulnds.detect.serial", 0, 0,
                    [&] { a = DetectTopK(out->graphs[q.graph].graph, o, &serial_ctx[q.graph]); });
      };
      const auto wide_run = [&] {
        o.pool = &wide;
        tracer.Time("vulnds.detect.pool", 0, 0,
                    [&] { b = DetectTopK(out->graphs[q.graph].graph, o, &wide_ctx[q.graph]); });
      };
      if ((i + round) % 2 == 0) {
        serial_run();
        wide_run();
      } else {
        wide_run();
        serial_run();
      }
      ++out->attempted;
      if (!a.ok() || !b.ok() || a->topk != b->topk || a->scores != b->scores) {
        out->Fail("1-wide and pool-wide DetectTopK differ: " + q.Line());
      }
    }
  }
  r.MeanOf("layer", "vulnds.detect_serial_us", "us", tracer.Durations("vulnds.detect.serial"));
  r.MeanOf("layer", "vulnds.detect_pool_us", "us", tracer.Durations("vulnds.detect.pool"));

  if (monitor) {
    // The workload's journal record stream, appended into a scratch journal
    // with an fsync at every commit record.
    Result<std::unique_ptr<dyn::DeltaJournal>> stream =
        dyn::DeltaJournal::Open(last_traced->journal->path());
    Result<std::unique_ptr<dyn::DeltaJournal>> scratch = dyn::DeltaJournal::Open("trace/scratch.log");
    if (!stream.ok() || !scratch.ok()) {
      out->Fail("journal open");
      return;
    }
    // The traced engine still holds the journal open; Open() above only
    // re-reads its validated records.
    for (const std::string& payload : (*stream)->recovered()) {
      tracer.Time("dyn.journal.append", 0, 0, [&] {
        if (!(*scratch)->Append(payload).ok()) out->Fail("journal append");
      });
      if (payload.rfind("commit ", 0) == 0) {
        tracer.Time("dyn.journal.fsync", 0, 0, [&] {
          if (!(*scratch)->Sync().ok()) out->Fail("journal fsync");
        });
      }
    }
    r.MeanOf("layer", "dyn.journal.append_us", "us", tracer.Durations("dyn.journal.append"));
    r.MeanOf("layer", "dyn.journal.fsync_us", "us", tracer.Durations("dyn.journal.fsync"));
    Samples compact_ms;
    for (int rep = 0; rep < 3; ++rep) {
      compact_ms.Add(tracer.Time("dyn.journal.compact", 0, 0, [&] {
        if (!last_traced->updates->CompactJournal().ok()) out->Fail("CompactJournal");
      }) / 1e3);
    }
    r.Percentile("layer", "dyn.journal.compact_ms", "ms", compact_ms, 0.5);

    // Replay of a copy of the timed run's last journal, as a restart does.
    Samples replay_s;
    for (int rep = 0; rep < 3; ++rep) {
      const std::string copy = "trace/replay-" + std::to_string(rep) + ".log";
      std::error_code ec;
      std::filesystem::copy_file(out->trace.journal_dir + "/j.log", copy,
                                 std::filesystem::copy_options::overwrite_existing, ec);
      Result<std::unique_ptr<dyn::DeltaJournal>> journal = dyn::DeltaJournal::Open(copy);
      if (ec || !journal.ok()) {
        out->Fail("journal copy");
        break;
      }
      serve::GraphCatalog catalog;
      dyn::UpdateManager updates(&catalog, journal->get());
      replay_s.Add(tracer.Time("dyn.replay", 0, 0, [&] {
        Result<dyn::JournalReplayStats> st = updates.ReplayJournal();
        if (!st.ok() || st->skipped != 0 || st->failed_names != 0) out->Fail("ReplayJournal");
      }) / 1e6);
    }
    r.Percentile("layer", "dyn.replay_s", "s", replay_s, 0.5);
  }

  if (!tracer.Write(span_path)) out->Fail("cannot write spans to " + span_path);
}

}  // namespace perfbench
