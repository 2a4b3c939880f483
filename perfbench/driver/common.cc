// Helpers shared by the workloads: graph generation, answer checks and the
// scrape-delta layer metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parse.h"
#include "driver/workloads.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace vulnds;

void Outcome::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
}

void CountUncached(std::string_view header, double* uncached, double* worlds) {
  if (HeaderField(header, "cached") != "0") return;
  *uncached += 1;
  const std::string_view samples = HeaderField(header, "samples");
  *worlds += std::strtod(std::string(samples.substr(0, samples.find('/'))).c_str(), nullptr);
}

std::string DetectQuery::Line() const {
  return "detect " + name + " " + std::to_string(options.k) + " " +
         MethodName(options.method) + " seed=" + std::to_string(options.seed);
}

bool MakeGraphs(const std::vector<std::string>& names, uint64_t seed,
                std::vector<GraphInput>* out) {
  for (const std::string& name : names) {
    DatasetId id = DatasetId::kP2P;
    bool found = false;
    for (const DatasetId candidate : AllDatasets()) {
      if (AsciiLower(DatasetName(candidate)) == name) {
        id = candidate;
        found = true;
      }
    }
    if (!found) return false;
    Result<UncertainGraph> graph = MakeDataset(id, 1.0, seed);
    if (!graph.ok()) {
      std::fprintf(stderr, "perfbench: generate %s: %s\n", name.c_str(),
                   graph.status().ToString().c_str());
      return false;
    }
    GraphInput input{name, name + ".vg2", graph.MoveValue()};
    if (!WriteGraphFile(input.graph, input.path, GraphFileFormat::kBinary).ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", input.path.c_str());
      return false;
    }
    out->push_back(std::move(input));
  }
  return true;
}

std::string CompareDetect(const std::string& response, const DetectionResult& expected) {
  const std::string_view header = HeaderOf(response);
  if (header.rfind("ok detect ", 0) != 0) return "not an answer: " + std::string(header);
  const std::string samples = std::to_string(expected.samples_processed) + "/" +
                              std::to_string(expected.samples_budget);
  if (HeaderField(header, "samples") != samples ||
      HeaderField(header, "verified") != std::to_string(expected.verified_count)) {
    return "header differs: " + std::string(header) + " (want samples=" + samples +
           " verified=" + std::to_string(expected.verified_count) + ")";
  }
  std::string rows;
  for (std::size_t i = 0; i < expected.topk.size(); ++i) {
    rows += std::to_string(i + 1) + " " + std::to_string(expected.topk[i]) + " " +
            serve::FormatRoundTrip(expected.scores[i]) + "\n";
  }
  rows += ".\n";
  if (response.compare(header.size() + 1, std::string::npos, rows) != 0) {
    return "ranking differs for: " + std::string(header);
  }
  return {};
}

std::string SimdTier(const Scrape& scrape) {
  const std::string prefix = "vulnds_simd_tier{tier=\"";
  for (auto it = scrape.lower_bound(prefix); it != scrape.end(); ++it) {
    if (it->first.rfind(prefix, 0) != 0) break;
    if (it->second == 1.0) return it->first.substr(prefix.size(), it->first.size() - prefix.size() - 2);
  }
  return "unknown";
}

void ScrapeLayerMetrics(const Scrape& b, const Scrape& a, const Samples& client_detect_ms,
                        double uncached, double worlds, double scrape_bytes,
                        Outcome* out) {
  Report& r = out->report;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto d = [&](const std::string& series) { return Delta(b, a, series); };
  const auto per = [&](const std::string& sum, const std::string& count) {
    return ratio(d(sum), d(count));
  };
  const auto n = [](double v) { return static_cast<std::size_t>(v < 0 ? 0 : v); };

  const double hits = d("vulnds_cache_hits_total{cache=\"detect\"}");
  const double misses = d("vulnds_cache_misses_total{cache=\"detect\"}");
  r.Value("layer", "serve.cache.hit_ratio", "ratio", ratio(hits, hits + misses),
          n(hits + misses), "hits/lookups");
  r.Value("layer", "serve.cache.lookup_us", "us",
          per("vulnds_engine_stage_micros_sum{stage=\"cache_lookup\"}",
              "vulnds_engine_stage_micros_count{stage=\"cache_lookup\"}"),
          n(d("vulnds_engine_stage_micros_count{stage=\"cache_lookup\"}")), "mean");
  const double engine_detects = d("vulnds_engine_requests_total{verb=\"detect\"}");
  r.Value("layer", "serve.engine.batched_ratio", "ratio",
          ratio(d("vulnds_engine_batched_queries_total"), engine_detects),
          n(engine_detects), "batched/detects");
  const std::string cold = "{verb=\"detect\",cached=\"0\"}";
  const std::string warm = "{verb=\"detect\",cached=\"1\"}";
  r.Value("layer", "serve.engine.detect_us", "us",
          per("vulnds_engine_request_micros_sum" + cold, "vulnds_engine_request_micros_count" + cold),
          n(d("vulnds_engine_request_micros_count" + cold)), "mean");
  r.Value("layer", "serve.engine.detect_cached_us", "us",
          per("vulnds_engine_request_micros_sum" + warm, "vulnds_engine_request_micros_count" + warm),
          n(d("vulnds_engine_request_micros_count" + warm)), "mean");
  const double cat_hits = d("vulnds_catalog_hits_total");
  const double cat_misses = d("vulnds_catalog_misses_total");
  r.Value("layer", "serve.catalog.hit_ratio", "ratio", ratio(cat_hits, cat_hits + cat_misses),
          n(cat_hits + cat_misses), "hits/lookups");
  r.Value("layer", "serve.catalog.loads", "count", d("vulnds_catalog_loads_total"), 1, "delta");

  for (const char* stage : {"bounds", "reduce", "sampling"}) {
    r.Value("layer", std::string("vulnds.") + stage + "_us", "us",
            ratio(d(std::string("vulnds_engine_stage_micros_sum{stage=\"") + stage + "\"}"), uncached),
            n(uncached), "sum/uncached detects");
  }
  const double wasted = d("vulnds_engine_worlds_wasted_total");
  r.Value("layer", "vulnds.worlds_per_detect", "count", ratio(worlds, uncached), n(uncached),
          "samples=a summed/uncached detects");
  r.Value("layer", "vulnds.waves_per_detect", "count",
          ratio(d("vulnds_engine_waves_issued_total"), uncached), n(uncached),
          "waves/uncached detects");
  r.Value("layer", "vulnds.wasted_ratio", "ratio", ratio(wasted, worlds + wasted),
          n(worlds + wasted), "wasted/(folded+wasted) worlds");
  const double batched = d("vulnds_simd_batched_coins_total");
  const double tail = d("vulnds_simd_scalar_tail_coins_total");
  r.Value("layer", "simd.batched_coin_ratio", "ratio", ratio(batched, batched + tail),
          n(batched + tail), "batched/all coins");
  r.Value("layer", "simd.coins_per_detect", "count", ratio(batched + tail, uncached),
          n(uncached), "coins/uncached detects");

  r.Value("layer", "store.page_in_us", "us",
          per("vulnds_store_page_in_micros_sum", "vulnds_store_page_in_micros_count"),
          n(d("vulnds_store_page_in_micros_count")), "mean");
  r.Value("layer", "store.page_ins", "count", d("vulnds_store_page_ins_total"), 1, "delta");
  r.Value("layer", "store.spills", "count", d("vulnds_store_spills_total"), 1, "delta");
  r.Value("layer", "store.shed_bytes", "bytes", d("vulnds_store_shed_bytes_total"), 1, "delta");
  r.Value("layer", "store.io_errors", "count", FamilyDelta(b, a, "vulnds_store_io_errors_total"),
          1, "delta");
  r.Value("layer", "net.rejected", "count", FamilyDelta(b, a, "vulnds_net_rejected_total"), 1,
          "delta");

  const double server_detect_us =
      per("vulnds_server_request_micros_sum{verb=\"detect\"}",
          "vulnds_server_request_micros_count{verb=\"detect\"}");
  r.Value("layer", "net.overhead_us", "us", Mean(client_detect_ms.values) * 1000.0 - server_detect_us,
          client_detect_ms.size(), "client mean - server mean (detect)");
  r.Value("layer", "obs.scrape_bytes", "bytes", scrape_bytes, 1, "mean scrape size");
  r.Value("layer", "obs.scrape_server_us", "us",
          per("vulnds_server_request_micros_sum{verb=\"metrics\"}",
              "vulnds_server_request_micros_count{verb=\"metrics\"}"),
          n(d("vulnds_server_request_micros_count{verb=\"metrics\"}")), "mean");
  out->simd_tier = SimdTier(a);
}

void CheckScrape(const Scrape& b, const Scrape& a, double min_hit_ratio, double max_hit_ratio,
                 Outcome* out) {
  const auto check = [out](bool ok, const std::string& why) {
    ++out->attempted;
    if (!ok) out->Fail(why);
  };
  const double io_errors = FamilyDelta(b, a, "vulnds_store_io_errors_total");
  const double rejected = FamilyDelta(b, a, "vulnds_net_rejected_total");
  check(io_errors == 0, "store.io_errors = " + std::to_string(io_errors) + ", must be 0");
  check(rejected == 0, "net.rejected = " + std::to_string(rejected) + ", must be 0");
  const double hits = Delta(b, a, "vulnds_cache_hits_total{cache=\"detect\"}");
  const double lookups = hits + Delta(b, a, "vulnds_cache_misses_total{cache=\"detect\"}");
  const double ratio = lookups > 0 ? hits / lookups : 0.0;
  check(ratio >= min_hit_ratio && ratio <= max_hit_ratio,
        "serve.cache.hit_ratio = " + std::to_string(ratio) + ", must be in [" +
            std::to_string(min_hit_ratio) + ", " + std::to_string(max_hit_ratio) + "]");
}

}  // namespace perfbench
