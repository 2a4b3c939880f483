// perfbench_driver: runs one workload of the repository benchmark against a
// `vulnds_cli serve unix=PATH` child and prints its metrics.
//
//   perfbench_driver --workload analyst|dashboard|monitor --seed N
//                    --seconds S --trace 0|1 --cli PATH --work DIR
//
// perfbench/run.py builds this program and vulnds_cli and calls it; see
// perfbench/README.md. The driver makes a fresh directory under --work,
// works only inside it, and removes it at the end. Its last stdout line is
// "RESULT <json>" with every metric it measured; run.py turns that into the
// benchmark's result line.

#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/thread_pool.h"
#include "driver/report.h"
#include "driver/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload analyst|dashboard|monitor --seed N\n"
               "                        --seconds S --trace 0|1 --cli PATH --work DIR\n");
  return 2;
}

// Name of the filesystem that holds `path`: the journal and spill files of
// the monitor workload live there, so their latencies are this
// filesystem's, not a bare device's.
std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

// The aggregate "cpu" line of /proc/stat: user nice system idle iowait irq
// softirq steal ... in clock ticks.
std::vector<long long> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::vector<long long> ticks;
  long long t = 0;
  if (in >> label && label == "cpu") {
    while (ticks.size() < 8 && in >> t) ticks.push_back(t);
  }
  return ticks;
}

// Share of CPU time the hypervisor gave to other guests between two
// CpuTicks() readings, in percent: on a shared host every latency moves
// with it, so each run records it.
double StealPercent(const std::vector<long long>& a, const std::vector<long long>& b) {
  if (a.size() < 8 || b.size() < 8) return 0.0;
  long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? 100.0 * static_cast<double>(b[7] - a[7]) / static_cast<double>(total) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Ctx ctx;
  std::string work;
  std::string trace_flag = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      ctx.workload = value;
    } else if (key == "--seed") {
      vulnds::Result<uint64_t> v = vulnds::ParseUint64(value);
      if (!v.ok()) return Usage();
      ctx.seed = *v;
    } else if (key == "--seconds") {
      vulnds::Result<double> v = vulnds::ParseDouble(value);
      if (!v.ok() || *v <= 0 || *v > 120) return Usage();
      ctx.seconds = *v;
    } else if (key == "--trace") {
      trace_flag = value;
    } else if (key == "--cli") {
      ctx.cli = value;
    } else if (key == "--work") {
      work = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || ctx.cli.empty() || work.empty() ||
      (trace_flag != "0" && trace_flag != "1")) {
    return Usage();
  }
  ctx.trace = trace_flag == "1";
  void (*run)(const Ctx&, Outcome*) = nullptr;
  if (ctx.workload == "analyst") run = RunAnalyst;
  if (ctx.workload == "dashboard") run = RunDashboard;
  if (ctx.workload == "monitor") run = RunMonitor;
  if (run == nullptr) return Usage();

  namespace fs = std::filesystem;
  std::error_code ec;
  ctx.cli = fs::absolute(ctx.cli, ec).string();
  const fs::path run_dir = fs::absolute(work, ec) /
                           (ctx.workload + "-" + std::to_string(ctx.seed) + "-" +
                            std::to_string(::getpid()));
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec || ::chdir(run_dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot use %s\n", run_dir.c_str());
    return 1;
  }

  // Read before the run: dashboard pins its timed phase to fewer CPUs.
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int affinity_cpus =
      ::sched_getaffinity(0, sizeof(affinity), &affinity) == 0 ? CPU_COUNT(&affinity) : 0;
  const std::vector<long long> ticks_before = CpuTicks();
  Outcome out;
  run(ctx, &out);
  if (ctx.trace && out.failed == 0) {
    const fs::path spans = run_dir.parent_path() /
                           ("spans-" + ctx.workload + "-" + std::to_string(ctx.seed) + ".jsonl");
    RunTraced(ctx, spans.string(), &out);
  }

  const std::string filesystem = FilesystemOf(run_dir.string());
  const double steal = StealPercent(ticks_before, CpuTicks());
  // The server does not report its pool width. Its default pool and the
  // driver's ThreadPool::Global() size themselves by one rule (the
  // hardware concurrency), so the driver computes the width here; it is a
  // host fact, not a measurement of the server.
  const std::size_t default_pool = vulnds::ThreadPool::Global().num_threads();
  if (::chdir(run_dir.parent_path().c_str()) == 0) fs::remove_all(run_dir, ec);

  std::printf("host: nproc=%ld affinity_cpus=%d default_pool_width=%zu (driver-computed) "
              "simd_tier=%s build=%s filesystem=%s steal_pct=%.1f workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), affinity_cpus, default_pool,
              out.simd_tier.empty() ? "unknown" : out.simd_tier.c_str(), PERFBENCH_BUILD_TYPE,
              filesystem.c_str(), steal, ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0);
  for (const std::string& f : out.failures) std::printf("FAILED: %s\n", f.c_str());
  for (const std::string& e : out.report.errors()) std::printf("ERROR: %s\n", e.c_str());

  std::string json = "{\"workload\": " + JsonString(ctx.workload) +
                     ", \"seed\": " + std::to_string(ctx.seed) +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"errors\": " + std::to_string(out.report.errors().size()) +
                     ", \"host\": {\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"affinity_cpus\": " + std::to_string(affinity_cpus) +
                     ", \"default_pool_width_driver_computed\": " + std::to_string(default_pool) +
                     ", \"simd_tier\": " + JsonString(out.simd_tier) +
                     ", \"build\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                     ", \"filesystem\": " + JsonString(filesystem) +
                     ", \"steal_pct\": " + JsonNumber(steal) + "}, \"metrics\": [";
  bool first = true;
  for (const Metric& m : out.report.metrics()) {
    json += std::string(first ? "" : ", ") + "{\"name\": " + JsonString(m.name) +
            ", \"kind\": " + JsonString(m.kind) + ", \"unit\": " + JsonString(m.unit) +
            ", \"value\": " + JsonNumber(m.value) + ", \"n\": " + std::to_string(m.n) +
            ", \"basis\": " + JsonString(m.basis) + "}";
    first = false;
  }
  json += "]}";
  std::printf("RESULT %s\n", json.c_str());
  return out.failed == 0 && out.report.ok() ? 0 : 1;
}
