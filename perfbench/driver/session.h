// Session plumbing shared by the workloads: spawning a server and running
// its set-up, counted requests, scrapes, and the timed-loop stop rule.

#ifndef PERFBENCH_DRIVER_SESSION_H_
#define PERFBENCH_DRIVER_SESSION_H_

#include <sys/types.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "driver/report.h"
#include "driver/wire.h"
#include "driver/workloads.h"

namespace perfbench {

/// The server's socket, relative to the run directory (the driver's cwd),
/// so the path stays short however deep the checkout is.
inline constexpr const char* kSocketPath = "srv.sock";

/// True for the verbs whose "ok" answer carries a "."-terminated payload.
bool IsBlockVerb(std::string_view line);

/// Sends one counted request: a dropped connection, a timeout or an "err"
/// answer counts as a failed operation. Returns true on an "ok" answer.
bool Do(Conn* conn, const std::string& line, std::string* response, Outcome* out);

/// Set-up time of each start, from spawn to the last set-up answer: the
/// server's CPU time (the bounded `setup_s`) and the wall time.
struct SetupTimes {
  Samples cpu_s;
  Samples wall_s;
};

/// Spawns `vulnds_cli serve unix=srv.sock <extra_args>`, connects, and runs
/// `setup_lines`. The start's set-up times are appended to `*setup`; the
/// answers go to `*responses` when it is non-null.
bool StartAndSetUp(const Ctx& ctx, const std::vector<std::string>& extra_args,
                   const std::vector<std::string>& setup_lines, ServerProc* server,
                   Conn* conn, SetupTimes* setup, Outcome* out,
                   std::vector<std::string>* responses);

/// Reports `setup` as `setup_s` (CPU, median) and `setup_wall_s`.
void ReportSetup(const SetupTimes& setup, Report* report);

/// One `metrics` scrape, parsed; its size in bytes goes to `*bytes`.
bool TakeScrape(Conn* conn, Scrape* scrape, double* bytes, Outcome* out);

/// The first `n` CPUs the calling thread may use; empty when fewer.
std::vector<int> FirstCpus(std::size_t n);

/// Restricts thread `tid` (0 for the calling thread) to `cpus`. Threads it
/// starts afterwards inherit the restriction.
bool PinThread(pid_t tid, const std::vector<int>& cpus);

/// Thread ids of the server process.
std::set<pid_t> ServerThreads(const ServerProc& server);

/// A timed phase runs for `seconds`, and longer if it has not yet collected
/// `min_samples` (so its tail percentile has 10 samples beyond it), but
/// never more than 60 s past `seconds`.
struct TimedLoop {
  double seconds;
  std::size_t min_samples;
  TimedLoop(double s, std::size_t n) : seconds(s), min_samples(n) {}
  bool Continue(int64_t start_ns, std::size_t samples) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SESSION_H_
