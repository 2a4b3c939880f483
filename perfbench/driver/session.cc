#include "driver/session.h"

#include <dirent.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>

namespace perfbench {

bool IsBlockVerb(std::string_view line) {
  const std::string_view verb = line.substr(0, line.find(' '));
  return verb == "detect" || verb == "truth" || verb == "stats" || verb == "metrics" ||
         verb == "catalog" || verb == "versions";
}

bool Do(Conn* conn, const std::string& line, std::string* response, Outcome* out) {
  ++out->attempted;
  if (!conn->Request(line, IsBlockVerb(line), response)) {
    out->Fail("no answer to: " + line);
    return false;
  }
  if (response->rfind("ok", 0) != 0) {
    out->Fail(line + " -> " + std::string(HeaderOf(*response)));
    return false;
  }
  return true;
}

bool StartAndSetUp(const Ctx& ctx, const std::vector<std::string>& extra_args,
                   const std::vector<std::string>& setup_lines, ServerProc* server,
                   Conn* conn, SetupTimes* setup, Outcome* out,
                   std::vector<std::string>* responses) {
  std::vector<std::string> args = {std::string("unix=") + kSocketPath};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const int64_t t0 = NowNs();
  ++out->attempted;
  if (!server->Start(ctx.cli, args, "server.log", 30000) || !conn->Dial(kSocketPath, 10000)) {
    out->Fail("server did not start (see server.log)");
    return false;
  }
  std::string response;
  if (responses != nullptr) responses->clear();
  for (const std::string& line : setup_lines) {
    if (!Do(conn, line, &response, out)) return false;
    if (responses != nullptr) responses->push_back(response);
  }
  setup->wall_s.Add((NowNs() - t0) / 1e9);
  setup->cpu_s.Add(server->CpuSeconds());
  return true;
}

void ReportSetup(const SetupTimes& setup, Report* report) {
  report->Percentile("e2e", "setup_s", "s", setup.cpu_s, 0.5);
  report->Percentile("e2e", "setup_wall_s", "s", setup.wall_s, 0.5);
}

bool TakeScrape(Conn* conn, Scrape* scrape, double* bytes, Outcome* out) {
  std::string response;
  if (!Do(conn, "metrics", &response, out)) return false;
  *scrape = ParseScrape(response);
  if (bytes != nullptr) *bytes = static_cast<double>(response.size());
  return true;
}

std::vector<int> FirstCpus(std::size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < n; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < n) cpus.clear();
  return cpus;
}

bool PinThread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::set<pid_t> ServerThreads(const ServerProc& server) {
  std::set<pid_t> tids;
  if (DIR* d = ::opendir(("/proc/" + std::to_string(server.pid()) + "/task").c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      if (ent->d_name[0] != '.') tids.insert(static_cast<pid_t>(std::atoi(ent->d_name)));
    }
    ::closedir(d);
  }
  return tids;
}

bool TimedLoop::Continue(int64_t start_ns, std::size_t samples) const {
  const double elapsed = (NowNs() - start_ns) / 1e9;
  if (elapsed >= seconds + 60.0) return false;
  return elapsed < seconds || samples < min_samples;
}

}  // namespace perfbench
