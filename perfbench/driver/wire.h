// Client side of the serve front: a blocking Unix-socket connection that
// speaks the line protocol, the `vulnds_cli serve` child process, and the
// Prometheus text parser used for scrape deltas.
//
// The connection is deliberately thin (one send, a recv loop into a reused
// buffer, a scan for the terminating "\n.\n") because a cached detect costs
// tens of microseconds and the client may add only a few.

#ifndef PERFBENCH_DRIVER_WIRE_H_
#define PERFBENCH_DRIVER_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

/// One blocking connection to `serve unix=PATH`.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to the socket at `path`, retrying for up to `timeout_ms`.
  bool Dial(const std::string& path, int timeout_ms);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends `line` (no trailing newline) and reads one whole response into
  /// `*response`: the header line, plus — for an "ok" answer to a block
  /// verb — every payload line through the closing ".". Returns false on a
  /// timeout, a dropped connection or a malformed frame; the connection is
  /// closed then and every later request fails.
  bool Request(std::string_view line, bool block_verb, std::string* response,
               int timeout_ms = 60000);

 private:
  int fd_ = -1;
  std::string out_;
  std::string in_;  // bytes received past the last response
};

/// A `vulnds_cli serve` child. Its stdout is a pipe the first line of which
/// ("listening unix=...") marks readiness; stderr goes to a log file.
class ServerProc {
 public:
  ServerProc() = default;
  ~ServerProc();  // SIGKILLs and reaps a child that is still running
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Spawns `cli serve <args...>` and waits until it listens. Returns false
  /// (with the child reaped) when it exits or stays silent for `timeout_ms`.
  bool Start(const std::string& cli, const std::vector<std::string>& args,
             const std::string& log_path, int timeout_ms);
  /// Sends `shutdown` on `conn` and waits for a clean exit; SIGKILL after
  /// `timeout_ms`. Returns true when the child exited with status 0.
  bool Shutdown(Conn* conn, int timeout_ms);
  /// SIGKILL and reap.
  void Kill();
  /// VmHWM of the child in KiB (0 when unavailable).
  long PeakRssKb() const;
  /// CPU time the child has used so far, all its threads, in seconds (-1
  /// when unavailable). The kernel leaves out the time the hypervisor gave
  /// to other guests (steal), which wall-clock latencies on a shared host
  /// cannot.
  double CpuSeconds() const;
  pid_t pid() const { return pid_; }

 private:
  bool WaitExit(int timeout_ms, int* status);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// Parsed Prometheus text exposition: "name{labels}" -> value.
using Scrape = std::map<std::string, double>;

/// Parses the payload of an "ok metrics" response (header and "." ignored).
Scrape ParseScrape(std::string_view response);

/// after[series] - before[series]; a series absent from a side counts 0.
double Delta(const Scrape& before, const Scrape& after,
             const std::string& series);

/// Sum of Delta over every series whose name (before any '{') is `family`.
double FamilyDelta(const Scrape& before, const Scrape& after,
                   const std::string& family);

/// The header line of a response (up to, not including, the first '\n').
std::string_view HeaderOf(std::string_view response);

/// The value of `key=` in a header line ("" when absent).
std::string_view HeaderField(std::string_view header, std::string_view key);

/// A response with the protocol's non-answer tokens removed: the wall-clock
/// `time=` and the `cached=` flag of the header. Two answers to one query
/// compare byte-equal after this, cached or not.
std::string AnswerBytes(std::string_view response);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WIRE_H_
