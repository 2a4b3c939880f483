#include "driver/wire.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

// How long a client spins on a non-blocking recv before it sleeps in poll().
constexpr int64_t kSpinNs = 200000;

// Milliseconds left until `deadline_ns`, clamped at 0.
int RemainingMs(int64_t deadline_ns) {
  const int64_t left = deadline_ns - NowNs();
  return left <= 0 ? 0 : static_cast<int>((left + 999999) / 1000000);
}

}  // namespace

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool Conn::Dial(const std::string& path, int timeout_ms) {
  Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      fd_ = fd;
      return true;
    }
    ::close(fd);
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool Conn::Request(std::string_view line, bool block_verb, std::string* response,
                   int timeout_ms) {
  response->clear();
  if (fd_ < 0) return false;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  out_.assign(line);
  out_.push_back('\n');
  std::size_t sent = 0;
  while (sent < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + sent, out_.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  // Scan position for the terminator: bytes before it were already searched.
  std::size_t scan = 0;
  char buf[65536];
  for (;;) {
    const std::size_t header_end = in_.find('\n');
    if (header_end != std::string::npos) {
      const bool block = block_verb && in_.compare(0, 2, "ok") == 0;
      std::size_t end = std::string::npos;
      if (!block) {
        end = header_end + 1;
      } else {
        const std::size_t from = std::max(header_end, scan);
        const std::size_t dot = in_.find("\n.\n", from);
        if (dot != std::string::npos) end = dot + 3;
        scan = in_.size() >= 2 ? in_.size() - 2 : 0;
      }
      if (end != std::string::npos) {
        response->assign(in_, 0, end);
        in_.erase(0, end);
        return true;
      }
    }
    // Spin briefly before sleeping in poll(): a cached answer arrives within
    // tens of microseconds, and a sleeping client would add its own wake-up
    // latency (and that latency's noise) to every one. Each turn yields, so
    // a server thread scheduled on this CPU is not starved by the spin.
    ssize_t n = -1;
    const int64_t spin_until = NowNs() + kSpinNs;
    while ((n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT)) < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK) && NowNs() < spin_until) {
      sched_yield();
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        Close();
        return false;
      }
      n = ::recv(fd_, buf, sizeof(buf), 0);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    in_.append(buf, static_cast<std::size_t>(n));
  }
}

ServerProc::~ServerProc() { Kill(); }

bool ServerProc::Start(const std::string& cli, const std::vector<std::string>& args,
                       const std::string& log_path, int timeout_ms) {
  Kill();
  std::vector<std::string> argv_storage = {cli, "serve"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (log_fd < 0 || null_fd < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    if (log_fd >= 0) ::close(log_fd);
    if (null_fd >= 0) ::close(null_fd);
    return false;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with the driver, so an aborted run never leaves a server behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(null_fd, 0);
    ::dup2(pipefd[1], 1);
    ::dup2(log_fd, 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  ::close(log_fd);
  ::close(null_fd);
  if (pid < 0) {
    ::close(pipefd[0]);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = pipefd[0];
  // Readiness: the first stdout line is "listening unix=...".
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  std::string line;
  char c = 0;
  while (RemainingMs(deadline) > 0) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n <= 0) break;
    if (c == '\n') {
      if (line.rfind("listening unix=", 0) == 0) return true;
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  Kill();
  return false;
}

bool ServerProc::WaitExit(int timeout_ms, int* status) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1000000;
  for (;;) {
    const pid_t r = ::waitpid(pid_, status, WNOHANG);
    if (r == pid_) return true;
    if (r < 0 && errno != EINTR) return true;  // already reaped elsewhere
    if (NowNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool ServerProc::Shutdown(Conn* conn, int timeout_ms) {
  if (pid_ <= 0) return false;
  std::string response;
  if (conn != nullptr && conn->connected()) {
    conn->Request("shutdown", false, &response, timeout_ms);
    conn->Close();
  } else {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  if (!WaitExit(timeout_ms, &status)) {
    Kill();
    return false;
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void ServerProc::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
}

long ServerProc::PeakRssKb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

double ServerProc::CpuSeconds() const {
  clockid_t clock;
  timespec ts{};
  if (pid_ <= 0 || ::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

Scrape ParseScrape(std::string_view response) {
  Scrape out;
  std::size_t pos = response.find('\n');  // skip the "ok metrics" header
  while (pos != std::string_view::npos && pos + 1 < response.size()) {
    const std::size_t begin = pos + 1;
    std::size_t end = response.find('\n', begin);
    if (end == std::string_view::npos) end = response.size();
    const std::string_view line = response.substr(begin, end - begin);
    pos = end;
    if (line.empty() || line[0] == '#' || line == ".") continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    out[std::string(line.substr(0, space))] =
        std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return out;
}

double Delta(const Scrape& before, const Scrape& after, const std::string& series) {
  const auto a = after.find(series);
  const auto b = before.find(series);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

double FamilyDelta(const Scrape& before, const Scrape& after, const std::string& family) {
  double sum = 0.0;
  for (auto it = after.lower_bound(family); it != after.end(); ++it) {
    const std::string& series = it->first;
    if (series.compare(0, family.size(), family) != 0) break;
    if (series.size() != family.size() && series[family.size()] != '{') continue;
    sum += Delta(before, after, series);
  }
  return sum;
}

std::string_view HeaderOf(std::string_view response) {
  const std::size_t nl = response.find('\n');
  return nl == std::string_view::npos ? response : response.substr(0, nl);
}

std::string_view HeaderField(std::string_view header, std::string_view key) {
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t end = header.find(' ', pos);
    if (end == std::string_view::npos) end = header.size();
    const std::string_view token = header.substr(pos, end - pos);
    if (token.size() > key.size() && token.compare(0, key.size(), key) == 0 &&
        token[key.size()] == '=') {
      return token.substr(key.size() + 1);
    }
    pos = end + 1;
  }
  return {};
}

std::string AnswerBytes(std::string_view response) {
  const std::string_view header = HeaderOf(response);
  std::string out;
  out.reserve(response.size());
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t end = header.find(' ', pos);
    if (end == std::string_view::npos) end = header.size();
    const std::string_view token = header.substr(pos, end - pos);
    if (token.rfind("time=", 0) != 0 && token.rfind("cached=", 0) != 0) {
      if (!out.empty()) out.push_back(' ');
      out.append(token);
    }
    pos = end + 1;
  }
  out.append(response.substr(header.size()));
  return out;
}

}  // namespace perfbench
