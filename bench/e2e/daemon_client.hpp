#pragma once
/// \file daemon_client.hpp
/// Drives a live `omniboost_cli serve --listen` daemon from the benchmark:
/// spawns it (stdout piped back for the `listening on <port>` banner),
/// generates seeded arrive/depart clauses, and times commands over one
/// loopback connection, either pipelined (a writer thread sends while the
/// calling thread collects replies) or closed-loop (send, wait for the
/// terminator, send the next).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "e2e/stats.hpp"
#include "e2e/trace.hpp"
#include "models/model_id.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace omniboost::e2e {

/// One daemon subprocess. Destruction kills and reaps it if it is still
/// running, so no daemon outlives the benchmark.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::vector<std::string>& args) {
    if (::access(cli.c_str(), X_OK) != 0)
      throw std::runtime_error("cannot run " + cli + ": " +
                               std::strerror(errno));
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    std::vector<std::string> argv_s;
    argv_s.push_back(cli);
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    const Clock::time_point start = Clock::now();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Async-signal-safe calls only until exec. The daemon is killed when
      // the benchmark ends, however it ends: a SIGKILLed benchmark runs no
      // destructor.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(cli.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    if (pid_ < 0) {
      ::close(fds[0]);
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    out_fd_ = fds[0];
    try {
      port_ = read_banner(start);
    } catch (...) {
      kill();
      throw;
    }
    startup_s_ = seconds_since(start);
  }

  ~DaemonProcess() { kill(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Spawn to `listening on` banner, in seconds.
  double startup_s() const { return startup_s_; }

  double peak_rss_mb() const {
    return e2e::peak_rss_mb("/proc/" + std::to_string(pid_) + "/status");
  }

  /// Sends `shutdown` on a fresh connection and reaps the process; true when
  /// it acknowledged and exited with status 0.
  bool shutdown() {
    bool acked = false;
    try {
      util::TcpStream s = util::tcp_connect("127.0.0.1", port_);
      s.send_line("shutdown");
      std::string line;
      acked = s.recv_line(&line, 10000) == util::TcpStream::RecvStatus::kLine &&
              line == "ok";
    } catch (const std::exception&) {
      acked = false;
    }
    const int status = reap(10.0);
    return acked && status == 0;
  }

  /// Ends the process now (SIGKILL) and reaps it; a no-op once reaped.
  void kill() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    reap(10.0);
  }

 private:
  std::uint16_t read_banner(Clock::time_point start) {
    std::string buffer;
    char chunk[256];
    for (;;) {
      const double left_ms = 15000.0 - 1000.0 * seconds_since(start);
      if (left_ms <= 0.0)
        throw std::runtime_error("daemon printed no `listening on` line");
      struct pollfd p;
      p.fd = out_fd_;
      p.events = POLLIN;
      const int rc = ::poll(&p, 1, static_cast<int>(left_ms));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) continue;
      const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon exited before listening");
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, eol);
        buffer.erase(0, eol + 1);
        unsigned port = 0;
        if (std::sscanf(line.c_str(), "listening on %u", &port) == 1)
          return static_cast<std::uint16_t>(port);
      }
    }
  }

  /// Waits up to \p timeout_s for the child, then kills it; returns its
  /// wait status (-1 when there was nothing to reap).
  int reap(double timeout_s) {
    int status = -1;
    if (pid_ > 0) {
      const Clock::time_point start = Clock::now();
      for (;;) {
        const pid_t r = ::waitpid(pid_, &status, WNOHANG);
        if (r == pid_ || (r < 0 && errno != EINTR)) break;
        if (seconds_since(start) > timeout_s) ::kill(pid_, SIGKILL);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
    return status;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double startup_s_ = 0.0;
};

/// Seeded arrive/depart clauses over the model zoo that keep the mix at or
/// below \p max_mix streams and always satisfy the scenario invariants
/// (arrive only while absent, depart only while present).
class ClauseGenerator {
 public:
  ClauseGenerator(std::uint64_t seed, std::size_t max_mix)
      : rng_(seed), present_(models::kNumModels, false), max_mix_(max_mix) {}

  std::string next() {
    const bool arrive =
        count_ == 0 || (count_ < max_mix_ && rng_.chance(0.5));
    std::vector<std::size_t> candidates;
    for (std::size_t m = 0; m < present_.size(); ++m)
      if (present_[m] != arrive) candidates.push_back(m);
    const std::size_t pick = rng_.pick(candidates);
    present_[pick] = arrive;
    count_ = arrive ? count_ + 1 : count_ - 1;
    return std::string(arrive ? "arrive " : "depart ") +
           std::string(models::model_name(models::kAllModels[pick]));
  }

 private:
  util::Rng rng_;
  std::vector<bool> present_;
  std::size_t count_ = 0;
  std::size_t max_mix_;
};

/// \p n commands: generated clauses, with `status` at every
/// \p status_every-th position.
inline std::vector<std::string> make_commands(ClauseGenerator& gen,
                                              std::size_t n,
                                              std::size_t status_every) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 1; i <= n; ++i)
    out.push_back(i % status_every == 0 ? "status" : gen.next());
  return out;
}

/// Reads reply lines up to the terminator (`ok` or `err ...`). Returns 1
/// for ok, 0 for err, -1 when the connection closed or timed out.
inline int read_reply(util::TcpStream& s, std::vector<std::string>* body) {
  std::string line;
  while (s.recv_line(&line, 30000) == util::TcpStream::RecvStatus::kLine) {
    if (line == "ok") return 1;
    if (line == "err" || line.rfind("err ", 0) == 0) return 0;
    if (body != nullptr) body->push_back(line);
  }
  return -1;
}

struct BurstResult {
  std::vector<double> reply_ms;  ///< arrival of each terminator, from start
  std::size_t errors = 0;        ///< err replies
  bool complete = false;         ///< every command got its terminator
};

/// Pipelined phase: a writer thread sends every command while this thread
/// collects the replies, moving the daemon to its next CPU every 500
/// replies. When a reply never comes, \p on_stall must make the writer's
/// pending send fail (the caller kills the daemon).
template <typename OnStall>
BurstResult run_burst(util::TcpStream& s, const std::vector<std::string>& cmds,
                      CpuRotation& daemon_cpus, OnStall on_stall) {
  BurstResult out;
  out.reply_ms.reserve(cmds.size());
  std::exception_ptr writer_error;
  const Clock::time_point start = Clock::now();
  std::thread writer([&s, &cmds, &writer_error] {
    try {
      for (const std::string& c : cmds) s.send_line(c);
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  out.complete = true;
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const int r = read_reply(s, nullptr);
    if (r < 0) {
      out.complete = false;
      on_stall();
      break;
    }
    if (r == 0) ++out.errors;
    out.reply_ms.push_back(1000.0 * seconds_since(start));
    if ((i + 1) % 500 == 0) daemon_cpus.next();
  }
  writer.join();
  if (writer_error != nullptr) out.complete = false;
  return out;
}

struct InteractiveResult {
  std::vector<double> command_ms;  ///< every command, send to terminator
  std::vector<double> status_ms;   ///< the `status` commands among them
  std::size_t errors = 0;
  bool complete = true;
};

/// Closed-loop phase: one command in flight at a time, each started with
/// the daemon on its next CPU. With a tracer, each command is one operation
/// with a `daemon.command` span.
inline InteractiveResult run_interactive(util::TcpStream& s,
                                         const std::vector<std::string>& cmds,
                                         CpuRotation& daemon_cpus,
                                         Tracer* tracer) {
  InteractiveResult out;
  const Tracer::NameId span =
      tracer != nullptr ? tracer->name("daemon.command") : 0;
  for (const std::string& c : cmds) {
    daemon_cpus.next();
    if (tracer != nullptr) tracer->begin_op();
    const Clock::time_point t0 = Clock::now();
    int r = 0;
    {
      const std::size_t open = tracer != nullptr ? tracer->open(span) : 0;
      s.send_line(c);
      r = read_reply(s, nullptr);
      if (tracer != nullptr) tracer->close(open);
    }
    const double ms = 1000.0 * seconds_since(t0);
    if (r < 0) {
      out.complete = false;
      break;
    }
    if (r == 0) ++out.errors;
    out.command_ms.push_back(ms);
    if (c == "status") out.status_ms.push_back(ms);
  }
  return out;
}

}  // namespace omniboost::e2e
