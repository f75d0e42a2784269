// End-to-end tests of the CLI binary. The live serving daemon: spawns
// `omniboost_cli serve --listen` as a subprocess, drives it over loopback
// TCP with the clause grammar, and checks (a) stream-conservation
// accounting, (b) that the saved live trace replays offline to the
// identical conservation line at one board and at two, and (c) that
// idle-time background re-search runs and installs improvements without
// disturbing stream accounting. Plus the flag surface: a bad count, daemon
// or device-profile value fails at the flag, promptly. Self-skips when the
// CLI binary was not built (OMNIBOOST_BUILD_TOOLS=OFF).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "util/net.hpp"

namespace {

using omniboost::util::TcpStream;
using omniboost::util::tcp_connect;

#ifndef OMNIBOOST_CLI_PATH
TEST(DaemonE2E, RequiresCliBinary) {
  GTEST_SKIP() << "omniboost_cli not built (OMNIBOOST_BUILD_TOOLS=OFF)";
}
#else

/// A daemon subprocess handle: launched via popen (stdout piped back so the
/// test can read the `listening on <port>` banner), torn down by a protocol
/// `shutdown` + pclose.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::string& extra_flags) {
    const std::string cmd = std::string(OMNIBOOST_CLI_PATH) +
                            " serve --listen 0 --scheduler greedy " +
                            extra_flags + " 2>&1";
    pipe_ = popen(cmd.c_str(), "r");
    if (pipe_ == nullptr) return;
    char line[256];
    while (std::fgets(line, sizeof(line), pipe_) != nullptr) {
      unsigned port = 0;
      if (std::sscanf(line, "listening on %u", &port) == 1) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
    }
  }

  ~DaemonProcess() {
    if (pipe_ != nullptr) pclose(pipe_);
  }

  bool running() const { return pipe_ != nullptr && port_ != 0; }
  std::uint16_t port() const { return port_; }

  /// Sends `shutdown` and reaps the subprocess; returns its exit status.
  int shutdown() {
    TcpStream s = tcp_connect("127.0.0.1", port_);
    s.send_line("shutdown");
    std::string line;
    s.recv_line(&line, 5000);
    const int status = pclose(pipe_);
    pipe_ = nullptr;
    return status;
  }

 private:
  FILE* pipe_ = nullptr;
  std::uint16_t port_ = 0;
};

struct Reply {
  std::vector<std::string> body;
  bool ok = false;
  std::string error;
};

/// Reads one reply (body lines up to `ok` / `err ...`) off \p s.
Reply read_reply(TcpStream& s) {
  Reply r;
  std::string got;
  while (s.recv_line(&got, 10000) == TcpStream::RecvStatus::kLine) {
    if (got == "ok") {
      r.ok = true;
      return r;
    }
    if (got == "err" || got.rfind("err ", 0) == 0) {
      r.error = got;
      return r;
    }
    r.body.push_back(got);
  }
  r.error = "connection closed before terminator";
  return r;
}

/// One command round-trip on a fresh connection (the daemon serves clients
/// sequentially and survives disconnects, so per-command connections also
/// exercise the reconnect path).
Reply command(std::uint16_t port, const std::string& line) {
  TcpStream s = tcp_connect("127.0.0.1", port);
  s.send_line(line);
  return read_reply(s);
}

/// Finds the `conservation: ...` line in a reply body / text blob.
std::string conservation_line(const std::vector<std::string>& lines) {
  for (const std::string& l : lines)
    if (l.rfind("conservation:", 0) == 0) return l;
  return "";
}

/// Parses `key=value` integers out of a status line.
std::size_t field(const std::string& line, const std::string& key) {
  const std::string needle = key + "=";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " not in: " << line;
  if (at == std::string::npos) return 0;
  return static_cast<std::size_t>(
      std::strtoull(line.c_str() + at + needle.size(), nullptr, 10));
}

/// Runs the CLI offline on a saved trace and returns its conservation line.
std::string offline_conservation(const std::string& trace_path,
                                 const std::string& flags) {
  const std::string cmd = std::string(OMNIBOOST_CLI_PATH) +
                          " serve --scenario " + trace_path + " " + flags +
                          " --scheduler greedy 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr) return "";
  std::vector<std::string> lines;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    std::string l(buf);
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) l.pop_back();
    lines.push_back(l);
  }
  pclose(pipe);
  return conservation_line(lines);
}

/// Drives a daemon on \p boards boards through \p session, checks its
/// stream conservation, then replays the saved trace offline with the same
/// fleet flags: the replay must reproduce the live conservation line.
/// Returns the live line, for the caller's session-specific counts.
std::string expect_replay_parity(int boards,
                                 const std::vector<std::string>& session) {
  const std::string fleet = "--boards " + std::to_string(boards);
  // x200 wall-clock pacing: a ~1s real session spans ~200 scenario seconds.
  DaemonProcess daemon(fleet + " --time-scale 200");
  EXPECT_TRUE(daemon.running()) << "daemon failed to start";
  if (!daemon.running()) return "";
  const std::uint16_t port = daemon.port();

  for (const std::string& cmd : session) {
    const Reply r = command(port, cmd);
    EXPECT_TRUE(r.ok) << cmd << " -> " << r.error;
  }

  // Malformed commands produce clean `err` replies on a live daemon — and
  // the daemon keeps serving afterwards.
  for (const char* bad :
       {"arrive NoSuchNet", "arrive MobileNet", "depart MobileNet extra",
        "fail board 99", "throttle board 0 2", "save-trace",
        "at 3 arrive VGG-19"}) {
    const Reply r = command(port, bad);
    EXPECT_FALSE(r.ok) << "accepted: " << bad;
    EXPECT_EQ(r.error.rfind("err", 0), 0u) << bad;
  }

  const Reply status = command(port, "status");
  EXPECT_TRUE(status.ok) << status.error;
  const std::string live = conservation_line(status.body);
  EXPECT_FALSE(live.empty());
  if (live.empty()) return "";
  // Conservation: every admitted stream is served to departure, shed by a
  // failover, or still resident.
  EXPECT_EQ(field(live, "admitted"),
            field(live, "departures") + field(live, "shed") +
                field(live, "resident"));
  EXPECT_EQ(field(live, "offered"),
            field(live, "admitted") + field(live, "rejected"));

  const std::string trace = ::testing::TempDir() + "daemon_live_" +
                            std::to_string(boards) + ".trace";
  const Reply saved = command(port, "save-trace " + trace);
  EXPECT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(daemon.shutdown(), 0);

  // Replay parity: the recorded trace through the offline Cluster replayer
  // (same binary, same scheduler/fleet flags) reproduces the daemon's
  // stream accounting verbatim. Greedy decisions depend only on the mix,
  // so live and offline decisions coincide epoch-for-epoch.
  EXPECT_EQ(offline_conservation(trace, fleet), live) << fleet;
  return live;
}

TEST(DaemonE2E, LiveSessionConservesStreamsAndReplaysBitExact) {
  // A session touching every command class: arrivals (with and without
  // SLO), a board failure (forcing failover), recovery, and departures.
  const std::string fleet = expect_replay_parity(
      2, {"arrive MobileNet slo 100", "arrive AlexNet", "arrive ResNet-50",
          "fail board 0", "recover board 0", "depart AlexNet"});
  EXPECT_EQ(field(fleet, "offered"), 3u) << fleet;
  EXPECT_EQ(field(fleet, "departures"), 1u) << fleet;

  // More weight than one board holds: the admission bounds reject some of
  // these arrivals on a 1-board fleet, and the offline replay must reject
  // the same ones. MobileNet leads so the duplicate-arrival probe in
  // expect_replay_parity holds; VGG-13 is admitted, so its departure counts.
  const std::string solo = expect_replay_parity(
      1, {"arrive MobileNet slo 100", "arrive VGG-19", "arrive VGG-16",
          "arrive VGG-13", "arrive ResNet-101", "arrive Inception-v4",
          "arrive Inception-v3", "arrive ResNet-50", "arrive AlexNet",
          "depart VGG-13"});
  EXPECT_EQ(field(solo, "offered"), 9u) << solo;
  EXPECT_GE(field(solo, "rejected"), 1u) << solo;
  EXPECT_EQ(field(solo, "departures"), 1u) << solo;
}

TEST(DaemonE2E, IdleTimeBackgroundResearchInstallsImprovements) {
  // Two boards, two 2-DNN mixes where greedy leaves headroom, generous
  // slices: idle polling must run background BnB slices and install a
  // strictly-improving mapping — without touching stream accounting.
  DaemonProcess daemon("--boards 2 --time-scale 100 --background-slice-ms 50");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  const std::uint16_t port = daemon.port();

  for (const char* cmd : {"arrive VGG-19", "arrive ResNet-50",
                          "arrive AlexNet", "arrive MobileNet"}) {
    const Reply r = command(port, cmd);
    EXPECT_TRUE(r.ok) << cmd << " -> " << r.error;
  }

  // Poll `report` until a background search has been accounted (idle ticks
  // happen between commands; several hundred ms of real idle time is many
  // 50 ms slices).
  std::size_t searches = 0, improvements = 0;
  std::string live;
  for (int tries = 0; tries < 100; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const Reply rep = command(port, "report");
    ASSERT_TRUE(rep.ok) << rep.error;
    searches = improvements = 0;
    for (const std::string& l : rep.body) {
      if (l.rfind("background:", 0) == 0) {
        searches = field(l, "searches");
        improvements = field(l, "improvements");
      }
    }
    live = conservation_line(rep.body);
    if (improvements >= 1) break;
  }
  EXPECT_GE(searches, 1u) << "no background search ran in ~5s of idle time";
  EXPECT_GE(improvements, 1u)
      << "background re-search never improved on greedy for VGG-19+ResNet-50";

  // Installs must not disturb stream accounting.
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(field(live, "admitted"), 4u);
  EXPECT_EQ(field(live, "resident"), 4u);
  EXPECT_EQ(field(live, "departures"), 0u);

  // The saved trace contains ONLY the operator's events (installs are not
  // scenario events) — two arrivals, replayable offline.
  const std::string trace = ::testing::TempDir() + "daemon_bg.trace";
  EXPECT_TRUE(command(port, "save-trace " + trace).ok);
  EXPECT_EQ(daemon.shutdown(), 0);

  std::ifstream in(trace);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("arrive VGG-19"), std::string::npos);
  EXPECT_NE(text.find("arrive ResNet-50"), std::string::npos);
  EXPECT_EQ(text.find("install"), std::string::npos);
  const std::string offline = offline_conservation(trace, "--boards 2");
  EXPECT_EQ(offline, live);
}

TEST(DaemonE2E, ClosedLoopRepliesTakeWellUnderADelayedAck) {
  // One connection, one command in flight at a time: each reply must come
  // back as one write on a TCP_NODELAY socket. Two writes per reply (body,
  // then `ok`) would stall every exchange on the peer's delayed ACK, ~40 ms.
  DaemonProcess daemon("--boards 2 --time-scale 200");
  ASSERT_TRUE(daemon.running()) << "daemon failed to start";
  const char* models[] = {"MobileNet", "AlexNet", "ResNet-50", "VGG-19",
                          "SqueezeNet"};
  std::vector<std::string> commands;
  for (int round = 0; round < 5; ++round) {
    for (const char* m : models) commands.push_back(std::string("arrive ") + m);
    if (round == 2) commands.push_back("status");
    for (const char* m : models) commands.push_back(std::string("depart ") + m);
  }
  commands.push_back("status");
  ASSERT_EQ(commands.size(), 52u);

  TcpStream s = tcp_connect("127.0.0.1", daemon.port());
  std::vector<double> reply_ms;
  for (const std::string& cmd : commands) {
    const auto t0 = std::chrono::steady_clock::now();
    s.send_line(cmd);
    const Reply r = read_reply(s);
    reply_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    ASSERT_TRUE(r.ok) << cmd << " -> " << r.error;
  }
  s.close();  // the daemon serves one client at a time
  std::sort(reply_ms.begin(), reply_ms.end());
  EXPECT_LT(reply_ms[reply_ms.size() / 2], 10.0)
      << "median command->reply time; max " << reply_ms.back() << " ms";

  // A line past the cap costs the client `err line too long` and its
  // connection; the daemon keeps serving.
  {
    TcpStream flood = tcp_connect("127.0.0.1", daemon.port());
    flood.send_line(std::string(TcpStream::kMaxLineBytes + 1, 'x'));
    std::string got;
    ASSERT_EQ(flood.recv_line(&got, 10000), TcpStream::RecvStatus::kLine);
    EXPECT_EQ(got, "err line too long");
    TcpStream::RecvStatus after = TcpStream::RecvStatus::kLine;
    try {
      after = flood.recv_line(&got, 10000);
    } catch (const std::runtime_error&) {
      after = TcpStream::RecvStatus::kClosed;  // reset rather than FIN
    }
    EXPECT_EQ(after, TcpStream::RecvStatus::kClosed);
  }
  const Reply status = command(daemon.port(), "status");
  EXPECT_TRUE(status.ok) << status.error;
  EXPECT_EQ(field(conservation_line(status.body), "offered"), 25u);
  EXPECT_EQ(daemon.shutdown(), 0);
}

/// Runs `omniboost_cli serve <args>` under a 10 s cap and expects exit 2
/// with \p want in the output.
void expect_serve_fails_at_the_flag(const std::string& args,
                                    const std::string& want) {
  const std::string cmd = "timeout 10 " + std::string(OMNIBOOST_CLI_PATH) +
                          " serve " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
      << args << ": status " << status << ", output: " << out;
  EXPECT_NE(out.find(want), std::string::npos)
      << args << ": no '" << want << "' in: " << out;
}

TEST(CliFlags, BadValuesFailAtTheFlag) {
  // Each bad value must exit 2 with a message naming the flag — not wrap a
  // count to a huge size_t and die in an allocation, hang in a search loop,
  // or train the estimator and only then fail at the first warm decision
  // (the 10 s cap turns a hang or a training run into exit 124). Greedy
  // trains no estimator and runs no search, so its cases also pin that the
  // design-time and search values are checked whatever the scheduler is.
  std::vector<std::pair<std::string, std::string>> cases;  // args, message
  const std::vector<std::pair<std::string, int>> counts = {
      {"budget", 1},         {"depth", 1},          {"batch", 1},
      {"samples", 1},        {"epochs", 1},         {"design-workers", 0},
      {"events", 1},         {"max-concurrent", 1}, {"min-concurrent", 1},
      {"boards", 1}};
  for (const auto& [name, min] : counts)
    cases.emplace_back("--scheduler greedy --" + name + " -1",
                       "--" + name + " must be >= " + std::to_string(min));
  for (const std::string scheduler : {"greedy", "omniboost"}) {
    const std::string rollout =
        "--scheduler " + scheduler + " --rollout-fraction ";
    for (const char* value : {"0", "1.5"})
      cases.emplace_back(rollout + value,
                         "--rollout-fraction must be in (0, 1]");
    // nan is refused by the number parser, which names the flag too.
    cases.emplace_back(rollout + "nan",
                       "option --rollout-fraction expects a number");
  }
  for (const auto& [args, want] : cases)
    expect_serve_fails_at_the_flag(args, want);
}

TEST(CliFlags, DaemonValuesFailBeforeSetup) {
  // Under the default omniboost scheduler the daemon's setup trains an
  // estimator; a bad daemon value must be refused before that, not by the
  // daemon's clock afterwards, and a negative slice must not silently turn
  // background search off.
  for (const char* value : {"0", "-1"})
    expect_serve_fails_at_the_flag(
        std::string("--listen 0 --time-scale ") + value,
        "--time-scale must be > 0");
  expect_serve_fails_at_the_flag("--listen 0 --background-slice-ms -5",
                                 "--background-slice-ms must be >= 0");
  expect_serve_fails_at_the_flag("--listen 70000",
                                 "--listen must be a port in 0..65535");
}

TEST(CliFlags, UnknownKernelFailsAtTheFlag) {
  // reference and gemm are the only kernels; a removed or misspelt one must
  // exit 2 before any setup, with no fallback to another kernel.
  for (const char* kernel : {"simd", "avx2"})
    expect_serve_fails_at_the_flag(
        std::string("--scheduler greedy --kernel ") + kernel,
        std::string("unknown kernel '") + kernel + "' (reference|gemm)");
}

TEST(CliFlags, BadEstimatorFileFailsAtTheFlag) {
  // A non-finite value in an estimator file used to load and run on (a NaN
  // payload printed a wrong speedup and exited 0). Here: a valid header
  // whose log_scale is NaN.
  const std::string path = ::testing::TempDir() + "ob_bad_estimator.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os.write("OBTE", 4);
    const auto u64 = [&os](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) os.put(static_cast<char>(v >> (8 * i)));
    };
    // version, models_dim, layers_dim, c1, c2, c3, flags, then log_scale
    for (const std::uint64_t v : {1, 11, 37, 8, 16, 24, 3}) u64(v);
    u64(0x7ff8000000000000u);  // quiet NaN
  }
  expect_serve_fails_at_the_flag(
      "--estimator-file " + path,
      "--estimator-file " + path +
          ": ThroughputEstimator::load: log_scale is not finite");
  std::remove(path.c_str());
}

TEST(CliFlags, BadDeviceProfileFailsAtTheFlag) {
  // An out-of-range profile value used to run on (a negative GPU peak gave
  // a "speedup") or die in a simulator invariant (a nan peak, exit 1).
  const std::string path = ::testing::TempDir() + "ob_bad_profile.ini";
  for (const char* peak : {"-5", "nan"}) {
    std::ofstream(path) << "[component.gpu]\npeak_gflops = " << peak << "\n";
    expect_serve_fails_at_the_flag(
        "--scheduler greedy --device-file " + path,
        "--device-file " + path + ": device profile: [component.gpu] "
        "peak_gflops = " + peak);
  }
  std::remove(path.c_str());
}

#endif  // OMNIBOOST_CLI_PATH

}  // namespace
