#include "daemon.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/model_id.hpp"
#include "sched/bnb.hpp"
#include "util/clock.hpp"
#include "util/net.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace omniboost::daemon {

namespace {

/// Accept/receive poll granularity: how long (real ms) the daemon waits for
/// network activity before taking an idle tick.
constexpr int kIdlePollMs = 20;

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Wire replies are one line each; fold any multi-line exception text.
std::string one_line(std::string text) {
  for (char& c : text)
    if (c == '\n' || c == '\r') c = ' ';
  return text;
}

/// Splits a formatted report into reply lines (send_lines forbids '\n').
void append_lines(std::vector<std::string>* reply, const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) reply->push_back(line);
}

class Daemon {
 public:
  Daemon(const models::ModelZoo& zoo, const core::Cluster& cluster,
         const core::SchedulerFactory& factory, core::IPlacementPolicy& policy,
         const DaemonConfig& config)
      : zoo_(&zoo),
        cluster_(&cluster),
        config_(config),
        clock_(config.time_scale),
        session_(cluster, factory, policy),
        bg_done_version_(cluster.boards().size(),
                         ~static_cast<std::uint64_t>(0)),
        pool_(2) {}

  int run() {
    util::TcpListener listener(config_.port);
    // Tests and scripts parse this exact line to learn the ephemeral port.
    std::printf("listening on %u\n", static_cast<unsigned>(listener.port()));
    std::fflush(stdout);
    while (!shutdown_) {
      util::TcpStream client = listener.accept(kIdlePollMs);
      if (!client.valid()) {
        idle_tick();
        continue;
      }
      serve_client(client);
    }
    // Let an in-flight background slice finish before tearing down (its
    // lambda writes daemon members).
    if (bg_running_) pool_.async_join();
    return 0;
  }

 private:
  void serve_client(util::TcpStream& client) {
    while (!shutdown_) {
      std::string line;
      const util::TcpStream::RecvStatus st =
          client.recv_line(&line, kIdlePollMs);
      if (st == util::TcpStream::RecvStatus::kClosed) return;
      if (st == util::TcpStream::RecvStatus::kTimeout) {
        idle_tick();
        continue;
      }
      // An over-long line has lost the peer's framing: answer, then drop
      // the connection (the caller's stream closes on return).
      const std::vector<std::string> reply =
          st == util::TcpStream::RecvStatus::kTooLong
              ? std::vector<std::string>{"err line too long"}
              : handle(line);
      try {
        client.send_lines(reply);  // one write: no Nagle/delayed-ACK stall
      } catch (const std::runtime_error&) {
        return;  // client vanished mid-reply; the command already applied
      }
      if (st == util::TcpStream::RecvStatus::kTooLong) return;
    }
  }

  /// One command in, a complete reply out: zero or more body lines
  /// terminated by exactly one `ok` or `err <reason>` line. Never throws —
  /// a malformed or illegal command costs the client an error reply, never
  /// the daemon its life.
  std::vector<std::string> handle(const std::string& raw) {
    std::vector<std::string> reply;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') {
      reply.push_back("ok");
      return reply;
    }
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    try {
      if (cmd == "shutdown") {
        shutdown_ = true;
        reply.push_back("ok");
      } else if (cmd == "status") {
        append_lines(&reply, core::format_cluster_report(session_.finish()));
        reply.push_back("ok");
      } else if (cmd == "report") {
        char head[160];
        std::snprintf(head, sizeof(head),
                      "uptime: %.3f scenario-s (time-scale x%g) | "
                      "%zu events recorded",
                      clock_.now_s(), clock_.scale(), recorded_.size());
        reply.push_back(head);
        append_lines(&reply, core::format_cluster_report(session_.finish()));
        reply.push_back("ok");
      } else if (cmd == "save-trace") {
        std::string path;
        is >> path;
        if (path.empty())
          throw std::invalid_argument("save-trace: missing path");
        if (recorded_.empty())
          throw std::invalid_argument("save-trace: no events recorded yet");
        workload::save_scenario_file(workload::Scenario(recorded_), path);
        reply.push_back("saved " + std::to_string(recorded_.size()) +
                        " events to " + path);
        reply.push_back("ok");
      } else {
        apply_event(line, &reply);
        reply.push_back("ok");
      }
    } catch (const std::exception& err) {
      reply.clear();
      reply.push_back("err " + one_line(err.what()));
    }
    return reply;
  }

  /// The single-parser rule: a daemon command is EXACTLY a trace clause,
  /// parsed by the same workload::parse_event_clause the trace loader uses,
  /// and checked by the session's workload::ScenarioValidator — the rules
  /// the Scenario constructor loops over — so the daemon cannot accept a
  /// command the offline replayer would reject. A copy of the validator
  /// takes the step and is committed only once the session has applied the
  /// event: a command failing either step changes neither the trace nor the
  /// validator. Nothing here grows with the session length.
  void apply_event(const std::string& line, std::vector<std::string>* reply) {
    const double t = clock_.now_s();
    const workload::ScenarioEvent e = workload::parse_event_clause(line, t);
    if (workload::is_fault_event(e.kind) && e.board >= session_.size())
      throw std::invalid_argument(
          "board " + std::to_string(e.board) + " out of range (fleet has " +
          std::to_string(session_.size()) + " board(s))");
    workload::ScenarioValidator next = validator_;
    next.step(e);
    const core::ClusterSession::ApplyOutcome out = session_.apply(e);
    validator_ = std::move(next);
    recorded_.push_back(e);
    reply->push_back(describe(e, out));
  }

  std::string describe(const workload::ScenarioEvent& e,
                       const core::ClusterSession::ApplyOutcome& out) const {
    char buf[192];
    const auto board_name = [&](std::size_t b) {
      return cluster_->boards()[b].name.c_str();
    };
    switch (out.kind) {
      case core::ClusterSession::ApplyKind::kAdmitted:
        std::snprintf(buf, sizeof(buf),
                      "admitted %s -> board %zu (%s)%s T=%.3f inf/s",
                      std::string(models::model_name(e.model)).c_str(),
                      out.board, board_name(out.board),
                      out.migrated ? " [rescued]" : "",
                      out.measured_throughput);
        break;
      case core::ClusterSession::ApplyKind::kRejected:
        std::snprintf(buf, sizeof(buf), "rejected %s (no board admits it)",
                      std::string(models::model_name(e.model)).c_str());
        break;
      case core::ClusterSession::ApplyKind::kDeparted:
        std::snprintf(buf, sizeof(buf),
                      "departed %s from board %zu (%s) T=%.3f inf/s",
                      std::string(models::model_name(e.model)).c_str(),
                      out.board, board_name(out.board),
                      out.measured_throughput);
        break;
      case core::ClusterSession::ApplyKind::kSwallowedDeparture:
        std::snprintf(buf, sizeof(buf),
                      "departed %s (was rejected or shed; no-op)",
                      std::string(models::model_name(e.model)).c_str());
        break;
      case core::ClusterSession::ApplyKind::kFault:
      default:
        std::snprintf(buf, sizeof(buf), "fault applied to board %zu (%s)",
                      out.board, board_name(out.board));
        break;
    }
    return buf;
  }

  /// Idle-time background re-search. One slice in flight at most; results
  /// install only if the refinement strictly improved the objective AND the
  /// session version is unchanged (no event raced in while the search ran).
  /// Installs are not scenario events — they never enter the recorded
  /// trace, so saved traces stay exactly what the operator sent.
  void idle_tick() {
    if (config_.background_slice_ms <= 0.0) return;
    if (bg_running_ && !pool_.async_active()) {
      pool_.async_join();
      bg_running_ = false;
      bool installed = false;
      if (bg_result_.improved && session_.version() == bg_version_)
        installed =
            session_.install_mapping(bg_board_, bg_result_.mapping,
                                     clock_.now_s(),
                                     "background re-search (install)");
      session_.note_background_search(installed);
      // One slice per board per version: converged-enough until the next
      // event changes the mix (or speed) and re-arms the board.
      bg_done_version_[bg_board_] = bg_version_;
    }
    if (bg_running_) return;
    const std::size_t n = session_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t b = (bg_next_ + k) % n;
      if (!session_.board_up(b)) continue;
      const core::ServingSession& s = session_.session(b);
      if (s.idle() || !s.has_previous()) continue;
      if (bg_done_version_[b] == session_.version()) continue;
      // Snapshot everything the worker thread reads; the session itself is
      // only ever touched from the daemon thread.
      workload::Workload w{s.present()};
      sim::Mapping seed = s.previous_mapping();
      device::DeviceSpec dev = session_.board_device(b);
      sched::BnbConfig bc;
      bc.timeout_ms = config_.background_slice_ms;
      bg_board_ = b;
      bg_version_ = session_.version();
      bg_next_ = (b + 1) % n;
      bg_running_ = true;
      pool_.async([this, w = std::move(w), seed = std::move(seed),
                   dev = std::move(dev), bc]() {
        bg_result_ = sched::anytime_refine(*zoo_, dev, w, seed, bc);
      });
      return;
    }
  }

  const models::ModelZoo* zoo_;
  const core::Cluster* cluster_;
  DaemonConfig config_;
  util::PacedClock clock_;
  core::ClusterSession session_;
  std::vector<workload::ScenarioEvent> recorded_;
  workload::ScenarioValidator validator_;  ///< state after recorded_
  bool shutdown_ = false;

  // Background re-search state. bg_result_ is written by the pool worker
  // and read here only after async_join() (which synchronizes).
  bool bg_running_ = false;
  std::size_t bg_board_ = 0;
  std::uint64_t bg_version_ = 0;
  std::size_t bg_next_ = 0;
  std::vector<std::uint64_t> bg_done_version_;
  sched::RefineResult bg_result_;
  util::ThreadPool pool_;  // last member: destroyed first, before bg_result_
};

}  // namespace

int run_daemon(const models::ModelZoo& zoo, const core::Cluster& cluster,
               const core::SchedulerFactory& factory,
               core::IPlacementPolicy& policy, const DaemonConfig& config) {
  Daemon d(zoo, cluster, factory, policy, config);
  return d.run();
}

}  // namespace omniboost::daemon
