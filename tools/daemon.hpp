#pragma once
/// \file daemon.hpp
/// The live serving daemon behind `omniboost_cli serve --listen <port>`.
///
/// A long-running process owning one core::ClusterSession, accepting
/// newline-delimited text commands over loopback TCP. The wire protocol IS
/// the scenario trace clause grammar (workload::parse_event_clause) — every
/// accepted command is timestamped from a util::PacedClock and appended to a
/// recorded trace, so the whole live session can be saved with `save-trace`
/// and replayed offline through core::Cluster::run. Between commands the
/// daemon runs idle-time background re-search: a wall-clock-budgeted BnB
/// refinement (sched::anytime_refine) of one board's installed mapping on a
/// util::ThreadPool, installed only if it strictly improves the incumbent
/// and no event raced in (ClusterSession::version()). See docs/SERVING.md
/// for the operator guide and the full protocol reference.
///
/// Lives in tools/ (not src/) on purpose: the daemon wires core + sched +
/// util together, an edge the src/ layering DAG forbids for library code.

#include <cstdint>

#include "core/cluster.hpp"
#include "models/zoo.hpp"

namespace omniboost::daemon {

/// Daemon knobs (`serve --listen` flags map 1:1).
struct DaemonConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port. The daemon prints
  /// `listening on <port>` on stdout either way (tests parse that line).
  std::uint16_t port = 0;
  /// Scenario seconds per real second (util::PacedClock). CI drives the
  /// daemon at 100 so a multi-minute scenario plays out in seconds.
  double time_scale = 1.0;
  /// Wall-clock budget of one background re-search slice (BnbConfig
  /// timeout_ms). <= 0 disables background re-search entirely.
  double background_slice_ms = 25.0;
};

/// Runs the daemon loop until a `shutdown` command. Blocking; returns the
/// process exit code. \p cluster, \p factory, and \p policy must outlive
/// the call (the session borrows all three).
int run_daemon(const models::ModelZoo& zoo, const core::Cluster& cluster,
               const core::SchedulerFactory& factory,
               core::IPlacementPolicy& policy, const DaemonConfig& config);

}  // namespace omniboost::daemon
