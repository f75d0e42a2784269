#pragma once
/// \file scenario.hpp
/// Dynamic multi-DNN scenarios: a timestamped script of models arriving at
/// and departing from the board. Where workload::Workload answers "what is
/// running right now", a Scenario describes how that answer changes over a
/// serving session — the input the core::ServingRuntime replays against an
/// IScheduler to exercise contextual rescheduling.
///
/// Scenarios are scriptable and replayable: a seeded random generator
/// (random_scenario) produces churn sweeps deterministically, and a small
/// line-based text trace format round-trips through
/// serialize_scenario/parse_scenario:
///
///     # omniboost scenario trace v1
///     at 0 arrive VGG-19 slo 120
///     at 2.5 arrive AlexNet
///     at 7.25 depart VGG-19
///
/// An arrival may carry a per-stream latency SLO (`slo <ms>`): the stream's
/// end-to-end frame latency target while it is on the board. SLOs are
/// optional — events without the clause serialize exactly as before, so
/// pre-SLO traces round-trip bit-identically.
///
/// Fleet fault events ride the same script (consumed by core::Cluster;
/// workload/faults.hpp generates them from an MTBF/MTTR process):
///
///     at 4 fail board 1
///     at 5 throttle board 0 0.5
///     at 9 recover board 1
///
/// `fail` takes a board out of service, `throttle <factor>` slows a live
/// board to the given speed fraction (0 < factor <= 1), and `recover`
/// restores a failed or throttled board to full health. Validation enforces
/// per-board legality: a board fails only while not already failed,
/// throttles only while not failed, and recovers only while failed or
/// throttled. Fault events never touch the concurrent mix, and fault-free
/// scenarios serialize byte-identically to the pre-fault format.

#include <iosfwd>
#include <string>
#include <vector>

#include "models/model_id.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace omniboost::workload {

/// What happens at an event: a model stream joins/leaves the mix, or a
/// board of the serving fleet changes health (fault events; see the file
/// header for the trace clauses and legality rules).
enum class ScenarioEventKind {
  kArrive,
  kDepart,
  kFailBoard,      ///< board goes out of service
  kThrottleBoard,  ///< board slows to `factor` of full speed
  kRecoverBoard,   ///< board returns to full health
};

/// True for the board-health event kinds (fail/throttle/recover).
constexpr bool is_fault_event(ScenarioEventKind kind) {
  return kind == ScenarioEventKind::kFailBoard ||
         kind == ScenarioEventKind::kThrottleBoard ||
         kind == ScenarioEventKind::kRecoverBoard;
}

/// One change to the concurrent mix or the fleet's health.
struct ScenarioEvent {
  double time_s = 0.0;  ///< event timestamp (seconds since scenario start)
  ScenarioEventKind kind = ScenarioEventKind::kArrive;
  models::ModelId model = models::ModelId::kAlexNet;
  /// Latency SLO of the arriving stream in milliseconds; 0 = none. The SLO
  /// stays attached to the stream until it departs. Departures and fault
  /// events never carry one (enforced at construction).
  double slo_ms = 0.0;
  /// Fault events only: the fleet board the event targets. The scenario
  /// layer does not know the fleet size — core::Cluster range-checks the
  /// index against its own board count at replay time. Must stay 0 on
  /// arrive/depart events.
  std::size_t board = 0;
  /// kThrottleBoard only: the speed fraction the board drops to, in
  /// (0, 1]. Must stay 0 on every other kind.
  double factor = 0.0;

  bool operator==(const ScenarioEvent& rhs) const {
    return time_s == rhs.time_s && kind == rhs.kind && model == rhs.model &&
           slo_ms == rhs.slo_ms && board == rhs.board && factor == rhs.factor;
  }
  bool operator!=(const ScenarioEvent& rhs) const { return !(*this == rhs); }
};

/// The Scenario invariants, checked one event at a time. Scenario's
/// constructor, mix_after and slo_after are loops over step(), and the
/// serving daemon keeps one validator for its whole session, so a live
/// command costs the same at any session length and the daemon cannot
/// accept an event the offline trace loader would reject.
///
/// Rules: timestamps are finite, >= 0 and non-decreasing; SLOs are finite
/// and >= 0, carried by arrivals only; a model arrives only while absent
/// and departs only while present; board/factor stay 0 outside fault
/// events; per board, `fail` only while not failed, `throttle` (factor in
/// (0, 1]) only while not failed, `recover` only while failed or throttled.
class ScenarioValidator {
 public:
  /// Checks \p e against the state the events stepped so far left behind
  /// and applies it. On a breach throws std::invalid_argument, with the
  /// text Scenario(events) reports for the same event, and leaves the state
  /// untouched.
  void step(const ScenarioEvent& e);

  /// The present models in arrival order (departures close ranks).
  const std::vector<models::ModelId>& present() const { return present_; }
  /// Per-stream SLOs in seconds (0 = none), index-aligned with present().
  const std::vector<double>& slos() const { return slos_; }

 private:
  /// A board that is not healthy: failed, or throttled when !failed.
  /// Healthy boards are not listed (the scenario layer does not know the
  /// fleet size), and fleets are small, so a linear scan beats a map.
  struct BoardFault {
    std::size_t board = 0;
    bool failed = false;
  };

  std::vector<models::ModelId> present_;
  std::vector<double> slos_;
  std::vector<BoardFault> faulted_;
  double prev_time_s_ = 0.0;
};

/// A validated arrival/departure script over the model zoo.
///
/// Invariants (enforced at construction by stepping a ScenarioValidator
/// through the events, std::invalid_argument on breach): timestamps are
/// non-negative and non-decreasing, a model arrives only while absent and
/// departs only while present (mixes stay duplicate-free, mirroring the
/// embedding tensor's one-column-per-model layout), and the concurrent mix
/// never exceeds the dataset size. The mix MAY become empty mid-scenario;
/// the serving runtime records such epochs as idle.
class Scenario {
 public:
  Scenario() = default;
  explicit Scenario(std::vector<ScenarioEvent> events);

  const std::vector<ScenarioEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// The concurrent mix in effect after replaying events [0, event_index]
  /// (arrival order preserved; departures close ranks).
  Workload mix_after(std::size_t event_index) const;

  /// Per-stream latency SLOs (seconds, 0 = none) aligned with
  /// mix_after(event_index): entry d is the SLO the d-th present stream
  /// arrived with. This is what core::ServingRuntime hands the scheduler
  /// through ScheduleContext::slo_s.
  std::vector<double> slo_after(std::size_t event_index) const;

  /// True when any arrival carries a latency SLO.
  bool has_slos() const;

  /// True when the scenario carries any fail/throttle/recover event.
  bool has_faults() const;

  /// Largest board index any fault event references plus one (0 for
  /// fault-free scenarios) — the minimum fleet size that can replay this
  /// scenario.
  std::size_t fault_board_span() const;

  /// Largest concurrent mix size reached over the scenario (fault events
  /// never change the mix).
  std::size_t peak_concurrency() const;

  /// Human-readable one-line summary, e.g. "8 events / 12.4 s / peak 4".
  std::string describe() const;

  bool operator==(const Scenario& rhs) const { return events_ == rhs.events_; }
  bool operator!=(const Scenario& rhs) const { return !(*this == rhs); }

 private:
  std::vector<ScenarioEvent> events_;
};

/// Knobs of the seeded scenario generator.
struct ScenarioConfig {
  std::size_t events = 8;          ///< total arrive/depart events
  std::size_t min_concurrent = 1;  ///< departures never drop the mix below
  std::size_t max_concurrent = 4;  ///< arrivals never grow the mix beyond
  /// Chance of drawing a departure when both kinds are legal. Higher values
  /// mean shorter-lived streams, i.e. more churn per unit time.
  double depart_bias = 0.4;
  /// Mean of the exponential inter-event gap (the first event fires at 0).
  double mean_interarrival_s = 5.0;
  /// Latency-SLO band: each arrival carries an SLO with probability
  /// slo_fraction, drawn uniformly from [slo_min_ms, slo_max_ms]. The
  /// default 0 draws nothing from the Rng, so pre-SLO configs reproduce
  /// their scenarios bit-for-bit (pinned by tests/scenario_test.cpp).
  double slo_fraction = 0.0;
  double slo_min_ms = 50.0;
  double slo_max_ms = 500.0;
};

/// Draws a random scenario from \p rng. The draw sequence depends only on
/// the Rng stream and the config, so `Rng(util::fork_stream(seed, i))`
/// reproduces scenario i of a sweep bit-for-bit regardless of what else ran.
/// The first event is always an arrival at t = 0.
Scenario random_scenario(util::Rng& rng, const ScenarioConfig& config = {});

/// Parses one event clause — the body of a trace line after `at <time>`,
/// e.g. "arrive VGG-19 slo 120" or "throttle board 0 0.5" — into a
/// ScenarioEvent stamped with \p time_s. This is THE command grammar: the
/// trace parser and the serving daemon's wire protocol both call it, so a
/// command the daemon accepts is by construction a clause the trace format
/// round-trips. Trailing `#` comments are ignored. Throws
/// std::invalid_argument (no line prefix — callers add their own context).
ScenarioEvent parse_event_clause(const std::string& clause, double time_s);

/// Inverse of parse_event_clause: the clause body of one event, without the
/// `at <time> ` prefix. SLO/throttle values print with "%.17g" so they
/// round-trip bit-exactly.
std::string serialize_event_clause(const ScenarioEvent& e);

/// Writes the text trace form shown in the file header. Timestamps (and SLO
/// values) are printed with "%.17g" so parse_scenario round-trips them
/// bit-exactly; events without an SLO omit the `slo` clause entirely, so
/// pre-SLO scenarios serialize byte-identically to the v1 format. Each line
/// is `at <time> ` + serialize_event_clause(e).
std::string serialize_scenario(const Scenario& scenario);

/// Parses the text trace format: one
/// `at <time> <arrive|depart> <model> [slo <ms>]` or
/// `at <time> <fail|recover> board <index>` or
/// `at <time> throttle board <index> <factor>` statement per line; blank
/// lines and `#` comments are ignored. Model names go through
/// models::parse_model_name (case-insensitive, dash-tolerant). The `slo`
/// clause is legal on arrivals only.
/// Throws std::invalid_argument on malformed lines or invariant breaches.
Scenario parse_scenario(std::istream& in);
Scenario parse_scenario(const std::string& text);

/// File convenience wrappers around the trace format.
Scenario load_scenario_file(const std::string& path);
void save_scenario_file(const Scenario& scenario, const std::string& path);

}  // namespace omniboost::workload
