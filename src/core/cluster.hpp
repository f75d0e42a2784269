#pragma once
/// \file cluster.hpp
/// Fleet-scale serving: a Cluster routes one global workload::Scenario
/// across N heterogeneous boards, each running its own DES simulator,
/// scheduler, and ServingSession (the exact single-board epoch engine —
/// a 1-board cluster replays a scenario bit-identically to ServingRuntime,
/// pinned by tests/cluster_test.cpp).
///
/// Responsibilities split three ways:
///  - *Admission*: an arrival is rejected outright when NO board can
///    possibly serve it — the memory lower bound (resident working sets +
///    per-stream framework overhead, mirroring sim's build_scene
///    accounting) would overflow every board's budget, or the stream's SLO
///    is below every board's solo-latency floor (an admissible bound: the
///    sum over layers of the best-component uncontended time, plus the
///    per-inference overhead). Rejected streams never reach a board; their
///    later departures are swallowed and counted.
///  - *Placement*: among the boards that admit, a pluggable
///    IPlacementPolicy picks one (least-loaded / best-estimated-T /
///    memory-headroom). Policies are pure functions of the BoardViews, so
///    routing is deterministic and replayable.
///  - *Rescue migration*: when an admitted arrival leaves its board
///    infeasible (the DES measured epoch reports feasible == false), the
///    cluster moves the arriving stream to another admitting board, pricing
///    the move as a cross-board weight transfer (total_weight_bytes over
///    cross_board_gbps, plus the migration model's per-segment overhead)
///    charged to the stream's first epoch on the new board as a one-off DES
///    start stall. Cross-board costs are fleet-level accounting
///    (ClusterReport) — per-board EpochReport migration fields stay
///    intra-board.
///  - *Fault tolerance*: scenario fault events (fail/throttle/recover, see
///    workload/scenario.hpp) are fleet-level. On `fail` the cluster evicts
///    the board and fails its resident streams over to surviving boards
///    (lightest working set first, priced like rescue migrations; streams
///    no surviving board admits are SHED — degradation accounted separately
///    from admission rejections, and shed streams' later departures are
///    swallowed). On `throttle` the board's DES slows to the factor and the
///    resident mix is re-decided/re-measured in place (a refresh epoch).
///    On `recover` the board returns to full speed (optionally pulling
///    streams back from the most-loaded board when
///    ClusterConfig::rebalance_on_recovery is set). Fault-free scenarios
///    take none of these paths, so their reports stay byte-identical to the
///    pre-fault cluster (pinned by tests/cluster_test.cpp).
///
/// See docs/ARCHITECTURE.md "Cluster & placement" and "Fault tolerance".

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/serving.hpp"
#include "device/device.hpp"
#include "sim/des.hpp"
#include "util/json.hpp"

namespace omniboost::core {

/// One board of the fleet: a display name plus its device model
/// (heterogeneous specs typically come from device::profile files or
/// make_heterogeneous_fleet()).
struct BoardSpec {
  std::string name;
  device::DeviceSpec device;
};

/// Read-only snapshot of one board's live state, handed to placement
/// policies for every routing decision.
struct BoardView {
  std::size_t index = 0;               ///< board index in the fleet
  const device::DeviceSpec* device = nullptr;
  std::size_t streams = 0;             ///< streams currently serving
  double load_flops = 0.0;             ///< summed total_flops of those streams
  double peak_gflops = 0.0;            ///< summed component peaks (capacity)
  double memory_headroom_bytes = 0.0;  ///< budget minus the residency bound
  /// DES throughput the board's most recent epoch measured (0 when idle).
  double last_measured_throughput = 0.0;
};

/// Routing strategy contract: given the arrival, its network, every board's
/// view, and the (non-empty) set of admitting board indices, return one of
/// the admissible indices. Must be deterministic — the cluster pins
/// byte-identical reports across repeated runs for every policy.
class IPlacementPolicy {
 public:
  virtual ~IPlacementPolicy() = default;
  virtual std::string name() const = 0;
  virtual std::size_t place(const workload::ScenarioEvent& arrival,
                            const models::NetworkDesc& net,
                            const std::vector<BoardView>& boards,
                            const std::vector<std::size_t>& admissible) = 0;
};

/// Built-in policies: "least-loaded" (fewest streams), "best-t" (lowest
/// estimated utilization (load + arrival) / capacity), "memory-headroom"
/// (largest residency headroom). Ties break to the lowest board index.
/// Throws std::invalid_argument on an unknown kind.
std::unique_ptr<IPlacementPolicy> make_placement_policy(
    const std::string& kind);
/// The registered policy kinds, in presentation order.
const std::vector<std::string>& placement_policy_kinds();

/// Fleet-level controls.
struct ClusterConfig {
  /// Per-board serving controls (warm start, intra-board churn-cost model);
  /// every board shares one config.
  ServingConfig serving;
  /// Master switch for rescue migration off an infeasible board.
  bool migrate = true;
  /// Effective cross-board weight-transfer bandwidth (GB/s) — fleets move
  /// weights over a network, not the on-chip link, so this is priced on top
  /// of the per-segment overhead of ServingConfig::migration (which applies
  /// its default even when the intra-board model is disabled).
  double cross_board_gbps = 1.0;
  /// Rescue migrations whose priced stall exceeds this are skipped
  /// (0 = no cap).
  double max_migration_stall_s = 0.0;
  /// Bypasses admission entirely (every arrival routes; nothing is
  /// rejected). The single-board equivalence pin uses this to guarantee the
  /// cluster replays exactly what ServingRuntime would. Failed boards never
  /// admit, admit_all or not.
  bool admit_all = false;
  /// After a `recover` event, greedily pull streams back onto the recovered
  /// board from the fleet's most-loaded boards (lightest working set first,
  /// priced as cross-board transfers, elective — the stall cap applies).
  /// Off by default: recovery then only restores the board for future
  /// arrivals.
  bool rebalance_on_recovery = false;
};

/// Per-board reports plus the fleet-level aggregates the benches compare;
/// the inherited ServingTotals fold the boards' (equality is pinned).
struct ClusterReport : ServingTotals {
  std::vector<std::string> board_names;
  std::vector<ServingReport> boards;  ///< index-aligned with board_names

  /// Offered-vs-served load: every scenario arrival is offered; it is
  /// either admitted to exactly one board or rejected (conservation is
  /// pinned by tests/cluster_test.cpp).
  std::size_t offered_streams = 0;
  std::size_t admitted_streams = 0;
  std::size_t rejected_streams = 0;
  double rejection_rate = 0.0;  ///< rejected / offered (0 when none offered)
  std::size_t departures = 0;   ///< departures applied to a board
  std::size_t rejected_departures = 0;  ///< departures of rejected streams

  /// Rescue-migration accounting (fleet-level; see file header).
  std::size_t migrations = 0;
  double cross_board_stall_s = 0.0;
  double cross_board_weight_bytes = 0.0;

  /// Fault-tolerance accounting (all zero for fault-free scenarios).
  std::size_t board_failures = 0;    ///< `fail` events applied
  std::size_t board_throttles = 0;   ///< `throttle` events applied
  std::size_t board_recoveries = 0;  ///< `recover` events applied
  /// Streams moved off a failed board onto a survivor, and the cross-board
  /// transfer cost charged for those moves.
  std::size_t failovers = 0;
  double failover_stall_s = 0.0;
  double failover_weight_bytes = 0.0;
  /// Streams dropped during a failover because no surviving board admitted
  /// them (graceful degradation — distinct from rejected_streams, which
  /// never got on a board at all). Their later departures are swallowed
  /// into shed_departures.
  std::size_t shed_streams = 0;
  std::size_t shed_departures = 0;
  /// Streams pulled back onto a recovered board (rebalance_on_recovery).
  std::size_t rebalances = 0;
  double rebalance_stall_s = 0.0;
  /// Summed per-board out-of-service time: every `fail`..`recover` interval,
  /// plus, for boards still down when the scenario ends, the tail up to the
  /// last event's timestamp.
  double downtime_board_s = 0.0;
  /// Non-idle epochs served by a throttled board (graceful-degradation
  /// exposure: how much serving ran at reduced speed).
  std::size_t degraded_epochs = 0;
  /// Streams still resident on boards when the scenario ends. Conservation
  /// (pinned): admitted = departures + shed_streams + resident_streams.
  std::size_t resident_streams = 0;

  /// Idle-time background re-search accounting (the serving daemon's
  /// between-events refinement; see ClusterSession::note_background_search).
  /// Always zero for batch Cluster::run replays — the batch loop never
  /// idles, so trace replay parity is unaffected by installs.
  std::size_t background_searches = 0;
  std::size_t background_improvements = 0;

  /// Served capacity proxy: sum of per-board mean DES throughput.
  double fleet_throughput = 0.0;
};

/// Builds one scheduler per board at the start of a run (boards keep
/// independent warm state, so they cannot share one instance).
using SchedulerFactory =
    std::function<std::unique_ptr<IScheduler>(std::size_t board_index)>;

/// Residency lower bound for a set of streams on a board: per-stream
/// framework overhead plus each network's single-segment working set
/// (weights + largest activation). No mapping can use less, so
/// "bound > memory_budget_bytes" soundly rejects. Mirrors
/// sim::build_scene's accounting; exposed for tests and policies.
double board_memory_lower_bound_bytes(const device::CostModel& cost,
                                      const sim::NetworkList& nets);

/// Admissible solo-latency floor of one network on one board: the
/// per-inference overhead plus the sum over layers of the best-component
/// uncontended time. A stream whose SLO is below this floor cannot meet it
/// on that board under ANY mapping or load. Exposed for tests.
double solo_latency_floor_s(const device::CostModel& cost,
                            const models::NetworkDesc& net);

/// N boards behind one admission/placement layer.
class Cluster {
 public:
  /// \param zoo     dataset networks backing every board's mixes
  /// \param boards  fleet specs (non-empty; names should be unique)
  Cluster(const models::ModelZoo& zoo, std::vector<BoardSpec> boards,
          ClusterConfig config = {});

  /// Replays \p scenario across the fleet: arrivals are admitted, routed by
  /// \p policy, and served through each board's own ServingSession;
  /// departures resolve to whichever board holds the stream. Deterministic:
  /// the same (fleet, config, scheduler factory, scenario, policy) always
  /// produces the byte-identical report.
  ClusterReport run(const SchedulerFactory& make_scheduler,
                    const workload::Scenario& scenario,
                    IPlacementPolicy& policy) const;

  const std::vector<BoardSpec>& boards() const { return boards_; }

 private:
  friend class ClusterSession;

  const models::ModelZoo* zoo_;
  std::vector<BoardSpec> boards_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<sim::DesSimulator>> sims_;
};

/// Cluster::run opened up event-by-event — the same extraction
/// ServingSession is of ServingRuntime, one level up. Holds exactly the
/// loop state the batch replay keeps between events (per-board schedulers
/// and sessions, board health, stream locations, the accumulating fleet
/// report), so `construct; apply() every event; finish()` IS Cluster::run,
/// bit-identical by construction. It stores no epochs either: only
/// Cluster::run collects them, through a private log fed by serve(), the
/// choke point every board epoch passes.
///
/// The extra surface beyond the batch loop exists for the live serving
/// daemon (tools/daemon.cpp):
///  - apply() returns an ApplyOutcome describing what the event did (the
///    daemon's wire replies);
///  - version() counts applied events, so a background search started
///    before an event raced in can detect staleness and discard itself;
///  - install_mapping() re-decides one board's resident mix onto a given
///    mapping (a refresh epoch through the normal epoch engine — already-
///    served epochs are never touched);
///  - note_background_search() surfaces the searches/installs counters in
///    every report.
///
/// Events must satisfy the Scenario invariants for the fleet (non-
/// decreasing times, arrive-while-absent, depart-while-present, per-board
/// fault legality); a Scenario guarantees this for batch replays, and the
/// daemon steps each live command through its workload::ScenarioValidator
/// before applying it. The session holds references into the Cluster — it
/// must not outlive it, and at most one session per Cluster may be live at
/// a time (sessions share the cluster's board simulators). Destruction
/// resets every board simulator to full speed, so a later run/session
/// starts from health.
class ClusterSession {
 public:
  static constexpr std::size_t kNoBoard = static_cast<std::size_t>(-1);

  /// What one applied event did, for the daemon's wire replies.
  enum class ApplyKind {
    kAdmitted,             ///< arrival admitted (and possibly rescued)
    kRejected,             ///< arrival rejected by admission
    kDeparted,             ///< departure applied to its board
    kSwallowedDeparture,   ///< departure of a rejected/shed stream
    kFault,                ///< fail/throttle/recover applied
  };
  struct ApplyOutcome {
    ApplyKind kind = ApplyKind::kFault;
    /// Board the event landed on (final board for rescued arrivals;
    /// kNoBoard for rejections/swallowed departures).
    std::size_t board = kNoBoard;
    bool migrated = false;  ///< the arrival was rescue-migrated
    /// DES throughput of the epoch the event triggered (0 when none was
    /// served: rejections, swallowed departures, fail/recover without a
    /// refresh).
    double measured_throughput = 0.0;
  };

  ClusterSession(const Cluster& cluster, const SchedulerFactory& make_scheduler,
                 IPlacementPolicy& policy);
  ~ClusterSession();
  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  /// Applies one scenario event: the body of Cluster::run's event loop.
  ApplyOutcome apply(const workload::ScenarioEvent& e);

  /// Snapshot of everything applied so far — the batch report, including
  /// the end-of-scenario tail accounting (downtime up to the last event's
  /// timestamp, resident streams, per-board aggregation). Each board comes
  /// from ServingSession::summary(): aggregates and epoch_count, no epoch
  /// list, so the cost is O(boards) at any session length. The session stays
  /// usable; the daemon's `status`/`report` commands call this repeatedly.
  ClusterReport finish() const;

  /// Monotonic count of applied events. A background search snapshots this
  /// before launching and installs only if it is unchanged — any event
  /// racing in invalidates the refinement's input mix.
  std::uint64_t version() const { return version_; }

  std::size_t size() const { return sessions_.size(); }
  const ServingSession& session(std::size_t board) const;
  bool board_up(std::size_t board) const;
  /// The board's CURRENT device spec, throttle included — what a background
  /// refinement must optimize against.
  const device::DeviceSpec& board_device(std::size_t board) const;

  /// Re-decides \p board's resident mix onto \p mapping via a refresh epoch
  /// (counted like any decision; label becomes the epoch's event string).
  /// Returns false without serving anything when the board is down or idle,
  /// or the mapping's shape no longer matches the resident mix — the
  /// install-only-if-nothing-raced rule's last line of defense. Never
  /// touches already-served epochs.
  bool install_mapping(std::size_t board, const sim::Mapping& mapping,
                       double time_s, const std::string& label);

  /// Counts one finished background search (and whether it installed) into
  /// every subsequent report.
  void note_background_search(bool installed);

 private:
  friend class Cluster;  // sets epoch_log_ for a batch replay

  std::vector<BoardView> make_views() const;
  bool admits(std::size_t board, const models::NetworkDesc& net,
              double slo_s) const;
  double cross_board_stall(const models::NetworkDesc& net) const;
  /// The choke point every board epoch passes (arrivals, departures, rescues,
  /// failovers, rebalances, refreshes, installs): counts degraded epochs
  /// (non-idle, at reduced speed) and feeds epoch_log_.
  const EpochReport& serve(std::size_t board, const EpochReport& ep);
  const EpochReport& serve(std::size_t board,
                           const workload::ScenarioEvent& ev,
                           double stall_s = 0.0);
  double working_set(const models::NetworkDesc& net) const;
  void arrive_at(std::size_t target, models::ModelId m, double slo_s,
                 double time_s, double stall_s);

  const Cluster* cluster_;
  IPlacementPolicy* policy_;
  std::vector<std::unique_ptr<IScheduler>> schedulers_;
  std::vector<ServingSession> sessions_;

  // Board health: up_[i] false while board i is failed, throttle_[i] < 1
  // while it serves degraded. Fault-free event streams never change either.
  std::vector<bool> up_;
  std::vector<double> throttle_;
  std::vector<double> down_since_;

  // Stream location: which board holds each model's stream (mixes are
  // globally duplicate-free, so ModelId keys the stream), kNoBoard = absent.
  std::vector<std::size_t> location_;
  std::vector<bool> rejected_;
  std::vector<bool> shed_;

  ClusterReport report_;  ///< fleet-level accumulators; finish() finalizes
  /// Per-board epoch lists, set only by Cluster::run; null otherwise.
  std::vector<std::vector<EpochReport>>* epoch_log_ = nullptr;
  double last_time_s_ = 0.0;
  std::uint64_t version_ = 0;
};

/// Renders the fleet text report the CLI's fleet mode prints and the
/// daemon's `status`/`report` commands return: the per-board table, the
/// fleet/throughput/migration/fault/SLO summary lines, and one
/// machine-parseable line per report —
///   `conservation: offered=.. admitted=.. rejected=.. departures=..
///    shed=.. resident=..`
/// — which the daemon smoke lane greps to compare live accounting against
/// an offline trace replay. A `background: searches=.. improvements=..`
/// line appears when either counter is nonzero.
std::string format_cluster_report(const ClusterReport& report);

/// The same report as JSON (`omniboost_cli serve --json`): `boards` (the
/// count), a `fleet` array with one object per board — its name, the
/// `epochs` list (empty for session snapshots), `epoch_count`, the means and
/// the ServingTotals — then every fleet-level count and the fleet's
/// ServingTotals, keyed by their field names at both levels.
util::Json to_json(const ClusterReport& report);

/// A heterogeneous fleet scaled from one \p base profile: cycles the stock
/// base / -pro (1.5x compute, 1.5x memory) / -lite (0.6x compute, 0.75x
/// memory) variants. Each variant is named after the lowercased base name
/// plus its suffix, and each board after its variant plus the board index
/// (hikey970-0, hikey970-pro-1, hikey970-lite-2 for the default base).
std::vector<BoardSpec> make_heterogeneous_fleet(
    std::size_t n, const device::DeviceSpec& base = device::make_hikey970());

}  // namespace omniboost::core
