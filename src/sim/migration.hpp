#pragma once
/// \file migration.hpp
/// Churn-cost model for dynamic rescheduling: on a real board, moving a
/// pipeline segment to a different computing component is not free — the
/// segment's weights must be re-uploaded over the shared-memory link and its
/// caches re-warmed before the stream serves frames again. This model turns
/// a mapping change (previous -> next, related by carried_from) into a
/// one-off per-stream stall that the DES charges as a delayed stream start
/// (DesSimulator's start-delay overloads), so mapping stability shows up in
/// *measured* throughput instead of only in the churn column.
///
/// Off by default (MigrationCostConfig::enabled == false): every existing
/// serving pin replays bit-identically unless a caller opts in.

#include <cstddef>
#include <vector>

#include "device/device.hpp"
#include "sim/mapping.hpp"
#include "sim/segments.hpp"

namespace omniboost::sim {

/// Fixed overhead per migrated segment, in seconds: runtime graph
/// re-instantiation, cache/TLB warm-up, map/unmap synchronization.
inline constexpr double kMigrationSegmentOverheadS = 2e-3;

/// Knobs of the churn-cost model. Weights re-upload at the device's
/// inter-component link bandwidth (DeviceSpec::link.bandwidth_gbps), and
/// every migrated segment adds kMigrationSegmentOverheadS.
struct MigrationCostConfig {
  /// Master switch. False = migrations are free (the pre-model behaviour);
  /// callers must not charge any delay.
  bool enabled = false;
  /// Global scale on the total stall (bench sweeps live here: 0 would be
  /// free-but-accounted, 1 the calibrated cost, >1 a pessimistic board).
  double scale = 1.0;
};

/// What one mapping transition costs, per stream and in aggregate.
struct MigrationStats {
  /// One-off start delay per stream of the NEW workload (seconds). New
  /// streams (carried_from < 0) are 0: their weights load regardless of
  /// which scheduler decided, so the cost does not differentiate mappings.
  std::vector<double> stream_delay_s;
  std::size_t moved_layers = 0;      ///< layers whose component changed
  std::size_t migrated_segments = 0; ///< new-pipeline segments touched by a move
  double moved_weight_bytes = 0.0;   ///< parameter bytes re-uploaded
  double total_delay_s = 0.0;        ///< sum over streams
  double max_delay_s = 0.0;          ///< worst single-stream stall
};

/// Derives migration stalls from segment weight bytes via the device
/// profile. Stateless apart from the owned config + device copy; safe to
/// share across epochs.
class MigrationCostModel {
 public:
  explicit MigrationCostModel(const device::DeviceSpec& device,
                              MigrationCostConfig config = {});

  const MigrationCostConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  /// Costs the transition previous -> next for the NEW workload \p nets.
  /// \p carried_from maps each new stream to its index in the previous
  /// mapping (-1 = just arrived), exactly as in core::ScheduleContext.
  /// A surviving stream pays weight re-upload for every layer whose
  /// component moved plus a fixed overhead per new-pipeline segment that
  /// contains at least one moved layer. Computable with enabled() false
  /// (pure accounting); callers gate the *charging* on enabled().
  MigrationStats assess(const NetworkList& nets, const Mapping& previous,
                        const std::vector<std::ptrdiff_t>& carried_from,
                        const Mapping& next) const;

 private:
  device::DeviceSpec device_;  ///< owned copy (mirrors DesSimulator)
  MigrationCostConfig config_;
};

}  // namespace omniboost::sim
