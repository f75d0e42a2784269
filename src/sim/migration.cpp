#include "sim/migration.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace omniboost::sim {

MigrationCostModel::MigrationCostModel(const device::DeviceSpec& device,
                                       MigrationCostConfig config)
    : device_(device), config_(config) {
  OB_REQUIRE(config_.scale >= 0.0 && std::isfinite(config_.scale),
             "MigrationCostModel: scale must be finite and >= 0");
  // Only an ENABLED model needs upload bandwidth: the serving runtime
  // constructs a (usually disabled) model for every board unconditionally,
  // and a zero-bandwidth link is a legal device profile as long as nobody
  // charges migrations on it.
  OB_REQUIRE(!config_.enabled || device_.link.bandwidth_gbps > 0.0,
             "MigrationCostModel: enabled but no usable upload bandwidth "
             "(the device link is zero)");
}

MigrationStats MigrationCostModel::assess(
    const NetworkList& nets, const Mapping& previous,
    const std::vector<std::ptrdiff_t>& carried_from,
    const Mapping& next) const {
  OB_REQUIRE(nets.size() == next.num_dnns(),
             "MigrationCostModel::assess: workload/mapping size mismatch");
  OB_REQUIRE(carried_from.size() == next.num_dnns(),
             "MigrationCostModel::assess: carried_from arity mismatch");

  const double upload_bps = device_.link.bandwidth_gbps * 1e9;
  // Diagnosed here (not only at construction) because a disabled model may
  // legally live on a zero-bandwidth board — but assessing one would emit
  // infinite stalls.
  OB_REQUIRE(upload_bps > 0.0,
             "MigrationCostModel::assess: zero upload bandwidth");

  MigrationStats stats;
  stats.stream_delay_s.assign(next.num_dnns(), 0.0);
  for (std::size_t d = 0; d < next.num_dnns(); ++d) {
    const std::ptrdiff_t from = carried_from[d];
    if (from < 0) continue;  // new stream: loads its weights either way
    OB_REQUIRE(static_cast<std::size_t>(from) < previous.num_dnns(),
               "MigrationCostModel::assess: carried_from out of range");
    const models::NetworkDesc& net = *nets[d];
    const Assignment& was = previous.assignment(static_cast<std::size_t>(from));
    const Assignment& now = next.assignment(d);
    OB_REQUIRE(was.size() == now.size() && now.size() == net.num_layers(),
               "MigrationCostModel::assess: surviving stream layer-count "
               "mismatch");

    double bytes = 0.0;
    std::size_t moved = 0;
    for (std::size_t l = 0; l < now.size(); ++l) {
      if (was[l] == now[l]) continue;
      ++moved;
      bytes += net.layers[l].weight_bytes;
    }
    if (moved == 0) continue;

    // Fixed overhead per NEW-pipeline segment that received at least one
    // moved layer: that segment's runtime graph is re-instantiated and its
    // caches re-warmed even if only part of it moved.
    std::size_t migrated_segments = 0;
    for (const SegmentSpan& span : extract_segments(now)) {
      for (std::size_t l = span.first; l <= span.last; ++l) {
        if (was[l] != now[l]) {
          ++migrated_segments;
          break;
        }
      }
    }

    const double delay =
        config_.scale *
        (bytes / upload_bps +
         static_cast<double>(migrated_segments) * kMigrationSegmentOverheadS);
    stats.stream_delay_s[d] = delay;
    stats.moved_layers += moved;
    stats.migrated_segments += migrated_segments;
    stats.moved_weight_bytes += bytes;
    stats.total_delay_s += delay;
    stats.max_delay_s = std::max(stats.max_delay_s, delay);
  }
  return stats;
}

}  // namespace omniboost::sim
