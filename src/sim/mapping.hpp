#pragma once
/// \file mapping.hpp
/// The schedulable decision object: which computing component runs every
/// layer of every DNN in a multi-DNN workload. Contiguous runs of layers on
/// one component form *pipeline stages* (the paper limits these to
/// x = kStageLimit per DNN; exceeding that marks a losing MCTS state).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "device/device.hpp"
#include "models/layer_desc.hpp"

namespace omniboost::sim {

using device::ComponentId;

/// The paper's pipeline-stage cap x: one stage per computing component
/// (x = 3 on the HiKey970). Every scheduler, the dataset campaign and the
/// MCTS default share this one value; only core::MctsConfig::stage_limit
/// can override it (the stage-cap ablation sweeps it).
inline constexpr std::size_t kStageLimit = device::kNumComponents;

/// Per-layer component choice for one DNN.
using Assignment = std::vector<ComponentId>;

/// One contiguous run of layers on a single component.
struct SegmentSpan {
  std::size_t first = 0;  ///< first layer index (inclusive)
  std::size_t last = 0;   ///< last layer index (inclusive)
  ComponentId comp = ComponentId::kGpu;
};

/// Splits an assignment into its contiguous segments.
std::vector<SegmentSpan> extract_segments(const Assignment& a);

/// Number of pipeline stages (contiguous runs) of an assignment.
std::size_t num_stages(const Assignment& a);

/// A complete mapping for a workload of several DNNs.
///
/// Mappings are immutable once constructed, so a canonical 64-bit hash is
/// computed eagerly and cached; it keys the MCTS evaluation memo
/// (core::Mcts) and gives operator== an O(1) reject path.
class Mapping {
 public:
  Mapping() = default;
  explicit Mapping(std::vector<Assignment> per_dnn);

  /// Mapping that places every layer of every DNN on one component
  /// (the paper's baseline uses ComponentId::kGpu).
  static Mapping all_on(const std::vector<std::size_t>& layer_counts,
                        ComponentId comp);

  std::size_t num_dnns() const { return per_dnn_.size(); }
  const Assignment& assignment(std::size_t dnn) const;
  const std::vector<Assignment>& assignments() const { return per_dnn_; }

  /// Stage count of one DNN.
  std::size_t stages(std::size_t dnn) const;
  /// Largest stage count over all DNNs.
  std::size_t max_stages() const;
  /// True iff every DNN has at most \p limit stages (paper: limit = 3).
  bool within_stage_limit(std::size_t limit) const;

  /// Canonical content hash (FNV-1a over DNN lengths and component ids).
  /// Equal mappings hash equal; DNN boundaries are mixed in so e.g.
  /// {{G,G}} and {{G},{G}} collide neither with each other nor trivially.
  std::uint64_t hash() const { return hash_; }

  /// Hash-first fast path: unequal hashes reject without touching the
  /// per-layer vectors (the common case inside the evaluation memo).
  bool operator==(const Mapping& rhs) const {
    return hash_ == rhs.hash_ && per_dnn_ == rhs.per_dnn_;
  }
  bool operator!=(const Mapping& rhs) const { return !(*this == rhs); }

 private:
  std::vector<Assignment> per_dnn_;
  std::uint64_t hash_ = 0;
};

/// Hasher for unordered containers keyed by Mapping.
struct MappingHasher {
  std::size_t operator()(const Mapping& m) const {
    return static_cast<std::size_t>(m.hash());
  }
};

}  // namespace omniboost::sim
