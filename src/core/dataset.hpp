#pragma once
/// \file dataset.hpp
/// Design-time dataset generation (paper §V): random mixes of 1-5 DNNs with
/// random stage-limited mappings are executed on the (simulated) board, and
/// each (masked embedding tensor, measured per-component throughput) pair
/// becomes one estimator training sample.

#include <cstdint>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "sim/des.hpp"

namespace omniboost::core {

/// Dataset generation controls (paper defaults). Mixes hold 1-5 distinct
/// DNNs; mappings respect the sim::kStageLimit stage cap.
struct DatasetConfig {
  std::size_t samples = 500;
  std::uint64_t seed = 42;
  /// Design-time parallelism.
  ///
  ///  * 0 (default) — the original strictly sequential pipeline: every draw
  ///    comes from ONE rng stream, infeasible workloads are redrawn from
  ///    that same stream. This order is bit-frozen across releases; the
  ///    paper campaigns (and the cached estimators trained from them) are
  ///    reproducible from the seed only on this path.
  ///  * >= 1 — the slot-seeded parallel pipeline: sample i is drawn from
  ///    its own private stream Rng(util::fork_stream(seed, i)) (redraws
  ///    included) on a util::ThreadPool of that many workers, each worker
  ///    owning a private DesSimulator clone, with results written into
  ///    slot i (ordered reduction). Output is byte-identical for EVERY
  ///    worker count >= 1 — but it is a different (equally valid) campaign
  ///    than the workers == 0 stream, so don't flip this knob under a
  ///    pinned experiment.
  std::size_t workers = 0;
};

/// Generates the estimator's training set by "running" random workloads on
/// the board simulator. Workloads that exceed board memory are redrawn (the
/// physical data-collection campaign can only record runnable mixes).
SampleSet generate_dataset(const models::ModelZoo& zoo,
                           const EmbeddingTensor& embedding,
                           const sim::DesSimulator& board,
                           const DatasetConfig& config);

/// Catalog variant for extended datasets (paper claim (iii)): mixes are
/// drawn as distinct indices into \p nets, which must be the list the
/// embedding tensor was built from. The largest mix size is clamped to
/// nets.size().
SampleSet generate_dataset(const sim::NetworkList& nets,
                           const EmbeddingTensor& embedding,
                           const sim::DesSimulator& board,
                           const DatasetConfig& config);

}  // namespace omniboost::core
