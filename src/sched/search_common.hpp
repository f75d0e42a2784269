#pragma once
/// \file search_common.hpp
/// Shared plumbing of the search-based schedulers: per-workload evaluator
/// factories and the canonical enumeration of the stage-limited assignment
/// space. A scheduler instance must handle arbitrary workloads, but a
/// core::MappingEvaluator scores mappings of one fixed workload — the factory
/// closes over the workload and produces the evaluator on demand.
///
/// Three factories cover the evaluation regimes of the paper and the
/// estimator ablation (bench_ablation_estimator): the trained CNN estimator
/// (production OmniBoost), the DES board oracle (an idealized "measure every
/// candidate" scheduler), and the closed-form analytic model (a fast
/// approximate oracle).

#include <functional>
#include <memory>
#include <vector>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/mcts.hpp"
#include "models/zoo.hpp"
#include "sim/analytic.hpp"
#include "sim/des.hpp"
#include "workload/workload.hpp"

namespace omniboost::sched {

/// Builds a mapping evaluator specialized to one workload.
using WorkloadEvaluatorFactory =
    std::function<core::MappingEvaluator(const workload::Workload&)>;

/// Production evaluation: masked embedding tensor -> trained estimator
/// reward (the paper's configuration; ~tens of microseconds per query).
WorkloadEvaluatorFactory estimator_evaluator_factory(
    const models::ModelZoo& zoo, const core::EmbeddingTensor& embedding,
    std::shared_ptr<const core::ThroughputEstimator> estimator);

/// Oracle evaluation: run the discrete-event board simulator and return the
/// measured average throughput T. In the physical world this would mean
/// timing every candidate on the board — far too slow for production, but
/// the gold standard the ablations compare the estimator against.
WorkloadEvaluatorFactory oracle_evaluator_factory(
    const models::ModelZoo& zoo, std::shared_ptr<const sim::DesSimulator> board);

/// Approximate oracle: the closed-form steady-state model. Orders of
/// magnitude faster than the DES with the same qualitative ranking.
WorkloadEvaluatorFactory analytic_evaluator_factory(
    const models::ModelZoo& zoo, std::shared_ptr<const sim::AnalyticModel> model);

// ---------------------------------------------------------------------------
// Canonical enumeration of the stage-limited assignment space. Shared by
// ExhaustiveScheduler, BranchAndBoundScheduler and the reduce pass so every
// exact search agrees on one visiting order (pinned by a golden in
// tests/sched_search_test.cpp): depth-first over layers with layer 0
// outermost and components tried in kAllComponents order (GPU, big, LITTLE),
// skipping stage-infeasible prefixes. The first assignment is therefore
// all-GPU, and the order is lexicographic in per-layer component indices.

/// Per-layer component restriction for one DNN: allowed[l] lists the
/// components layer l may use, in kAllComponents order. Produced by the
/// reduce pass (ReducedSpace::allowed), consumed by the exact searches.
using LayerChoices = std::vector<std::vector<device::ComponentId>>;

/// Number of assignments of \p layers layers with at most \p stage_limit
/// contiguous stages on kNumComponents components:
///   sum_{s=1..min(x,L)} C(L-1, s-1) * k * (k-1)^(s-1).
/// Returned as double — realistic layer counts overflow 64-bit integers.
double count_assignments(std::size_t layers, std::size_t stage_limit);

/// Size of the full mapping space of a workload: the product of its DNNs'
/// assignment counts.
double count_mappings(const models::ModelZoo& zoo, const workload::Workload& w,
                      std::size_t stage_limit);

/// Materializes every stage-limited assignment of one DNN, in canonical
/// order. Throws when the unrestricted count exceeds \p max_count (guard
/// against accidental exponential blow-up). When \p allowed is non-null it
/// must have one entry per layer; assignments using a disallowed component
/// are skipped.
std::vector<sim::Assignment> enumerate_assignments(
    std::size_t layers, std::size_t stage_limit, std::size_t max_count,
    const LayerChoices* allowed = nullptr);

}  // namespace omniboost::sched
