#pragma once
/// \file omniboost.hpp
/// The OmniBoost scheduler: MCTS exploration guided by the trained
/// throughput estimator (paper Fig. 2, steps 4-8). This is the framework's
/// primary public entry point; see examples/quickstart.cpp.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/mcts.hpp"
#include "core/scheduler.hpp"

namespace omniboost::core {

/// OmniBoost run-time controls.
struct OmniBoostConfig {
  /// Search controls (paper defaults: budget 500, depth 100, limit 3).
  /// Note: leave its batch_size/cache fields at their defaults here — the
  /// scheduler-level knobs below are the single source of truth, schedule()
  /// forwards them into the search config, and non-default values smuggled
  /// in through this sub-config are rejected (std::invalid_argument) rather
  /// than silently overwritten.
  MctsConfig mcts;
  /// Root-parallel search workers. 1 reproduces the paper's sequential
  /// search; N > 1 splits the budget over N independent trees, each with a
  /// private clone of the estimator (the CNN forward pass is stateful), and
  /// cuts the decision latency by ~N at comparable quality.
  std::size_t workers = 1;
  /// Leaf evaluations batched per estimator forward pass (the MCTS
  /// expansion-wave width; forwarded into MctsConfig::batch_size by
  /// schedule()). 1 reproduces the paper's sequential search bit-for-bit;
  /// larger values amortize the CNN traversal over the wave — see
  /// bench_runtime_overhead's batched-vs-scalar columns.
  std::size_t batch_size = 1;
  /// Memoize estimator rewards by mapping hash (forwarded into
  /// MctsConfig::cache). Rewards for repeated mappings are replayed
  /// bit-exactly, so this changes only the evaluations/cache_hits split,
  /// never the decision.
  bool cache = true;
  /// Compute kernel for the estimator's CNN layers (nn/kernel.hpp).
  /// schedule() runs the search against an estimator with this kernel kind,
  /// cloning the shared instance on mismatch (the shared estimator is never
  /// mutated). kReference together with {batch_size = 1, workers = 1}
  /// reproduces the paper's sequential search bit-for-bit; kGemm is faster
  /// and deterministic, matching within float rounding (<= 1e-6).
  nn::KernelKind kernel = nn::default_kernel();
  /// Budget multiplier for warm-started incremental decisions
  /// (reschedule()): an incremental search spends
  /// max(1, round(rollout_fraction * mcts.budget)) rollouts. The surviving
  /// streams' previous assignments seed the search (MctsWarmStart), so a
  /// fraction of the cold budget suffices — bench_serving_scenarios sweeps
  /// the latency/throughput tradeoff. schedule() never reads this.
  double rollout_fraction = 0.4;
  /// Rollout bias toward the warm-start prior (MctsWarmStart::prior_bias).
  /// High by design: at 0.9 a typical rollout deviates from the previous
  /// mapping in only a couple of layers, so the incremental budget explores
  /// a local neighbourhood of the previous decision (plus the unconstrained
  /// layers of newly arrived streams) instead of scattering single-layer
  /// flips that fragment pipeline stages.
  double prior_bias = 0.9;
  /// Retention cap on the carried evaluation memos, in total mapping->reward
  /// entries across all mixes. Long serving sessions visit many mixes;
  /// when the cap is exceeded the least-recently-rescheduled mixes' memos
  /// are dropped (the current mix is always kept). Dropping a memo costs
  /// re-evaluation only, never correctness. 0 = unbounded.
  std::size_t carried_memo_entries = 200'000;
  /// SLO reward shaping in warm reschedule(): when the context carries
  /// latency SLOs AND a board model, every candidate mapping is DES-replayed
  /// (with the context's migration stalls applied, if any) and candidates
  /// whose replayed p99 frame latency breaks a stream's SLO (shared rule:
  /// sim::breaks_slo) are demoted by slo_shape once per violating stream —
  /// positive rewards shrink toward zero, negative ones are pushed further
  /// down, so the ordering holds in both reward-sign regimes. Violators
  /// stay comparable (a heavily-violating mapping may beat nothing), just
  /// dominated by any SLO-clean candidate of similar quality.
  double slo_shape = 0.25;
  /// Hard-prune variant of the knob above: violating candidates are demoted
  /// by a constant reward offset per violating stream — far below any
  /// SLO-clean candidate whatever the estimator's reward sign — so they can
  /// never outrank a clean one. The search still returns SOME mapping when
  /// every candidate violates (least-violating, estimator-best among ties).
  bool slo_hard_prune = false;
};

/// Production scheduler: estimator-guided Monte Carlo Tree Search.
class OmniBoostScheduler final : public IScheduler {
 public:
  /// \param zoo        dataset networks (layer counts, embedding columns)
  /// \param embedding  profiled distributed-embeddings tensor
  /// \param estimator  trained throughput estimator (shared, not owned
  ///                   exclusively — several schedulers may reuse it)
  OmniBoostScheduler(const models::ModelZoo& zoo,
                     const EmbeddingTensor& embedding,
                     std::shared_ptr<const ThroughputEstimator> estimator,
                     const OmniBoostConfig& config = {});

  std::string name() const override { return "OmniBoost"; }
  ScheduleResult schedule(const workload::Workload& w) override;

  /// Warm-started incremental decision (serving runtime path): surviving
  /// streams' previous assignments become the search prior, the budget
  /// shrinks to rollout_fraction of the cold budget, and the evaluation
  /// memo carries over between decisions on the same mix (cache hits from
  /// earlier epochs are counted in ScheduleResult::cache_hits). Runs a
  /// single search tree regardless of OmniBoostConfig::workers — splitting
  /// an already-shrunken budget over root-parallel trees starves each one.
  /// With ctx.warm_start == false this is exactly schedule(w).
  ///
  /// SLO/churn awareness: when ctx.slo_s names at least one SLO and
  /// ctx.board is set, rewards are shaped by a DES replay of each candidate
  /// (OmniBoostConfig::slo_shape / slo_hard_prune), with ctx.migration's
  /// per-candidate stalls applied — they reject candidates whose own churn
  /// would starve an SLO stream for the whole window (cheaper stalls price
  /// into the runtime's measured T, not latency). Shaped rewards
  /// depend on (previous mapping, SLOs) — not only on (mix, mapping) — so
  /// the per-mix carried memo is bypassed for such decisions and a private
  /// memo is used instead; the carried memos are neither read nor written.
  /// With no SLOs in the context this path is bit-identical to the pre-SLO
  /// reschedule (pinned by tests/serving_test.cpp).
  ScheduleResult reschedule(const workload::Workload& w,
                            const sim::Mapping& previous,
                            const ScheduleContext& ctx) override;

  /// Total mapping->reward entries currently retained across the carried
  /// memos (diagnostics; tests pin the eviction policy through this).
  std::size_t carried_memo_footprint() const;

 private:
  /// The estimator instance the search should query: the shared one when
  /// its kernel matches config_.kernel, else a private clone with the
  /// requested kernel (serialization round-trip; the shared instance is
  /// never mutated).
  std::shared_ptr<const ThroughputEstimator> active_estimator() const;
  /// Scores a wave of mappings for workload \p w with ONE batched CNN
  /// forward pass through \p est.
  BatchMappingEvaluator batch_evaluator(
      const workload::Workload& w,
      std::shared_ptr<const ThroughputEstimator> est) const;
  /// Forwards the scheduler-level batching/caching knobs into the generic
  /// search config (rejecting values smuggled into the sub-config).
  MctsConfig make_mcts_config() const;

  /// Drops least-recently-used mixes' memos until the configured entry cap
  /// holds again (keeping \p keep, the mix just rescheduled).
  void evict_carried_memos(const std::string& keep);

  const models::ModelZoo* zoo_;
  const EmbeddingTensor* embedding_;
  std::shared_ptr<const ThroughputEstimator> estimator_;
  OmniBoostConfig config_;
  /// One carried evaluation memo with its LRU stamp.
  struct CarriedMemo {
    EvaluationMemo memo;
    std::uint64_t last_used = 0;
  };
  /// Per-mix evaluation memos carried across reschedule() calls, keyed by
  /// the mix signature (ordered model indices). Estimator rewards are a
  /// pure function of (workload, mapping), so a memo is valid for every
  /// later decision on the same mix; cold schedule() never touches these.
  /// Bounded by OmniBoostConfig::carried_memo_entries (LRU per mix).
  std::unordered_map<std::string, CarriedMemo> carried_memos_;
  std::uint64_t memo_clock_ = 0;
};

/// Generic search-based scheduler around an arbitrary mapping evaluator —
/// the ablation harness uses it to swap the estimator for a DES oracle or a
/// linear probe while keeping the identical MCTS.
class MctsScheduler final : public IScheduler {
 public:
  MctsScheduler(std::string name, const models::ModelZoo& zoo,
                MappingEvaluator evaluator, MctsConfig config);

  std::string name() const override { return name_; }
  ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  MappingEvaluator evaluator_;
  MctsConfig config_;
};

}  // namespace omniboost::core
