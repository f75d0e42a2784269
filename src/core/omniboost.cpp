#include "core/omniboost.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "sim/des.hpp"
#include "sim/migration.hpp"
#include "util/require.hpp"

namespace omniboost::core {

namespace {

/// Wall-clock helper.
class StopWatch {
 public:
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

OmniBoostScheduler::OmniBoostScheduler(
    const models::ModelZoo& zoo, const EmbeddingTensor& embedding,
    std::shared_ptr<const ThroughputEstimator> estimator,
    const OmniBoostConfig& config)
    : zoo_(&zoo),
      embedding_(&embedding),
      estimator_(std::move(estimator)),
      config_(config) {
  OB_REQUIRE(estimator_ != nullptr, "OmniBoostScheduler: null estimator");
  OB_REQUIRE(estimator_->trained(),
             "OmniBoostScheduler: estimator must be trained first");
}

std::shared_ptr<const ThroughputEstimator>
OmniBoostScheduler::active_estimator() const {
  // Kernel selection: the shared estimator is immutable, so a non-matching
  // kernel request is served by a private clone (serialization round-trip —
  // bit-exact weights and preprocessing, ~20k parameters, microseconds).
  if (estimator_->kernel() == config_.kernel) return estimator_;
  std::stringstream weights;
  estimator_->save(weights);
  std::istringstream is(weights.str());
  auto clone =
      std::make_shared<ThroughputEstimator>(ThroughputEstimator::load(is));
  clone->set_kernel(config_.kernel);
  return clone;
}

BatchMappingEvaluator OmniBoostScheduler::batch_evaluator(
    const workload::Workload& w,
    std::shared_ptr<const ThroughputEstimator> est) const {
  return [this, &w, est = std::move(est)](
             const std::vector<sim::Mapping>& mappings) {
    std::vector<tensor::Tensor> inputs;
    inputs.reserve(mappings.size());
    for (const sim::Mapping& m : mappings)
      inputs.push_back(embedding_->masked_input(w, m));
    return est->predict_rewards(inputs);
  };
}

MctsConfig OmniBoostScheduler::make_mcts_config() const {
  // The scheduler-level batching/caching knobs ride on the generic search
  // config; OmniBoostConfig is the authoritative surface for both. Reject
  // values smuggled in through the sub-config instead of silently
  // overwriting them.
  OB_REQUIRE(config_.mcts.batch_size == 1 && config_.mcts.cache,
             "OmniBoostScheduler: set batch_size/cache on OmniBoostConfig "
             "itself, not on its mcts sub-config");
  MctsConfig mcts = config_.mcts;
  mcts.batch_size = config_.batch_size;
  mcts.cache = config_.cache;
  return mcts;
}

ScheduleResult OmniBoostScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "OmniBoostScheduler::schedule: empty workload");
  const StopWatch timer;
  const MctsConfig mcts = make_mcts_config();
  const std::shared_ptr<const ThroughputEstimator> active = active_estimator();

  MctsResult r;
  if (config_.workers <= 1) {
    Mcts search(w.layer_counts(*zoo_), batch_evaluator(w, active), mcts);
    r = search.search();
  } else {
    // Root-parallel: the CNN forward pass mutates activation caches, so each
    // worker needs a private estimator. Clone through the serialization path
    // (bit-exact weights and preprocessing; ~20k parameters, microseconds),
    // stamping the configured kernel kind onto every clone.
    std::stringstream weights;
    active->save(weights);
    const std::string blob = weights.str();
    const nn::KernelKind kernel = config_.kernel;
    const BatchEvaluatorFactory factory = [this, &w, blob,
                                           kernel]() -> BatchMappingEvaluator {
      std::istringstream is(blob);
      auto clone =
          std::make_shared<ThroughputEstimator>(ThroughputEstimator::load(is));
      clone->set_kernel(kernel);
      return batch_evaluator(w, std::move(clone));
    };
    r = parallel_mcts_search_batched(w.layer_counts(*zoo_), factory, mcts,
                                     config_.workers);
  }

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.decision_seconds = timer.seconds();
  return out;
}

ScheduleResult OmniBoostScheduler::reschedule(const workload::Workload& w,
                                              const sim::Mapping& previous,
                                              const ScheduleContext& ctx) {
  if (!ctx.warm_start) return schedule(w);
  OB_REQUIRE(w.size() > 0, "OmniBoostScheduler::reschedule: empty workload");
  OB_REQUIRE(ctx.carried_from.size() == w.size(),
             "OmniBoostScheduler::reschedule: carried_from arity mismatch");
  OB_REQUIRE(config_.rollout_fraction > 0.0 && config_.rollout_fraction <= 1.0,
             "OmniBoostScheduler: rollout_fraction must be in (0, 1]");
  const StopWatch timer;

  // Incremental budget: a fraction of the cold budget, never below 1.
  MctsConfig mcts = make_mcts_config();
  mcts.budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config_.rollout_fraction *
                          static_cast<double>(mcts.budget))));

  // Prior: flatten the surviving streams' previous assignments into the
  // search's decision order (dnn-after-dnn, layer-after-layer); layers of
  // newly arrived streams carry no suggestion.
  const std::vector<std::size_t> counts = w.layer_counts(*zoo_);
  MctsWarmStart warm;
  warm.prior_bias = config_.prior_bias;
  for (std::size_t d = 0; d < w.size(); ++d) {
    const std::ptrdiff_t from = ctx.carried_from[d];
    if (from < 0) {
      warm.prior.insert(warm.prior.end(), counts[d], std::int8_t{-1});
      continue;
    }
    OB_REQUIRE(static_cast<std::size_t>(from) < previous.num_dnns(),
               "OmniBoostScheduler::reschedule: carried_from out of range");
    const sim::Assignment& a =
        previous.assignment(static_cast<std::size_t>(from));
    OB_REQUIRE(a.size() == counts[d],
               "OmniBoostScheduler::reschedule: carried stream layer-count "
               "mismatch (carried_from must pair identical models)");
    for (const device::ComponentId c : a)
      warm.prior.push_back(static_cast<std::int8_t>(c));
  }

  // SLO awareness: active only when the context names at least one SLO AND
  // brings the board model to replay candidates on. Without both, the
  // evaluator below is exactly the pre-SLO one — same closures, same rng
  // consumption — so SLO-free serving stays bit-identical.
  OB_REQUIRE(ctx.slo_s.empty() || ctx.slo_s.size() == w.size(),
             "OmniBoostScheduler::reschedule: slo_s arity mismatch");
  const bool slo_aware =
      ctx.board != nullptr &&
      std::any_of(ctx.slo_s.begin(), ctx.slo_s.end(),
                  [](double s) { return s > 0.0; });

  // Candidate nets for the SLO replays, resolved ONCE per decision at
  // function scope. The resolution depends only on the workload; rebuilding
  // it inside the replay closure would redo the zoo lookups for every
  // expansion wave of the search.
  sim::NetworkList slo_nets;

  // Executed DES replays, counted by the wrapper closure below (which,
  // like slo_nets, never outlives this call).
  std::size_t des_replays = 0;

  BatchMappingEvaluator evaluator = batch_evaluator(w, active_estimator());
  if (slo_aware) {
    OB_REQUIRE(config_.slo_shape > 0.0 && config_.slo_shape <= 1.0,
               "OmniBoostScheduler: slo_shape must be in (0, 1]");
    slo_nets = w.resolve(*zoo_);

    // Wrap the estimator evaluator: DES-replay each candidate and shape
    // down / hard-prune SLO breakers. A stream that serves no frame inside
    // the window counts as violating: "no sample" or "zero rate" means
    // starved, not fast. Migration stalls enter the replay through the
    // zero-rate rule only — a one-off stall cannot change per-frame latency
    // (the stream is simply absent for the first window slice, see the DES
    // start-delay contract), so a candidate whose own churn would starve an
    // SLO stream for the whole window is rejected here, while cheaper
    // stalls are priced by the runtime's measured T, not the SLO check.
    evaluator = [base = std::move(evaluator), board = ctx.board,
                 migration = ctx.migration, &nets = slo_nets,
                 slo = ctx.slo_s, previous, carried = ctx.carried_from,
                 shape = config_.slo_shape, hard = config_.slo_hard_prune,
                 &replays = des_replays](
                    const std::vector<sim::Mapping>& mappings) {
      std::vector<double> rewards = base(mappings);
      for (std::size_t i = 0; i < mappings.size(); ++i) {
        std::vector<double> delays;
        if (migration != nullptr && migration->enabled())
          delays = migration->assess(nets, previous, carried, mappings[i])
                       .stream_delay_s;
        ++replays;
        const sim::DesSimulator::TracedResult replay =
            board->simulate_traced(nets, mappings[i], delays);
        std::size_t violations = 0;
        for (std::size_t d = 0; d < slo.size(); ++d) {
          // sim::breaks_slo is the SAME predicate the serving runtime
          // counts violations with — the search must never optimize a
          // different definition of "violating" than the one it is
          // measured against.
          if (sim::breaks_slo(replay.report, replay.trace, d, slo[d]))
            ++violations;
        }
        if (violations == 0) continue;
        if (hard) {
          // Demote below every SLO-clean candidate regardless of the
          // estimator's reward sign; more violations sink deeper, which
          // keeps the ranking meaningful when every candidate violates.
          // The unit is sized to dominate the estimator's flow-scale
          // rewards (O(1e2) at most) WITHOUT exploding the search's
          // min-max-normalized reward range — a huge offset would collapse
          // all clean candidates' exploit terms to one point and degrade
          // the tree policy to exploration-only.
          rewards[i] =
              std::min(rewards[i], 0.0) - 1e4 * static_cast<double>(violations);
        } else {
          // Symmetric shaping so the demotion works in both reward-sign
          // regimes: shrink positive rewards toward zero, push negative
          // ones further down (dividing by shape < 1 grows the magnitude).
          const double factor = std::pow(shape, static_cast<double>(violations));
          rewards[i] = rewards[i] > 0.0 ? rewards[i] * factor
                                        : rewards[i] / factor;
        }
      }
      return rewards;
    };
  }

  // Memo carry-over: estimator rewards are a pure function of
  // (workload, mapping), so the memo is keyed by the mix signature and
  // revived whenever the scenario returns to a mix it has scheduled before.
  // SLO-shaped rewards additionally depend on the previous mapping and the
  // epoch's SLOs, so SLO-aware decisions bypass the carried memos entirely
  // (private per-decision memo) rather than poison them.
  const bool carry_memo = config_.cache && !slo_aware;
  std::string signature;
  if (carry_memo) {
    for (const models::ModelId id : w.mix) {
      signature += std::to_string(models::model_index(id));
      signature += ',';
    }
    CarriedMemo& carried = carried_memos_[signature];
    carried.last_used = ++memo_clock_;
    warm.memo = &carried.memo;
  }

  // Single tree on purpose: the incremental budget is already small, and
  // root-parallel trees cannot share the carried memo (the private-memo
  // rule of the parallel search).
  Mcts search(counts, std::move(evaluator), mcts);
  search.set_warm_start(std::move(warm));
  const MctsResult r = search.search();
  if (carry_memo) evict_carried_memos(signature);

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.des_replays = des_replays;
  out.decision_seconds = timer.seconds();
  return out;
}

std::size_t OmniBoostScheduler::carried_memo_footprint() const {
  std::size_t entries = 0;
  for (const auto& [signature, carried] : carried_memos_) {
    (void)signature;
    entries += carried.memo.size();
  }
  return entries;
}

void OmniBoostScheduler::evict_carried_memos(const std::string& keep) {
  if (config_.carried_memo_entries == 0) return;  // unbounded
  // Long serving sessions touch many mixes; bound the retained footprint by
  // dropping whole least-recently-rescheduled memos. The just-used mix is
  // never dropped, so a single busy mix may exceed the cap by itself — its
  // memo is bounded by the distinct mappings the shrunken warm budget can
  // reach, and dropping it would only forfeit the carry-over benefit.
  while (carried_memo_footprint() > config_.carried_memo_entries &&
         carried_memos_.size() > 1) {
    auto victim = carried_memos_.end();
    for (auto it = carried_memos_.begin(); it != carried_memos_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == carried_memos_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == carried_memos_.end()) break;
    carried_memos_.erase(victim);
  }
}

MctsScheduler::MctsScheduler(std::string name, const models::ModelZoo& zoo,
                             MappingEvaluator evaluator, MctsConfig config)
    : name_(std::move(name)),
      zoo_(&zoo),
      evaluator_(std::move(evaluator)),
      config_(config) {
  OB_REQUIRE(evaluator_ != nullptr, "MctsScheduler: null evaluator");
}

ScheduleResult MctsScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "MctsScheduler::schedule: empty workload");
  const StopWatch timer;
  Mcts search(w.layer_counts(*zoo_), evaluator_, config_);
  const MctsResult r = search.search();

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.decision_seconds = timer.seconds();
  return out;
}

}  // namespace omniboost::core
