#include "core/mcts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace omniboost::core {

using device::ComponentId;
using device::kNumComponents;

/// Arena-allocated search-tree node.
struct Mcts::Node {
  std::int32_t parent = -1;
  std::array<std::int32_t, kNumComponents> child{-1, -1, -1};
  bool action_valid[kNumComponents] = {false, false, false};
  std::uint8_t action = 0;       ///< action that led here (from parent)
  std::uint32_t depth = 0;       ///< number of decisions made
  std::uint32_t visits = 0;
  double total_reward = 0.0;
  std::int32_t best_rollout = -1;  ///< best-rewarded rollout through here
  double best_reward = 0.0;
};

namespace {

/// Adapts a scalar evaluator to the batch interface (one call per mapping).
BatchMappingEvaluator adapt_scalar(MappingEvaluator evaluate) {
  OB_REQUIRE(evaluate != nullptr, "Mcts: null evaluator");
  return [evaluate = std::move(evaluate)](
             const std::vector<sim::Mapping>& mappings) {
    std::vector<double> rewards;
    rewards.reserve(mappings.size());
    for (const sim::Mapping& m : mappings) rewards.push_back(evaluate(m));
    return rewards;
  };
}

}  // namespace

Mcts::Mcts(std::vector<std::size_t> layer_counts, MappingEvaluator evaluate,
           MctsConfig config)
    : Mcts(std::move(layer_counts), adapt_scalar(std::move(evaluate)),
           config) {}

Mcts::Mcts(std::vector<std::size_t> layer_counts, BatchMappingEvaluator evaluate,
           MctsConfig config)
    : layer_counts_(std::move(layer_counts)),
      evaluate_(std::move(evaluate)),
      config_(config) {
  OB_REQUIRE(!layer_counts_.empty(), "Mcts: empty workload");
  OB_REQUIRE(evaluate_ != nullptr, "Mcts: null evaluator");
  OB_REQUIRE(config_.budget > 0, "Mcts: zero budget");
  OB_REQUIRE(config_.stage_limit >= 1, "Mcts: stage limit must be >= 1");
  for (std::size_t i = 0; i < layer_counts_.size(); ++i) {
    OB_REQUIRE(layer_counts_[i] > 0, "Mcts: DNN with no layers");
    for (std::size_t l = 0; l < layer_counts_[i]; ++l)
      coords_.push_back(Coord{i, l});
  }
}

void Mcts::set_warm_start(MctsWarmStart warm) {
  OB_REQUIRE(warm.prior.empty() || warm.prior.size() == coords_.size(),
             "Mcts: warm-start prior must cover every decision");
  OB_REQUIRE(warm.prior_bias >= 0.0 && warm.prior_bias <= 1.0,
             "Mcts: prior_bias must be a probability");
  for (const std::int8_t p : warm.prior)
    OB_REQUIRE(p >= -1 && p < static_cast<std::int8_t>(kNumComponents),
               "Mcts: warm-start prior entry out of component range");
  warm_ = std::move(warm);
}

void Mcts::valid_actions(const std::vector<ComponentId>& path,
                         std::size_t depth,
                         bool (&out)[kNumComponents]) const {
  const Coord c = coords_[depth];
  if (c.layer == 0) {
    // First layer of a DNN: any component starts stage 1.
    for (bool& b : out) b = true;
  } else {
    // Count stages of this DNN so far (decisions depth-c.layer .. depth-1).
    const std::size_t first = depth - c.layer;
    std::size_t stages = 1;
    for (std::size_t d = first + 1; d < depth; ++d)
      if (path[d] != path[d - 1]) ++stages;
    const ComponentId prev = path[depth - 1];
    for (std::size_t a = 0; a < kNumComponents; ++a) {
      const auto comp = static_cast<ComponentId>(a);
      // Opening one more stage is a losing state beyond the limit (§IV-C).
      out[a] = comp == prev || stages < config_.stage_limit;
    }
  }
}

sim::Mapping Mcts::to_mapping(const std::vector<ComponentId>& path) const {
  OB_ENSURE(path.size() == coords_.size(), "Mcts: incomplete path");
  std::vector<sim::Assignment> per_dnn;
  per_dnn.reserve(layer_counts_.size());
  std::size_t d = 0;
  for (std::size_t count : layer_counts_) {
    sim::Assignment a(count, ComponentId::kGpu);
    for (std::size_t l = 0; l < count; ++l) a[l] = path[d++];
    per_dnn.push_back(std::move(a));
  }
  return sim::Mapping(std::move(per_dnn));
}

MctsResult parallel_mcts_search_batched(
    const std::vector<std::size_t>& layer_counts,
    const BatchEvaluatorFactory& make_evaluator, MctsConfig config,
    std::size_t workers) {
  OB_REQUIRE(make_evaluator != nullptr, "parallel_mcts_search: null factory");
  OB_REQUIRE(workers >= 1, "parallel_mcts_search: zero workers");
  OB_REQUIRE(config.budget >= workers,
             "parallel_mcts_search: budget smaller than worker count");

  // Budget split (remainder to the first workers); each worker's seed is a
  // stateless fork of the master seed by worker index (util::fork_stream),
  // so the run is reproducible regardless of thread timing and worker w's
  // tree is the same no matter how many siblings it has. A lone worker
  // keeps the master seed: it is exactly Mcts::search().
  std::vector<MctsResult> results(workers);
  util::ThreadPool pool(util::ThreadPool::clamped(workers, workers));
  pool.parallel_for(workers, [&](std::size_t w, std::size_t) {
    MctsConfig own = config;
    own.budget =
        config.budget / workers + (w < config.budget % workers ? 1 : 0);
    own.seed = workers == 1 ? config.seed : util::fork_stream(config.seed, w);
    Mcts search(layer_counts, make_evaluator(), own);
    results[w] = search.search();
  });

  // Merged in worker order, so ties resolve the same for every pool size.
  MctsResult merged = results[0];
  for (std::size_t w = 1; w < workers; ++w) {
    const MctsResult& r = results[w];
    merged.iterations += r.iterations;
    merged.evaluations += r.evaluations;
    merged.cache_hits += r.cache_hits;
    merged.tree_nodes += r.tree_nodes;
    if (r.best_reward > merged.best_reward) {
      merged.best_reward = r.best_reward;
      merged.best_mapping = r.best_mapping;
    }
  }
  return merged;
}

MctsResult Mcts::search() {
  util::Rng rng(config_.seed);
  const std::size_t total = coords_.size();
  const std::size_t wave_cap = std::max<std::size_t>(1, config_.batch_size);

  std::vector<Node> arena;
  arena.reserve(2 * config_.budget + 1);
  arena.emplace_back();  // root (depth 0)

  MctsResult result;
  result.best_reward = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<ComponentId>> rollouts;
  rollouts.reserve(config_.budget);
  std::vector<ComponentId> path;
  path.reserve(total);

  // Evaluation memo (transposition cache): the action sequences
  // GPU->CPU->GPU and CPU->GPU->GPU can reach distinct tree nodes whose
  // completed rollouts render to the same Mapping; the memo keys on the
  // mapping's canonical hash so the evaluator runs once per distinct
  // mapping, not once per rollout. Warm-started searches substitute an
  // external memo so rewards survive across incremental decisions.
  EvaluationMemo local_memo;
  EvaluationMemo& memo = warm_.memo != nullptr ? *warm_.memo : local_memo;
  const bool warm = !warm_.prior.empty();

  // One queued leaf evaluation of the current expansion wave.
  struct Pending {
    std::int32_t node_id;        ///< leaf the selection phase stopped at
    std::int32_t rollout_id;     ///< completed rollout through that leaf
    std::ptrdiff_t batch_index;  ///< index into the wave batch, -1 if resolved
    double reward;               ///< memoized reward when batch_index < 0
  };
  std::vector<Pending> wave;
  wave.reserve(wave_cap);
  std::vector<sim::Mapping> batch;
  batch.reserve(wave_cap);
  std::vector<double> batch_rewards;

  // Running reward range for scale-free UCT: evaluator units are arbitrary
  // (inferences/sec for oracles, flow units for the estimator), so the
  // exploit term is min-max-normalized to [0, 1] against the rewards seen so
  // far. Without this the exploration constant is meaningless at reward
  // scales far from 1 and the search degenerates to pure exploitation.
  double reward_min = std::numeric_limits<double>::infinity();
  double reward_max = -std::numeric_limits<double>::infinity();

  const auto pick_random_valid = [&](const bool (&valid)[kNumComponents]) {
    std::size_t n = 0;
    std::size_t choice = 0;
    for (std::size_t a = 0; a < kNumComponents; ++a) {
      if (!valid[a]) continue;
      ++n;
      if (rng.below(n) == 0) choice = a;  // reservoir pick
    }
    OB_ENSURE(n > 0, "Mcts: no valid action (stage limit unreachable)");
    return choice;
  };

  // The budget is consumed in waves of up to batch_size rollouts: each wave
  // member runs selection/expansion/rollout and is queued; then ONE batch
  // evaluator call scores the wave's memo misses; then rewards are
  // back-propagated in queue order. With wave size 1 the phase order per
  // iteration (select, rollout, evaluate, min/max update, backprop) is the
  // paper's sequential loop, decision for decision and rng draw for rng
  // draw. Queued leaves already carry their visit increment (a virtual
  // visit), which doubles as a virtual loss that spreads the members of a
  // wide wave across the tree instead of piling them onto one leaf.
  for (std::size_t iter = 0; iter < config_.budget;) {
    const std::size_t wave_n = std::min(wave_cap, config_.budget - iter);
    wave.clear();
    batch.clear();
    batch_rewards.clear();

    for (std::size_t k = 0; k < wave_n; ++k) {
      path.clear();
      std::int32_t node_id = 0;
      // The first rollout of a warm search is pinned to the prior wherever
      // the prior is set and legal; later rollouts only lean toward it.
      const bool pinned = warm && iter == 0 && k == 0;

      // --- Selection: descend while fully expanded.
      for (;;) {
        Node& node = arena[static_cast<std::size_t>(node_id)];
        if (node.depth >= total) break;  // terminal (winning) node reached
        if (node.depth >= config_.max_depth) break;  // expansion depth cap

        valid_actions(path, node.depth, node.action_valid);
        // Collect unexpanded valid actions.
        std::size_t unexpanded[kNumComponents];
        std::size_t n_unexpanded = 0;
        for (std::size_t a = 0; a < kNumComponents; ++a)
          if (node.action_valid[a] && node.child[a] < 0)
            unexpanded[n_unexpanded++] = a;

        if (n_unexpanded > 0) {
          // --- Expansion: create one child at random. A pinned rollout
          // expands the prior's action instead (no rng draw) so the previous
          // mapping's path is the first thing the tree learns about.
          std::size_t a;
          const std::int8_t suggested =
              pinned ? warm_.prior[node.depth] : std::int8_t{-1};
          if (suggested >= 0 &&
              node.action_valid[static_cast<std::size_t>(suggested)] &&
              node.child[static_cast<std::size_t>(suggested)] < 0) {
            a = static_cast<std::size_t>(suggested);
          } else {
            a = unexpanded[rng.below(n_unexpanded)];
          }
          Node child;
          child.parent = node_id;
          child.action = static_cast<std::uint8_t>(a);
          child.depth = node.depth + 1;
          arena.push_back(child);
          const auto child_id = static_cast<std::int32_t>(arena.size() - 1);
          arena[static_cast<std::size_t>(node_id)].child[a] = child_id;
          path.push_back(static_cast<ComponentId>(a));
          node_id = child_id;
          break;
        }

        // --- UCT choice among expanded children.
        double best_score = -std::numeric_limits<double>::infinity();
        std::size_t best_action = 0;
        const double log_n =
            std::log(static_cast<double>(std::max<std::uint32_t>(node.visits, 1)));
        const double reward_span =
            reward_max > reward_min ? reward_max - reward_min : 1.0;
        // Before the first backprop (possible only in a wide first wave:
        // queued leaves carry virtual visits but no reward yet) the running
        // range is still empty; treat every average as neutral rather than
        // letting (q - inf) collapse all scores to -inf and the choice to
        // action 0.
        const bool have_rewards = reward_min <= reward_max;
        for (std::size_t a = 0; a < kNumComponents; ++a) {
          if (node.child[a] < 0) continue;
          const Node& ch = arena[static_cast<std::size_t>(node.child[a])];
          const double exploit =
              ch.visits > 0 && have_rewards
                  ? (ch.total_reward / ch.visits - reward_min) / reward_span
                  : 0.0;
          const double explore =
              ch.visits > 0 ? config_.exploration *
                                  std::sqrt(log_n / static_cast<double>(ch.visits))
                            : std::numeric_limits<double>::infinity();
          const double score = exploit + explore;
          if (score > best_score) {
            best_score = score;
            best_action = a;
          }
        }
        path.push_back(static_cast<ComponentId>(best_action));
        node_id = arena[static_cast<std::size_t>(node_id)].child[best_action];
      }

      // --- Rollout: random completion to a winning (complete) mapping.
      // Warm searches bias each decision toward the prior (probability
      // prior_bias; the pinned rollout follows it outright), concentrating
      // the shrunken incremental budget around the previous mapping.
      while (path.size() < total) {
        bool valid[kNumComponents];
        valid_actions(path, path.size(), valid);
        const std::int8_t suggested =
            warm ? warm_.prior[path.size()] : std::int8_t{-1};
        std::size_t choice;
        if (suggested >= 0 && valid[static_cast<std::size_t>(suggested)] &&
            (pinned || rng.chance(warm_.prior_bias))) {
          choice = static_cast<std::size_t>(suggested);
        } else {
          choice = pick_random_valid(valid);
        }
        path.push_back(static_cast<ComponentId>(choice));
      }
      rollouts.push_back(path);
      const auto rollout_id = static_cast<std::int32_t>(rollouts.size() - 1);

      // Virtual visit: count the rollout on its tree path now, so the
      // remaining members of this wave see it during selection.
      for (std::int32_t id = node_id; id >= 0;
           id = arena[static_cast<std::size_t>(id)].parent)
        ++arena[static_cast<std::size_t>(id)].visits;

      // --- Queue the leaf for evaluation: memo hit, in-wave duplicate, or a
      // new entry in this wave's evaluator batch.
      Pending pending{node_id, rollout_id, -1, 0.0};
      sim::Mapping mapping = to_mapping(path);
      if (config_.cache) {
        const auto hit = memo.find(mapping);
        if (hit != memo.end()) {
          pending.reward = hit->second;
          ++result.cache_hits;
          wave.push_back(pending);
          continue;
        }
        for (std::size_t j = 0; j < batch.size(); ++j) {
          if (batch[j] == mapping) {
            pending.batch_index = static_cast<std::ptrdiff_t>(j);
            ++result.cache_hits;
            break;
          }
        }
      }
      if (pending.batch_index < 0) {
        batch.push_back(std::move(mapping));
        pending.batch_index = static_cast<std::ptrdiff_t>(batch.size() - 1);
      }
      wave.push_back(pending);
    }  // wave collection

    // --- Evaluation: one batch call for the wave's distinct new mappings.
    if (!batch.empty()) {
      batch_rewards = evaluate_(batch);
      OB_ENSURE(batch_rewards.size() == batch.size(),
                "Mcts: batch evaluator returned wrong reward count");
      result.evaluations += batch.size();
      if (config_.cache) {
        for (std::size_t j = 0; j < batch.size(); ++j)
          memo.emplace(batch[j], batch_rewards[j]);
      }
    }

    // --- Back-propagation, in queue order (visits already counted).
    for (const Pending& p : wave) {
      const double reward =
          p.batch_index >= 0
              ? batch_rewards[static_cast<std::size_t>(p.batch_index)]
              : p.reward;
      reward_min = std::min(reward_min, reward);
      reward_max = std::max(reward_max, reward);
      for (std::int32_t id = p.node_id; id >= 0;
           id = arena[static_cast<std::size_t>(id)].parent) {
        Node& n = arena[static_cast<std::size_t>(id)];
        n.total_reward += reward;
        if (n.best_rollout < 0 || reward > n.best_reward) {
          n.best_rollout = p.rollout_id;
          n.best_reward = reward;
        }
      }
      ++result.iterations;
    }
    iter += wave_n;
  }

  // --- Elite-state extraction (paper Fig. 2 step 8). All strategies use
  // node visit averages to temper the evaluator's winner's curse; see
  // MctsExtraction for the variants (the ablation bench compares them).
  std::size_t elite = 0;
  switch (config_.extraction) {
    case MctsExtraction::kGlobalArgmax: {
      elite = 0;  // the root sees every rollout; its best is the global max
      break;
    }
    case MctsExtraction::kEliteDescent: {
      for (;;) {
        const Node& n = arena[elite];
        std::int32_t next = -1;
        double best_q = -std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < kNumComponents; ++a) {
          if (n.child[a] < 0) continue;
          const Node& ch = arena[static_cast<std::size_t>(n.child[a])];
          if (ch.visits == 0) continue;
          const double q = ch.total_reward / ch.visits;
          if (q > best_q) {
            best_q = q;
            next = n.child[a];
          }
        }
        if (next < 0) break;
        elite = static_cast<std::size_t>(next);
      }
      break;
    }
    case MctsExtraction::kEliteNode: {
      const auto min_visits = static_cast<std::uint32_t>(
          std::max<std::size_t>(4, config_.budget / 64));
      double elite_q = -std::numeric_limits<double>::infinity();
      for (std::size_t id = 0; id < arena.size(); ++id) {
        const Node& n = arena[id];
        if (id != 0 && n.visits < min_visits) continue;
        const double q = n.visits > 0
                             ? n.total_reward / n.visits
                             : -std::numeric_limits<double>::infinity();
        if (q > elite_q) {
          elite_q = q;
          elite = id;
        }
      }
      break;
    }
  }
  const Node& elite_node = arena[elite];
  OB_ENSURE(elite_node.best_rollout >= 0, "Mcts: elite state has no rollout");
  result.best_mapping = to_mapping(
      rollouts[static_cast<std::size_t>(elite_node.best_rollout)]);
  result.best_reward = elite_node.best_reward;

  result.tree_nodes = arena.size();
  return result;
}

}  // namespace omniboost::core
