#pragma once
/// \file bench_common.hpp
/// Shared experiment context for the bench harness: builds the simulated
/// HiKey970, the model zoo, the embedding tensor, and (on demand) a trained
/// throughput estimator with the paper's design-time settings (500 random
/// workloads, 400/100 split, L1 loss, 100 epochs).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "nn/loss.hpp"
#include "sched/baseline.hpp"
#include "sched/ga.hpp"
#include "sched/mosaic.hpp"
#include "sim/analytic.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generator.hpp"

namespace omniboost::bench {

/// True when OMNIBOOST_BENCH_SMOKE is set non-empty (tools/run_tier1.sh
/// --bench-smoke): drivers shrink their campaigns to a seconds-not-minutes
/// budget whose only job is to prove every driver still builds, runs end to
/// end, and emits its tables. Smoke numbers are NOT paper reproductions.
inline bool smoke() {
  const char* s = std::getenv("OMNIBOOST_BENCH_SMOKE");
  return s != nullptr && *s != '\0';
}

/// Campaign knob: \p full for real runs, \p tiny under --bench-smoke.
inline std::size_t scaled(std::size_t full, std::size_t tiny) {
  return smoke() ? tiny : full;
}

/// Everything an experiment needs, built once per binary.
class Context {
 public:
  Context()
      : device_(device::make_hikey970()),
        cost_(device_),
        embedding_(zoo_, cost_),
        board_(device_) {}

  const models::ModelZoo& zoo() const { return zoo_; }
  const device::DeviceSpec& device() const { return device_; }
  const device::CostModel& cost() const { return cost_; }
  const core::EmbeddingTensor& embedding() const { return embedding_; }
  const sim::DesSimulator& board() const { return board_; }

  /// Trains the estimator for the scheduling experiments; returns the loss
  /// history. Idempotent — subsequent calls reuse the model.
  ///
  /// Default campaign: 1500 workloads (3x the paper's 500). The simulated
  /// board's throughput surface needs the larger design-time campaign to
  /// reach the estimator accuracy the paper reports from real-board data;
  /// EXPERIMENTS.md documents the deviation. Fig. 4 reproduces the paper's
  /// exact 500/400/100 training by passing explicit arguments.
  nn::TrainHistory train_estimator(std::size_t samples = 1500,
                                   std::size_t val_count = 300,
                                   std::size_t epochs = 100,
                                   std::uint64_t seed = 42) {
    if (estimator_) return history_;
    // The OMNIBOOST_ESTIMATOR_CACHE environment variable points at a weight
    // file reused across bench binaries (the design-time/run-time split:
    // train once, deploy everywhere). Only the default campaign is cached —
    // explicit-parameter callers (Fig. 4) always train and return a real
    // loss history.
    const bool default_campaign =
        samples == 1500 && val_count == 300 && epochs == 100 && seed == 42;
    if (default_campaign && smoke()) {
      // Tiny throwaway campaign.
      samples = 80;
      val_count = 20;
      epochs = 3;
    }
    const char* cache_env = std::getenv("OMNIBOOST_ESTIMATOR_CACHE");
    std::string cache_path = cache_env != nullptr ? cache_env : "";
    // Smoke weights are cached (so one --bench-smoke training serves all 15
    // drivers) but under a distinct file: the cache carries no campaign
    // fingerprint, so a throwaway 80-sample model must never be written to —
    // or silently loaded from — the real campaign's path.
    if (smoke() && !cache_path.empty()) cache_path += ".smoke";
    const bool use_cache = !cache_path.empty() && default_campaign;
    if (use_cache) {
      std::ifstream probe(cache_path, std::ios::binary);
      if (probe) {
        estimator_ = std::make_shared<const core::ThroughputEstimator>(
            core::ThroughputEstimator::load(probe));
        return history_;  // empty: no training happened
      }
    }
    core::DatasetConfig dc;
    dc.samples = samples;
    dc.seed = seed;
    const core::SampleSet data =
        core::generate_dataset(zoo_, embedding_, board_, dc);
    auto est = std::make_shared<core::ThroughputEstimator>(
        embedding_.models_dim(), embedding_.layers_dim());
    nn::L1Loss l1;
    nn::TrainConfig tc;
    tc.epochs = epochs;
    history_ = est->fit(data, val_count, l1, tc);
    if (use_cache) est->save_file(cache_path);
    estimator_ = est;
    return history_;
  }

  std::shared_ptr<const core::ThroughputEstimator> estimator() {
    train_estimator();
    return estimator_;
  }

  /// Measured average throughput T of a mapping on the simulated board.
  double measure(const workload::Workload& w, const sim::Mapping& m) const {
    return board_.simulate(w.resolve(zoo_), m).avg_throughput;
  }

 private:
  models::ModelZoo zoo_;
  device::DeviceSpec device_;
  device::CostModel cost_;
  core::EmbeddingTensor embedding_;
  sim::DesSimulator board_;
  std::shared_ptr<const core::ThroughputEstimator> estimator_;
  nn::TrainHistory history_;
};

/// Machine-readable export: writes \p t as `BENCH_<name>.json` under
/// `$OMNIBOOST_BENCH_JSON_DIR`. A no-op when the variable is unset, so
/// default runs stay text-only. Cells that parse fully as numbers are
/// emitted as JSON numbers; everything else as strings. A write that fails
/// (e.g. the directory does not exist) ends the process with exit code 1,
/// so a lost artifact can never pass for a successful run.
inline void emit_json(const std::string& name, const util::Table& t) {
  const char* dir = std::getenv("OMNIBOOST_BENCH_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return;
  util::Json rows = util::Json::array();
  for (const auto& row : t.data()) {
    util::Json obj = util::Json::object();
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::string& cell = row[i];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      // Json::number rejects non-finite values; "inf"/"nan" cells stay strings.
      if (!cell.empty() && end == cell.c_str() + cell.size() &&
          std::isfinite(v)) {
        obj.set(t.header()[i], util::Json::number(v));
      } else {
        obj.set(t.header()[i], util::Json::string(cell));
      }
    }
    rows.push_back(std::move(obj));
  }
  util::Json doc = util::Json::object();
  doc.set("bench", util::Json::string(name));
  doc.set("columns", [&t] {
    util::Json cols = util::Json::array();
    for (const auto& h : t.header()) cols.push_back(util::Json::string(h));
    return cols;
  }());
  doc.set("rows", std::move(rows));
  // Per-column summary: mean/stddev/min/max/count over the table's ROWS
  // for every fully-numeric column, emitted for all drivers that publish
  // through bench::report. Note the semantics: this is cross-row spread
  // (useful when rows are homogeneous sweeps, e.g. per-mix results), NOT
  // run-to-run load variance — timing tables publish that as explicit
  // per-row "sigma" columns computed over their repeats.
  util::Json stats = util::Json::object();
  for (std::size_t col = 0; col < t.header().size(); ++col) {
    util::RunningStats rs;
    bool numeric = !t.data().empty();
    for (const auto& row : t.data()) {
      const std::string& cell = row[col];
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (cell.empty() || end != cell.c_str() + cell.size() ||
          !std::isfinite(v)) {
        numeric = false;
        break;
      }
      rs.add(v);
    }
    if (!numeric) continue;
    util::Json s = util::Json::object();
    s.set("mean", util::Json::number(rs.mean()));
    s.set("stddev", util::Json::number(rs.stddev()));
    s.set("min", util::Json::number(rs.min()));
    s.set("max", util::Json::number(rs.max()));
    s.set("count", util::Json::number(static_cast<double>(rs.count())));
    stats.set(t.header()[col], std::move(s));
  }
  doc.set("column_stats", std::move(stats));
  const std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  out << doc.dump(2) << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "[bench] FAILED to write %s\n", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
}

/// The standard way to publish a result table: prints it to stdout AND
/// exports it as JSON (when enabled). Use this instead of a bare
/// Table::print so no table can silently miss the machine-readable export.
inline void report(const std::string& name, const util::Table& t) {
  t.print(std::cout);
  emit_json(name, t);
}

/// Prints a standard experiment banner.
inline void banner(const char* experiment, const char* paper_ref,
                   std::uint64_t seed) {
  std::printf("=== OmniBoost reproduction: %s ===\n", experiment);
  std::printf("paper reference: %s | substrate: simulated HiKey970 | seed: %llu\n\n",
              paper_ref, static_cast<unsigned long long>(seed));
}

}  // namespace omniboost::bench
