// sched::FallbackScheduler: the decision-deadline guard's contracts.
//  * deadline_ms == 0 never invokes the primary; every serving epoch is
//    decided by the fallback, bit-identically to running the fallback alone
//  * a deadline no decision can miss always accepts the primary
//  * a throwing primary burns its attempt ladder and the fallback decides
//  * construction validates both schedulers and every config field

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/serving.hpp"
#include "sched/fallback.hpp"
#include "sched/greedy.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using sched::FallbackConfig;
using sched::FallbackScheduler;
using workload::Scenario;

const models::ModelZoo& zoo() {
  static const models::ModelZoo z;
  return z;
}

const device::DeviceSpec& spec() {
  static const device::DeviceSpec s = device::make_hikey970();
  return s;
}

const sim::DesSimulator& board() {
  static const sim::DesSimulator b(spec());
  return b;
}

/// Counts invocations so tests can prove the primary was (never) consulted.
class CountingScheduler final : public core::IScheduler {
 public:
  explicit CountingScheduler(std::unique_ptr<core::IScheduler> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return "counting"; }
  core::ScheduleResult schedule(const workload::Workload& w) override {
    ++calls_;
    return inner_->schedule(w);
  }
  core::ScheduleResult reschedule(const workload::Workload& w,
                                  const sim::Mapping& previous,
                                  const core::ScheduleContext& ctx) override {
    ++calls_;
    return inner_->reschedule(w, previous, ctx);
  }
  std::size_t calls() const { return calls_; }

 private:
  std::unique_ptr<core::IScheduler> inner_;
  std::size_t calls_ = 0;
};

/// A primary that always throws — the pathological scheduler the guard must
/// contain.
class ThrowingScheduler final : public core::IScheduler {
 public:
  std::string name() const override { return "throwing"; }
  core::ScheduleResult schedule(const workload::Workload&) override {
    ++calls_;
    throw std::runtime_error("scheduler exploded");
  }
  std::size_t calls_ = 0;
};

std::unique_ptr<CountingScheduler> counting_greedy() {
  return std::make_unique<CountingScheduler>(
      std::make_unique<sched::GreedyScheduler>(zoo(), spec()));
}

/// Serving-relevant decision state, excluding wall-clock latency (which the
/// wrapper legitimately changes).
std::string fingerprint(const core::EpochReport& ep) {
  std::string out = ep.event + "|" + ep.mix + "|";
  for (const sim::Assignment& a : ep.decision.mapping.assignments())
    for (const device::ComponentId c : a)
      out += std::to_string(static_cast<int>(c));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "|%.17g|%.17g|", ep.measured_throughput,
                ep.decision.expected_reward);
  out += buf;
  out += ep.feasible ? "F" : "f";
  return out;
}

Scenario churny_scenario() {
  workload::ScenarioConfig cfg;
  cfg.events = 12;
  cfg.max_concurrent = 3;
  cfg.depart_bias = 0.5;
  util::Rng rng(util::fork_stream(42, 0));
  return workload::random_scenario(rng, cfg);
}

TEST(FallbackScheduler, ZeroDeadlineServesEveryEpochViaFallbackOnly) {
  const Scenario s = churny_scenario();

  // Reference: the fallback (Greedy) serving alone.
  sched::GreedyScheduler plain(zoo(), spec());
  const core::ServingReport direct =
      core::ServingRuntime(zoo(), board()).run(plain, s);

  auto primary = counting_greedy();
  CountingScheduler* primary_raw = primary.get();
  FallbackConfig fc;
  fc.deadline_ms = 0.0;  // never consult the primary
  FallbackScheduler guard(std::move(primary),
                          std::make_unique<sched::GreedyScheduler>(zoo(),
                                                                   spec()),
                          fc);
  const core::ServingReport guarded =
      core::ServingRuntime(zoo(), board()).run(guard, s);

  // The primary was provably never invoked; the fallback decided everything.
  EXPECT_EQ(primary_raw->calls(), 0u);
  EXPECT_EQ(guard.stats().primary_decisions, 0u);
  EXPECT_EQ(guard.stats().fallback_decisions, guarded.decisions);
  EXPECT_EQ(guard.stats().deadline_misses, 0u);
  EXPECT_EQ(guard.stats().retries, 0u);

  // Every epoch was served with a decision bit-identical to the fallback
  // serving alone (deadline 0 is the deterministic extreme).
  ASSERT_EQ(guarded.epochs.size(), direct.epochs.size());
  ASSERT_GT(guarded.decisions, 0u);
  for (std::size_t i = 0; i < guarded.epochs.size(); ++i)
    EXPECT_EQ(fingerprint(guarded.epochs[i]), fingerprint(direct.epochs[i]))
        << "epoch " << i;
}

TEST(FallbackScheduler, GenerousDeadlineAlwaysAcceptsThePrimary) {
  const Scenario s = churny_scenario();
  auto primary = counting_greedy();
  CountingScheduler* primary_raw = primary.get();
  FallbackConfig fc;
  fc.deadline_ms = 1e9;  // ~11.5 days: no Greedy decision can miss it
  FallbackScheduler guard(std::move(primary),
                          std::make_unique<sched::GreedyScheduler>(zoo(),
                                                                   spec()),
                          fc);
  const core::ServingReport rep =
      core::ServingRuntime(zoo(), board()).run(guard, s);
  EXPECT_GT(rep.decisions, 0u);
  EXPECT_EQ(primary_raw->calls(), rep.decisions);
  EXPECT_EQ(guard.stats().primary_decisions, rep.decisions);
  EXPECT_EQ(guard.stats().fallback_decisions, 0u);
  EXPECT_EQ(guard.stats().deadline_misses, 0u);
  EXPECT_EQ(guard.stats().exceptions, 0u);
  EXPECT_EQ(guard.stats().retries, 0u);
}

TEST(FallbackScheduler, ThrowingPrimaryBurnsItsAttemptsThenFallbackDecides) {
  auto primary = std::make_unique<ThrowingScheduler>();
  ThrowingScheduler* primary_raw = primary.get();
  FallbackConfig fc;
  fc.deadline_ms = 50.0;
  FallbackScheduler guard(std::move(primary),
                          std::make_unique<sched::GreedyScheduler>(zoo(),
                                                                   spec()),
                          fc);

  const workload::Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  const core::ScheduleResult r = guard.schedule(w);
  // The full ladder of sched::kMaxPrimaryAttempts == 2 attempts burned.
  EXPECT_EQ(primary_raw->calls_, 2u);
  EXPECT_EQ(guard.stats().exceptions, 2u);
  EXPECT_EQ(guard.stats().retries, 1u);
  EXPECT_EQ(guard.stats().fallback_decisions, 1u);
  EXPECT_EQ(guard.stats().primary_decisions, 0u);
  // The fallback's mapping is the real Greedy decision.
  sched::GreedyScheduler plain(zoo(), spec());
  const core::ScheduleResult direct = plain.schedule(w);
  EXPECT_EQ(r.mapping.assignments(), direct.mapping.assignments());
  EXPECT_GE(r.decision_seconds, 0.0);
  // Even the serving path survives a pathological primary end to end.
  const core::ServingReport rep = core::ServingRuntime(zoo(), board())
                                      .run(guard, churny_scenario());
  EXPECT_GT(rep.decisions, 0u);
  EXPECT_EQ(guard.stats().fallback_decisions, 1u + rep.decisions);
}

TEST(FallbackScheduler, NameComposesAndAccessorsExposeTheParts) {
  FallbackConfig fc;
  fc.deadline_ms = 0.0;
  auto guard = sched::make_greedy_fallback(counting_greedy(), zoo(), spec(),
                                           fc);
  EXPECT_EQ(guard->name(), "counting+fallback(Greedy)");
  EXPECT_EQ(guard->config().deadline_ms, 0.0);
  EXPECT_EQ(guard->primary().name(), "counting");
  EXPECT_EQ(guard->fallback().name(), "Greedy");
}

TEST(FallbackScheduler, ConstructionValidatesSchedulersAndConfig) {
  const auto greedy = [] {
    return std::make_unique<sched::GreedyScheduler>(zoo(), spec());
  };
  EXPECT_THROW(FallbackScheduler(nullptr, greedy(), {}),
               std::invalid_argument);
  EXPECT_THROW(FallbackScheduler(greedy(), nullptr, {}),
               std::invalid_argument);
  const auto bad = [&](FallbackConfig fc) {
    EXPECT_THROW(FallbackScheduler(greedy(), greedy(), fc),
                 std::invalid_argument);
  };
  FallbackConfig fc;
  fc.deadline_ms = -1.0;
  bad(fc);
  fc.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  bad(fc);
  fc.deadline_ms = std::numeric_limits<double>::infinity();
  bad(fc);
}

}  // namespace
