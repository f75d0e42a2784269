#pragma once
/// \file fallback.hpp
/// Decision-deadline guard: a decorator that wraps any primary IScheduler
/// with a wall-clock deadline and bounded retry-with-backoff, falling back
/// to a deterministic microsecond scheduler (Greedy by convention) whenever
/// the primary is too slow or throws. The serving loop can then never stall
/// on a decision: every epoch gets SOME mapping within a bounded wall-clock
/// budget. This is the `mris_ilp_scheduler` timeout-with-fallback pattern
/// (pamaury/pasched) generalized to the serving path.
///
/// Semantics: C++ cannot safely abort an in-flight schedule() call, so the
/// deadline is enforced POST-HOC — the primary runs to completion, and a
/// result that came back after the attempt's deadline is discarded as stale
/// (by the time it is ready the epoch has moved on). Each retry doubles the
/// allowed deadline (retrying under the identical budget would fail the
/// identical way); after kMaxPrimaryAttempts the fallback decides. A
/// deadline_ms of 0 never invokes the primary at all — every epoch provably
/// serves through the fallback (pinned by tests/fallback_test.cpp).
///
/// Determinism caveat: with a finite nonzero deadline the decision depends
/// on wall-clock timing and is NOT replay-deterministic. The two extremes
/// are: deadline_ms == 0 (always fallback) and a deadline no primary
/// decision ever misses (always primary, e.g. minutes) — deterministic
/// pipelines (tests, pinned benches) must use one of those.

#include <cstddef>
#include <memory>
#include <string>

#include "core/scheduler.hpp"
#include "device/device.hpp"
#include "models/zoo.hpp"

namespace omniboost::sched {

/// Primary attempts before the fallback decides. Attempt k runs under
/// FallbackConfig::deadline_ms * 2^k.
inline constexpr std::size_t kMaxPrimaryAttempts = 2;

/// Deadline-guard controls.
struct FallbackConfig {
  /// Wall-clock budget of the first primary attempt, in milliseconds. 0
  /// skips the primary entirely: every decision is served by the fallback.
  /// Must be finite and >= 0.
  double deadline_ms = 50.0;
};

/// Cumulative decision accounting across the wrapper's lifetime.
struct FallbackStats {
  std::size_t primary_decisions = 0;   ///< primary result accepted in time
  std::size_t fallback_decisions = 0;  ///< fallback had to decide
  std::size_t deadline_misses = 0;     ///< primary results discarded as late
  std::size_t exceptions = 0;          ///< primary attempts that threw
  std::size_t retries = 0;             ///< extra primary attempts made
};

/// Deadline + retry + fallback decorator around two owned schedulers.
class FallbackScheduler final : public core::IScheduler {
 public:
  /// \param primary   the scheduler worth waiting for (MCTS, B&B, ...)
  /// \param fallback  the always-fast safety net; must never throw for any
  ///                  workload the serving loop can produce
  FallbackScheduler(std::unique_ptr<core::IScheduler> primary,
                    std::unique_ptr<core::IScheduler> fallback,
                    FallbackConfig config = {});

  std::string name() const override;
  core::ScheduleResult schedule(const workload::Workload& w) override;
  core::ScheduleResult reschedule(const workload::Workload& w,
                                  const sim::Mapping& previous,
                                  const core::ScheduleContext& ctx) override;

  const FallbackStats& stats() const { return stats_; }
  const FallbackConfig& config() const { return config_; }
  core::IScheduler& primary() { return *primary_; }
  core::IScheduler& fallback() { return *fallback_; }

 private:
  /// Shared guard: runs the attempt ladder over \p attempt (a callable
  /// invoking either schedule or reschedule on a given scheduler).
  template <typename Attempt>
  core::ScheduleResult guarded(const Attempt& attempt);

  std::unique_ptr<core::IScheduler> primary_;
  std::unique_ptr<core::IScheduler> fallback_;
  FallbackConfig config_;
  FallbackStats stats_;
};

/// Convenience: wrap \p primary with a GreedyScheduler fallback on the given
/// board — the standard serving-path guard.
std::unique_ptr<FallbackScheduler> make_greedy_fallback(
    std::unique_ptr<core::IScheduler> primary, const models::ModelZoo& zoo,
    const device::DeviceSpec& device, FallbackConfig config = {});

}  // namespace omniboost::sched
