#include "sched/fallback.hpp"

#include <chrono>
#include <cmath>
#include <exception>

#include "sched/greedy.hpp"
#include "util/require.hpp"

namespace omniboost::sched {

namespace {

/// Deadline growth per retry.
constexpr double kBackoffMultiplier = 2.0;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

FallbackScheduler::FallbackScheduler(std::unique_ptr<core::IScheduler> primary,
                                     std::unique_ptr<core::IScheduler> fallback,
                                     FallbackConfig config)
    : primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      config_(config) {
  OB_REQUIRE(primary_ != nullptr && fallback_ != nullptr,
             "FallbackScheduler: both schedulers are required");
  OB_REQUIRE(std::isfinite(config_.deadline_ms) && config_.deadline_ms >= 0.0,
             "FallbackScheduler: deadline_ms must be finite and >= 0");
}

std::string FallbackScheduler::name() const {
  return primary_->name() + "+fallback(" + fallback_->name() + ")";
}

template <typename Attempt>
core::ScheduleResult FallbackScheduler::guarded(const Attempt& attempt) {
  const auto start = std::chrono::steady_clock::now();
  if (config_.deadline_ms > 0.0) {
    double allowed_s = config_.deadline_ms / 1e3;
    for (std::size_t k = 0; k < kMaxPrimaryAttempts; ++k) {
      if (k > 0) ++stats_.retries;
      const auto attempt_start = std::chrono::steady_clock::now();
      try {
        core::ScheduleResult r = attempt(*primary_);
        if (seconds_since(attempt_start) <= allowed_s) {
          ++stats_.primary_decisions;
          r.decision_seconds = seconds_since(start);
          return r;
        }
        // Late result: stale by the time it is ready — discard and either
        // retry with a grown deadline or fall through to the fallback.
        ++stats_.deadline_misses;
      } catch (const std::exception&) {
        ++stats_.exceptions;
      }
      allowed_s *= kBackoffMultiplier;
    }
  }
  core::ScheduleResult r = attempt(*fallback_);
  ++stats_.fallback_decisions;
  r.decision_seconds = seconds_since(start);
  return r;
}

core::ScheduleResult FallbackScheduler::schedule(const workload::Workload& w) {
  return guarded(
      [&](core::IScheduler& s) -> core::ScheduleResult { return s.schedule(w); });
}

core::ScheduleResult FallbackScheduler::reschedule(
    const workload::Workload& w, const sim::Mapping& previous,
    const core::ScheduleContext& ctx) {
  return guarded([&](core::IScheduler& s) -> core::ScheduleResult {
    return s.reschedule(w, previous, ctx);
  });
}

std::unique_ptr<FallbackScheduler> make_greedy_fallback(
    std::unique_ptr<core::IScheduler> primary, const models::ModelZoo& zoo,
    const device::DeviceSpec& device, FallbackConfig config) {
  return std::make_unique<FallbackScheduler>(
      std::move(primary), std::make_unique<GreedyScheduler>(zoo, device),
      config);
}

}  // namespace omniboost::sched
