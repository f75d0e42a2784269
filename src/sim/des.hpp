#pragma once
/// \file des.hpp
/// Discrete-event simulation of a multi-DNN workload running on the modelled
/// board. This is the reproduction's "measurement": each DNN is a closed-loop
/// pipeline of segments; components serve segment executions FIFO; transfers
/// delay frames between stages; steady-state inferences/sec are measured
/// after warm-up and then clipped by the shared-DRAM bandwidth wall.

#include <memory>

#include "sim/report.hpp"
#include "sim/segments.hpp"
#include "sim/trace.hpp"

namespace omniboost::sim {

/// Event-driven board simulator. The measurement horizon is 60 times the
/// slowest stream's solo inference time, and its first 30% is discarded as
/// warm-up.
///
/// Owns a copy of the DeviceSpec, so callers may pass temporaries
/// (e.g. make_hikey970() inline). Non-copyable: the internal cost model
/// points into the owned spec.
class DesSimulator {
 public:
  explicit DesSimulator(const device::DeviceSpec& device);

  DesSimulator(const DesSimulator&) = delete;
  DesSimulator& operator=(const DesSimulator&) = delete;

  /// Runs one workload under one mapping to steady state.
  ///
  /// \param nets     the concurrent DNN streams
  /// \param mapping  per-layer component assignment (same arity as nets)
  ThroughputReport simulate(const NetworkList& nets,
                            const Mapping& mapping) const;

  /// Like simulate(), but charges stream i a one-off start stall of
  /// start_delay_s[i] seconds — the hook the churn-cost model
  /// (sim/migration.hpp) uses for migration costs. The stall is charged
  /// against the steady-state measurement (the stream is treated as absent
  /// for that first slice of the unchanged measurement window, scaling its
  /// measured rate by the present fraction), NOT by shifting injections in
  /// the event loop: a phase shift would interact chaotically with queueing
  /// and a stall shorter than the warm-up would vanish. Strictly monotone:
  /// a delay can only lower rates, a delay >= the window starves the stream
  /// to zero, and an empty vector (or all zeros) is bit-identical to plain
  /// simulate(). Latency statistics are untouched — a one-off stall is not
  /// per-frame latency.
  ThroughputReport simulate(const NetworkList& nets, const Mapping& mapping,
                            const std::vector<double>& start_delay_s) const;

  /// Throughput measurement plus full observability record.
  struct TracedResult {
    ThroughputReport report;
    ExecutionTrace trace;
  };

  /// Like simulate(), additionally recording per-component utilization,
  /// queue pressure, and per-stream frame-latency statistics.
  ///
  /// \param record_events  also keep every segment execution interval
  ///                       (memory-heavy; for debugging and Gantt rendering)
  TracedResult simulate_traced(const NetworkList& nets, const Mapping& mapping,
                               bool record_events = false) const;

  /// Traced form with per-stream start delays (see the simulate() overload).
  TracedResult simulate_traced(const NetworkList& nets, const Mapping& mapping,
                               const std::vector<double>& start_delay_s,
                               bool record_events = false) const;

  const device::DeviceSpec& device() const { return cost_.device(); }
  const device::CostModel& cost_model() const { return cost_; }

  /// Sets the owned spec's board-level throttle (see DeviceSpec::throttle);
  /// the internal cost model reads through the owned spec, so subsequent
  /// simulations run at the new speed immediately. Throws
  /// std::invalid_argument unless \p factor is finite and in (0, 1].
  void set_throttle(double factor);
  double throttle() const { return device_.throttle; }

  /// Independent simulator with the same spec — the standard way for
  /// parallel pipelines (core::generate_dataset) and serving/bench drivers
  /// to obtain private instances.
  std::unique_ptr<DesSimulator> clone() const {
    return std::make_unique<DesSimulator>(device());
  }

 private:
  /// Shared event loop; \p trace may be null (plain measurement) and
  /// \p start_delay_s may be null (all streams start at t = 0).
  ThroughputReport run(const NetworkList& nets, const Mapping& mapping,
                       const std::vector<double>* start_delay_s,
                       ExecutionTrace* trace, bool record_events) const;

  device::DeviceSpec device_;  ///< owned copy; cost_ points into it
  device::CostModel cost_;
};

/// Applies the shared-DRAM wall and fills the derived report fields.
/// Exposed for reuse by the analytic model.
void finalize_report(ThroughputReport& report, const Scene& scene,
                     const NetworkList& nets,
                     const device::DeviceSpec& device);

}  // namespace omniboost::sim
