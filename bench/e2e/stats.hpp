#pragma once
/// \file stats.hpp
/// Measurement helpers for the end-to-end benchmark: nearest-rank
/// percentiles, closed-loop rates, peak resident memory, CPU rotation
/// between operations, and an ordered name -> (value, unit, sample count)
/// set that bench_e2e prints and exports.

#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

namespace omniboost::e2e {

/// Moves a thread or process to the next allowed CPU in turn, one step per
/// operation. On a shared host each CPU is slowed by its co-tenants for
/// seconds at a time, independently of the others (about 1.5x on the
/// reference VM); an operation loop that stayed on one CPU would measure
/// mostly that CPU's luck, so consecutive operations start on different
/// CPUs instead. Threads the target creates inherit its mask at that
/// moment, so rotate only around operations that start no threads, or
/// after they have.
class CpuRotation {
 public:
  /// \p pid 0 rotates the calling thread, whose original mask is restored
  /// on destruction; otherwise that (child) process, which must still be
  /// unreaped whenever next() is called.
  explicit CpuRotation(pid_t pid = 0) : pid_(pid) {
    CPU_ZERO(&original_);
    if (sched_getaffinity(pid_, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() {
    if (pid_ == 0 && !cpus_.empty())
      sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step_++ % cpus_.size()], &one);
    sched_setaffinity(pid_, sizeof(one), &one);
  }

 private:
  pid_t pid_;
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t step_ = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of \p v; 0 for an empty sample.
inline double nearest_rank(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Operations per second of a closed loop whose operations took \p op_ms
/// each: their count over their summed time (0 for an empty sample).
inline double rate_per_s(const std::vector<double>& op_ms) {
  double ms = 0.0;
  for (const double v : op_ms) ms += v;
  return ms > 0.0 ? 1e3 * static_cast<double>(op_ms.size()) / ms : 0.0;
}

/// Peak resident set size (VmHWM) of the process whose status file is
/// \p status_path, in MiB; 0 when the file or field is missing.
inline double peak_rss_mb(
    const std::string& status_path = "/proc/self/status") {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value
};

/// Insertion-ordered metric set; re-adding a name overwrites it.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n) {
    for (Metric& m : items_) {
      if (m.name == name) {
        m = {name, value, unit, n};
        return;
      }
    }
    items_.push_back({name, value, unit, n});
  }

  const Metric* find(const std::string& name) const {
    for (const Metric& m : items_)
      if (m.name == name) return &m;
    return nullptr;
  }

  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Everything one run measured, and what went wrong.
struct RunResult {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< ops that threw, err replies, non-finite losses
  std::vector<std::string> failures;  ///< failed checks
  /// Timing expectations that did not hold; reported, never failed on.
  std::vector<std::string> warnings;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void warn(bool ok, const std::string& what) {
    if (!ok) warnings.push_back(what);
  }
  void add_error_rate() {
    metrics.add("error_rate",
                attempted == 0 ? 0.0
                               : static_cast<double>(failed) /
                                     static_cast<double>(attempted),
                "fraction", attempted);
  }
};

}  // namespace omniboost::e2e
