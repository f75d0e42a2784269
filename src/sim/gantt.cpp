#include "sim/gantt.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "util/require.hpp"

namespace omniboost::sim {

namespace {

constexpr std::size_t kWidth = 72;  ///< character columns for the time axis

char stream_glyph(std::size_t dnn) {
  if (dnn < 10) return static_cast<char>('0' + dnn);
  if (dnn < 36) return static_cast<char>('a' + (dnn - 10));
  return '#';
}

}  // namespace

std::string render_gantt(const ExecutionTrace& trace) {
  OB_REQUIRE(!trace.events.empty(),
             "render_gantt: trace has no events (run simulate_traced with "
             "record_events = true)");

  const double t0 = trace.warmup_seconds;
  const double t1 = trace.horizon_seconds;
  OB_REQUIRE(t1 > t0, "render_gantt: empty time window");
  const double bucket = (t1 - t0) / static_cast<double>(kWidth);

  // Per component, per column: coverage per stream; dominant stream wins.
  std::string out;
  for (const device::ComponentId comp : device::kAllComponents) {
    std::string lane(kWidth, '.');
    std::vector<std::vector<std::pair<std::size_t, double>>> cover(
        kWidth);
    for (const TraceEvent& ev : trace.events) {
      if (ev.comp != comp) continue;
      const double start = std::max(ev.start, t0);
      const double end = std::min(ev.end, t1);
      if (end <= start) continue;
      const auto first = static_cast<std::size_t>((start - t0) / bucket);
      auto last = static_cast<std::size_t>((end - t0) / bucket);
      last = std::min(last, kWidth - 1);
      for (std::size_t col = first; col <= last; ++col) {
        const double col_start = t0 + static_cast<double>(col) * bucket;
        const double overlap = std::min(end, col_start + bucket) -
                               std::max(start, col_start);
        if (overlap <= 0.0) continue;
        auto& entries = cover[col];
        const auto it = std::find_if(entries.begin(), entries.end(),
                                     [&](const auto& e) {
                                       return e.first == ev.dnn;
                                     });
        if (it == entries.end()) {
          entries.emplace_back(ev.dnn, overlap);
        } else {
          it->second += overlap;
        }
      }
    }
    for (std::size_t col = 0; col < kWidth; ++col) {
      const auto& entries = cover[col];
      if (entries.empty()) continue;
      const auto best = std::max_element(
          entries.begin(), entries.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      lane[col] = stream_glyph(best->first);
    }

    std::string name(device::component_name(comp));
    name.resize(7, ' ');
    out += name + "|" + lane + "|\n";
  }
  return out;
}

}  // namespace omniboost::sim
