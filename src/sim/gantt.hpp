#pragma once
/// \file gantt.hpp
/// ASCII Gantt rendering of a recorded execution trace: one lane per
/// computing component, one character column per time bucket, stream index
/// as the glyph. Turns "the GPU is saturated and the CPUs idle" into
/// something a developer can see in a terminal.
///
///   GPU    |000011112222000011112222...|
///   big    |....1111........1111.......|
///   LITTLE |..........2222.............|

#include <string>

#include "sim/trace.hpp"

namespace omniboost::sim {

/// Renders the trace's recorded events over the measurement window (warm-up
/// excluded) on a 72-column time axis; requires simulate_traced(...,
/// record_events = true) and throws if the trace has no events. Streams are
/// drawn as '0'..'9' then 'a'..'z'; idle time as '.'. When several events
/// share a bucket the one covering most of it wins.
std::string render_gantt(const ExecutionTrace& trace);

}  // namespace omniboost::sim
