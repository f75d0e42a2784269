#include "workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/require.hpp"

namespace omniboost::workload {

void ScenarioValidator::step(const ScenarioEvent& e) {
  // Every check runs before any state changes, so a rejected event leaves
  // the validator exactly as it was.
  if (!std::isfinite(e.time_s) || e.time_s < 0.0)
    throw std::invalid_argument("Scenario: event time must be finite and >= 0");
  if (e.time_s < prev_time_s_)
    throw std::invalid_argument("Scenario: event times must be non-decreasing");
  if (!(e.slo_ms >= 0.0) || !std::isfinite(e.slo_ms))
    throw std::invalid_argument("Scenario: SLO must be finite and >= 0 ms");
  if (is_fault_event(e.kind)) {
    if (e.slo_ms != 0.0)
      throw std::invalid_argument("Scenario: fault events cannot carry an SLO");
    const auto fault =
        std::find_if(faulted_.begin(), faulted_.end(),
                     [&](const BoardFault& f) { return f.board == e.board; });
    const bool healthy = fault == faulted_.end();
    const bool failed = !healthy && fault->failed;
    switch (e.kind) {
      case ScenarioEventKind::kFailBoard:
        if (e.factor != 0.0)
          throw std::invalid_argument(
              "Scenario: only throttle events carry a factor");
        if (failed)
          throw std::invalid_argument("Scenario: board " +
                                      std::to_string(e.board) +
                                      " fails while already failed");
        if (healthy)
          faulted_.push_back({e.board, true});
        else
          fault->failed = true;
        break;
      case ScenarioEventKind::kThrottleBoard:
        if (!(e.factor > 0.0) || !(e.factor <= 1.0) || !std::isfinite(e.factor))
          throw std::invalid_argument(
              "Scenario: throttle factor must be in (0, 1]");
        if (failed)
          throw std::invalid_argument("Scenario: board " +
                                      std::to_string(e.board) +
                                      " throttles while failed");
        if (healthy) faulted_.push_back({e.board, false});
        break;
      default:  // kRecoverBoard
        if (e.factor != 0.0)
          throw std::invalid_argument(
              "Scenario: only throttle events carry a factor");
        if (healthy)
          throw std::invalid_argument("Scenario: board " +
                                      std::to_string(e.board) +
                                      " recovers while healthy");
        faulted_.erase(fault);
        break;
    }
    prev_time_s_ = e.time_s;
    return;  // fault events never touch the mix
  }
  if (e.board != 0 || e.factor != 0.0)
    throw std::invalid_argument(
        "Scenario: board/factor fields are fault-event-only");
  const auto it = std::find(present_.begin(), present_.end(), e.model);
  if (e.kind == ScenarioEventKind::kArrive) {
    if (it != present_.end())
      throw std::invalid_argument(
          "Scenario: model '" + std::string(models::model_name(e.model)) +
          "' arrives while already present");
    present_.push_back(e.model);
    slos_.push_back(e.slo_ms / 1e3);
  } else {
    if (e.slo_ms != 0.0)
      throw std::invalid_argument(
          "Scenario: departures cannot carry an SLO (model '" +
          std::string(models::model_name(e.model)) + "')");
    if (it == present_.end())
      throw std::invalid_argument(
          "Scenario: model '" + std::string(models::model_name(e.model)) +
          "' departs while absent");
    slos_.erase(slos_.begin() + (it - present_.begin()));
    present_.erase(it);
  }
  prev_time_s_ = e.time_s;
}

namespace {

/// A validator stepped through events [0, upto).
ScenarioValidator validate_prefix(const std::vector<ScenarioEvent>& events,
                                  std::size_t upto) {
  ScenarioValidator v;
  for (std::size_t i = 0; i < upto; ++i) v.step(events[i]);
  return v;
}

}  // namespace

Scenario::Scenario(std::vector<ScenarioEvent> events)
    : events_(std::move(events)) {
  validate_prefix(events_, events_.size());  // validation only
}

Workload Scenario::mix_after(std::size_t event_index) const {
  OB_REQUIRE(event_index < events_.size(),
             "Scenario::mix_after: event index out of range");
  return Workload{validate_prefix(events_, event_index + 1).present()};
}

std::vector<double> Scenario::slo_after(std::size_t event_index) const {
  OB_REQUIRE(event_index < events_.size(),
             "Scenario::slo_after: event index out of range");
  return validate_prefix(events_, event_index + 1).slos();
}

bool Scenario::has_slos() const {
  return std::any_of(events_.begin(), events_.end(),
                     [](const ScenarioEvent& e) { return e.slo_ms > 0.0; });
}

bool Scenario::has_faults() const {
  return std::any_of(events_.begin(), events_.end(), [](const ScenarioEvent& e) {
    return is_fault_event(e.kind);
  });
}

std::size_t Scenario::fault_board_span() const {
  std::size_t span = 0;
  for (const ScenarioEvent& e : events_)
    if (is_fault_event(e.kind)) span = std::max(span, e.board + 1);
  return span;
}

std::size_t Scenario::peak_concurrency() const {
  std::size_t present = 0, peak = 0;
  for (const ScenarioEvent& e : events_) {
    if (is_fault_event(e.kind)) continue;  // the mix is untouched
    if (e.kind == ScenarioEventKind::kArrive)
      peak = std::max(peak, ++present);
    else
      --present;
  }
  return peak;
}

std::string Scenario::describe() const {
  char buf[96];
  const double span = events_.empty() ? 0.0 : events_.back().time_s;
  std::snprintf(buf, sizeof(buf), "%zu events / %.1f s / peak %zu",
                events_.size(), span, peak_concurrency());
  return buf;
}

Scenario random_scenario(util::Rng& rng, const ScenarioConfig& config) {
  OB_REQUIRE(config.events >= 1, "random_scenario: need at least one event");
  OB_REQUIRE(config.min_concurrent >= 1,
             "random_scenario: min_concurrent must be >= 1");
  OB_REQUIRE(config.max_concurrent >= config.min_concurrent &&
                 config.max_concurrent <= models::kNumModels,
             "random_scenario: max_concurrent out of range");
  // A zero-width band freezes the mix once it fills: no model may depart
  // (floor) or arrive (ceiling), so only the filling arrivals are legal.
  OB_REQUIRE(config.max_concurrent > config.min_concurrent ||
                 config.events <= config.max_concurrent,
             "random_scenario: with min_concurrent == max_concurrent the mix "
             "freezes once full — request at most max_concurrent events or "
             "widen the band");
  OB_REQUIRE(config.slo_fraction >= 0.0 && config.slo_fraction <= 1.0,
             "random_scenario: slo_fraction must be a probability");
  OB_REQUIRE(config.depart_bias >= 0.0 && config.depart_bias <= 1.0,
             "random_scenario: depart_bias must be a probability");
  OB_REQUIRE(config.slo_fraction == 0.0 ||
                 (config.slo_min_ms > 0.0 &&
                  config.slo_min_ms <= config.slo_max_ms &&
                  std::isfinite(config.slo_max_ms)),
             "random_scenario: SLO band must satisfy 0 < slo_min_ms <= "
             "slo_max_ms");

  std::vector<ScenarioEvent> events;
  events.reserve(config.events);
  std::vector<models::ModelId> present;
  std::vector<models::ModelId> absent(models::kAllModels.begin(),
                                      models::kAllModels.end());
  double t = 0.0;
  for (std::size_t i = 0; i < config.events; ++i) {
    // A departure is legal only above the concurrency floor; an arrival only
    // below the ceiling (the absent pool can never run dry below it).
    const bool can_depart = present.size() > config.min_concurrent;
    const bool can_arrive = present.size() < config.max_concurrent;
    OB_ENSURE(can_depart || can_arrive, "random_scenario: dead config");
    const bool depart = can_depart &&
                        (!can_arrive || rng.chance(config.depart_bias));

    ScenarioEvent e;
    e.time_s = t;
    if (depart) {
      const std::size_t pick = rng.below(present.size());
      e.kind = ScenarioEventKind::kDepart;
      e.model = present[pick];
      present.erase(present.begin() + static_cast<std::ptrdiff_t>(pick));
      absent.push_back(e.model);
    } else {
      const std::size_t pick = rng.below(absent.size());
      e.kind = ScenarioEventKind::kArrive;
      e.model = absent[pick];
      present.push_back(e.model);
      absent.erase(absent.begin() + static_cast<std::ptrdiff_t>(pick));
      // SLO band draw, guarded so slo_fraction == 0 consumes NO Rng values
      // and the pre-SLO draw sequence stays bit-identical.
      if (config.slo_fraction > 0.0 && rng.chance(config.slo_fraction))
        e.slo_ms = rng.uniform(config.slo_min_ms, config.slo_max_ms);
    }
    events.push_back(e);
    // Exponential gap to the next event (inverse-CDF; uniform() < 1 always).
    t += config.mean_interarrival_s * -std::log1p(-rng.uniform());
  }
  return Scenario(std::move(events));
}

ScenarioEvent parse_event_clause(const std::string& clause, double time_s) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument(why);
  };
  std::istringstream ls(clause);
  ScenarioEvent e;
  e.time_s = time_s;
  std::string kind, model, word;
  if (!(ls >> kind >> model)) fail("missing event kind or model name");
  if (kind == "fail" || kind == "throttle" || kind == "recover") {
    e.kind = kind == "fail"       ? ScenarioEventKind::kFailBoard
             : kind == "throttle" ? ScenarioEventKind::kThrottleBoard
                                  : ScenarioEventKind::kRecoverBoard;
    if (model != "board")
      fail("expected 'board <index>' after '" + kind + "'");
    long long board = -1;
    if (!(ls >> board) || board < 0) fail("'board' needs an index >= 0");
    e.board = static_cast<std::size_t>(board);
    if (e.kind == ScenarioEventKind::kThrottleBoard &&
        (!(ls >> e.factor) || !(e.factor > 0.0) || !(e.factor <= 1.0) ||
         !std::isfinite(e.factor)))
      fail("'throttle' needs a factor in (0, 1]");
    if (ls >> word && word[0] != '#')
      fail("trailing tokens after fault clause");
    return e;
  }
  if (kind == "arrive")
    e.kind = ScenarioEventKind::kArrive;
  else if (kind == "depart")
    e.kind = ScenarioEventKind::kDepart;
  else
    fail("unknown event kind '" + kind + "'");
  if (!models::parse_model_name(model, e.model))
    fail("unknown model '" + model + "'");
  if (ls >> word && word[0] != '#') {
    if (word != "slo") fail("trailing tokens after model name");
    if (e.kind != ScenarioEventKind::kArrive)
      fail("'slo' is only legal on arrive events");
    if (!(ls >> e.slo_ms) || !(e.slo_ms > 0.0) || !std::isfinite(e.slo_ms))
      fail("'slo' needs a finite value > 0 (milliseconds)");
    if (ls >> word && word[0] != '#') fail("trailing tokens after SLO");
  }
  return e;
}

std::string serialize_event_clause(const ScenarioEvent& e) {
  char buf[64];
  std::string out;
  if (is_fault_event(e.kind)) {
    out += e.kind == ScenarioEventKind::kFailBoard       ? "fail board "
           : e.kind == ScenarioEventKind::kThrottleBoard ? "throttle board "
                                                         : "recover board ";
    out += std::to_string(e.board);
    if (e.kind == ScenarioEventKind::kThrottleBoard) {
      std::snprintf(buf, sizeof(buf), "%.17g", e.factor);
      out += ' ';
      out += buf;
    }
    return out;
  }
  out += e.kind == ScenarioEventKind::kArrive ? "arrive " : "depart ";
  out += std::string(models::model_name(e.model));
  if (e.slo_ms > 0.0) {
    std::snprintf(buf, sizeof(buf), "%.17g", e.slo_ms);
    out += " slo ";
    out += buf;
  }
  return out;
}

std::string serialize_scenario(const Scenario& scenario) {
  std::string out = "# omniboost scenario trace v1\n";
  char buf[64];
  for (const ScenarioEvent& e : scenario.events()) {
    std::snprintf(buf, sizeof(buf), "%.17g", e.time_s);
    out += "at ";
    out += buf;
    out += ' ';
    out += serialize_event_clause(e);
    out += '\n';
  }
  return out;
}

Scenario parse_scenario(std::istream& in) {
  std::vector<ScenarioEvent> events;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto fail = [&](const std::string& why) {
      throw std::invalid_argument("scenario trace line " +
                                  std::to_string(line_no) + ": " + why);
    };
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;  // blank or comment
    if (word != "at") fail("expected 'at <time> <arrive|depart> <model>'");
    double time_s = 0.0;
    if (!(ls >> time_s)) fail("missing or malformed timestamp");
    std::string clause;
    std::getline(ls, clause);  // the event body; parsed by the shared grammar
    try {
      events.push_back(parse_event_clause(clause, time_s));
    } catch (const std::invalid_argument& err) {
      fail(err.what());
    }
  }
  return Scenario(std::move(events));
}

Scenario parse_scenario(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open scenario trace: " + path);
  return parse_scenario(in);
}

void save_scenario_file(const Scenario& scenario, const std::string& path) {
  std::ofstream out(path);
  out << serialize_scenario(scenario);
  out.flush();
  if (!out)
    throw std::invalid_argument("cannot write scenario trace: " + path);
}

}  // namespace omniboost::workload
