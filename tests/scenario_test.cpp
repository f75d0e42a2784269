// workload::Scenario: generator determinism under fork_stream, generator
// invariants, trace round-trips, validation errors, mix replay, and the
// stepwise ScenarioValidator agreeing with the constructor.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "workload/faults.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using workload::Scenario;
using workload::ScenarioConfig;
using workload::ScenarioEvent;
using workload::ScenarioEventKind;

TEST(ScenarioGenerator, DeterministicUnderForkStream) {
  ScenarioConfig cfg;
  cfg.events = 20;
  cfg.max_concurrent = 5;
  for (std::uint64_t index : {0ull, 3ull, 17ull}) {
    util::Rng a(util::fork_stream(99, index));
    util::Rng b(util::fork_stream(99, index));
    EXPECT_EQ(workload::random_scenario(a, cfg),
              workload::random_scenario(b, cfg))
        << "stream " << index;
  }
  // Distinct stream indices give distinct scenarios.
  util::Rng s0(util::fork_stream(99, 0));
  util::Rng s1(util::fork_stream(99, 1));
  EXPECT_NE(workload::random_scenario(s0, cfg),
            workload::random_scenario(s1, cfg));
}

TEST(ScenarioGenerator, RespectsConcurrencyBandAndLegality) {
  ScenarioConfig cfg;
  cfg.events = 40;
  cfg.min_concurrent = 2;
  cfg.max_concurrent = 4;
  cfg.depart_bias = 0.5;
  util::Rng rng(7);
  const Scenario s = workload::random_scenario(rng, cfg);
  ASSERT_EQ(s.size(), 40u);
  EXPECT_EQ(s.events().front().time_s, 0.0);
  EXPECT_EQ(s.events().front().kind, ScenarioEventKind::kArrive);

  std::set<ModelId> present;
  double prev_t = 0.0;
  for (const ScenarioEvent& e : s.events()) {
    EXPECT_GE(e.time_s, prev_t);
    prev_t = e.time_s;
    if (e.kind == ScenarioEventKind::kArrive) {
      EXPECT_TRUE(present.insert(e.model).second);  // was absent
      EXPECT_LE(present.size(), cfg.max_concurrent);
    } else {
      EXPECT_EQ(present.erase(e.model), 1u);  // was present
      EXPECT_GE(present.size(), cfg.min_concurrent);
    }
  }
  EXPECT_LE(s.peak_concurrency(), cfg.max_concurrent);
}

TEST(ScenarioGenerator, RejectsZeroWidthBandThatWouldFreeze) {
  ScenarioConfig cfg;
  cfg.min_concurrent = 2;
  cfg.max_concurrent = 2;
  cfg.events = 6;  // more events than the band can ever legally produce
  util::Rng rng(1);
  EXPECT_THROW(workload::random_scenario(rng, cfg), std::invalid_argument);
  // Filling the band exactly is fine: two arrivals, then stop.
  cfg.events = 2;
  const Scenario s = workload::random_scenario(rng, cfg);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.peak_concurrency(), 2u);
}

TEST(ScenarioTrace, RoundTripsBitExactly) {
  ScenarioConfig cfg;
  cfg.events = 25;
  cfg.max_concurrent = 5;
  cfg.depart_bias = 0.5;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    util::Rng rng(seed);
    const Scenario original = workload::random_scenario(rng, cfg);
    const std::string trace = workload::serialize_scenario(original);
    const Scenario parsed = workload::parse_scenario(trace);
    EXPECT_EQ(original, parsed) << "seed " << seed;
    // Idempotent: serializing the parse reproduces the text.
    EXPECT_EQ(trace, workload::serialize_scenario(parsed));
  }
}

TEST(ScenarioTrace, ParsesCommentsBlanksAndNameVariants) {
  const Scenario s = workload::parse_scenario(
      "# a comment\n"
      "\n"
      "at 0 arrive vgg19\n"
      "at 1.5 arrive AlexNet\n"
      "at 2.25 depart VGG-19\n");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].model, ModelId::kVgg19);
  EXPECT_EQ(s.events()[1].time_s, 1.5);
  EXPECT_EQ(s.events()[2].kind, ScenarioEventKind::kDepart);
}

TEST(ScenarioTrace, RejectsMalformedLines) {
  EXPECT_THROW(workload::parse_scenario("arrive 0 AlexNet\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at x arrive AlexNet\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 vanish AlexNet\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive NotANet\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet extra\n"),
               std::invalid_argument);
}

TEST(ScenarioValidation, RejectsIllegalEventSequences) {
  const auto arrive = [](double t, ModelId m) {
    return ScenarioEvent{t, ScenarioEventKind::kArrive, m};
  };
  const auto depart = [](double t, ModelId m) {
    return ScenarioEvent{t, ScenarioEventKind::kDepart, m};
  };
  // Double arrival.
  EXPECT_THROW(Scenario({arrive(0, ModelId::kAlexNet),
                         arrive(1, ModelId::kAlexNet)}),
               std::invalid_argument);
  // Departure of an absent model.
  EXPECT_THROW(Scenario({arrive(0, ModelId::kAlexNet),
                         depart(1, ModelId::kVgg16)}),
               std::invalid_argument);
  // Time going backwards.
  EXPECT_THROW(Scenario({arrive(1, ModelId::kAlexNet),
                         arrive(0.5, ModelId::kVgg16)}),
               std::invalid_argument);
  // Negative time.
  EXPECT_THROW(Scenario({arrive(-1, ModelId::kAlexNet)}),
               std::invalid_argument);
}

TEST(ScenarioTrace, SloClauseRoundTripsBitExactly) {
  // Awkward mantissas on purpose: the %.17g contract must hold for SLO
  // values exactly as it does for timestamps.
  const Scenario s = workload::parse_scenario(
      "at 0 arrive VGG-19 slo 123.45678901234567\n"
      "at 1.5 arrive AlexNet\n"
      "at 2.25 depart VGG-19\n"
      "at 3 arrive MobileNet slo 80\n");
  EXPECT_EQ(s.events()[0].slo_ms, 123.45678901234567);
  EXPECT_EQ(s.events()[1].slo_ms, 0.0);
  EXPECT_EQ(s.events()[3].slo_ms, 80.0);
  const std::string trace = workload::serialize_scenario(s);
  EXPECT_EQ(s, workload::parse_scenario(trace));
  EXPECT_EQ(trace, workload::serialize_scenario(workload::parse_scenario(trace)));
  // Events without an SLO serialize with no `slo` clause at all, keeping the
  // pre-SLO v1 format byte-identical.
  EXPECT_NE(trace.find("at 1.5 arrive AlexNet\n"), std::string::npos);
}

TEST(ScenarioTrace, RejectsMalformedSloClauses) {
  // SLO on a departure.
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet\n"
                                        "at 1 depart AlexNet slo 50\n"),
               std::invalid_argument);
  // Missing, non-positive, non-finite, or non-numeric values.
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo 0\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo -5\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo inf\n"),
               std::invalid_argument);
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo fast\n"),
               std::invalid_argument);
  // Trailing garbage after the clause.
  EXPECT_THROW(workload::parse_scenario("at 0 arrive AlexNet slo 50 x\n"),
               std::invalid_argument);
  // Constructor-level: a hand-built departure carrying an SLO.
  ScenarioEvent depart{1.0, ScenarioEventKind::kDepart, ModelId::kAlexNet};
  depart.slo_ms = 50.0;
  EXPECT_THROW(
      Scenario({ScenarioEvent{0.0, ScenarioEventKind::kArrive,
                              ModelId::kAlexNet},
                depart}),
      std::invalid_argument);
}

TEST(ScenarioGenerator, DefaultConfigDrawSequenceIsPinned) {
  // The pre-SLO bit-compat pin: with slo_fraction = 0 (the default) the
  // generator must consume exactly the pre-SLO Rng draw sequence, so seeded
  // sweeps (bench_serving_scenarios and friends) reproduce their scenarios
  // byte-for-byte across this feature. Golden captured at the pre-SLO
  // behaviour; if this fails, a draw was added to the default path.
  util::Rng rng(util::fork_stream(2023, 1));
  workload::ScenarioConfig cfg;
  cfg.events = 6;
  const Scenario s = workload::random_scenario(rng, cfg);
  EXPECT_EQ(workload::serialize_scenario(s),
            "# omniboost scenario trace v1\n"
            "at 0 arrive VGG-13\n"
            "at 1.6472420584204153 arrive SqueezeNet\n"
            "at 5.2390537032880946 arrive Inception-v3\n"
            "at 7.2395215464577687 arrive ResNet-34\n"
            "at 8.9880335708869978 depart Inception-v3\n"
            "at 9.4074704094598953 arrive ResNet-101\n");
  EXPECT_FALSE(s.has_slos());
}

TEST(ScenarioGenerator, SloBandAttachesSlosToArrivalsOnly) {
  workload::ScenarioConfig cfg;
  cfg.events = 30;
  cfg.max_concurrent = 5;
  cfg.depart_bias = 0.5;
  cfg.slo_fraction = 1.0;
  cfg.slo_min_ms = 40.0;
  cfg.slo_max_ms = 90.0;
  util::Rng rng(11);
  const Scenario s = workload::random_scenario(rng, cfg);
  EXPECT_TRUE(s.has_slos());
  for (const ScenarioEvent& e : s.events()) {
    if (e.kind == ScenarioEventKind::kArrive) {
      EXPECT_GE(e.slo_ms, cfg.slo_min_ms);
      EXPECT_LT(e.slo_ms, cfg.slo_max_ms);
    } else {
      EXPECT_EQ(e.slo_ms, 0.0);
    }
  }
  // Band validation: a zero/inverted band is rejected when draws are asked.
  workload::ScenarioConfig bad = cfg;
  bad.slo_min_ms = 100.0;
  bad.slo_max_ms = 50.0;
  util::Rng rng2(11);
  EXPECT_THROW(workload::random_scenario(rng2, bad), std::invalid_argument);
}

TEST(ScenarioReplay, SloAfterTracksStreamsAndResetsOnReArrival) {
  const Scenario s = workload::parse_scenario(
      "at 0 arrive VGG-19 slo 200\n"
      "at 1 arrive AlexNet slo 90\n"
      "at 2 depart VGG-19\n"
      "at 3 arrive VGG-19\n");  // re-arrival WITHOUT an SLO
  ASSERT_EQ(s.slo_after(1).size(), 2u);
  EXPECT_DOUBLE_EQ(s.slo_after(1)[0], 0.200);  // seconds
  EXPECT_DOUBLE_EQ(s.slo_after(1)[1], 0.090);
  // After the departure only AlexNet's SLO remains, index-aligned with the
  // mix; the re-arrived VGG-19 serves unconstrained (no stale SLO).
  ASSERT_EQ(s.slo_after(3).size(), 2u);
  EXPECT_EQ(s.mix_after(3).mix[1], ModelId::kVgg19);
  EXPECT_DOUBLE_EQ(s.slo_after(3)[0], 0.090);
  EXPECT_DOUBLE_EQ(s.slo_after(3)[1], 0.0);
}

// --- Fault clauses -------------------------------------------------------

TEST(ScenarioTrace, FaultClausesRoundTripBitExactly) {
  // Awkward mantissa on the throttle factor: the %.17g contract must hold
  // for fault clauses exactly as it does for timestamps and SLOs.
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 fail board 2\n"
      "at 2.5 throttle board 0 0.34567890123456789\n"
      "at 3 recover board 2\n"
      "at 4 recover board 0\n"
      "at 5 depart AlexNet\n");
  ASSERT_EQ(s.size(), 6u);
  EXPECT_TRUE(s.has_faults());
  EXPECT_EQ(s.fault_board_span(), 3u);  // max board index 2 -> span 3
  EXPECT_EQ(s.events()[1].kind, ScenarioEventKind::kFailBoard);
  EXPECT_EQ(s.events()[1].board, 2u);
  EXPECT_EQ(s.events()[1].factor, 0.0);
  EXPECT_EQ(s.events()[2].kind, ScenarioEventKind::kThrottleBoard);
  EXPECT_EQ(s.events()[2].board, 0u);
  EXPECT_EQ(s.events()[2].factor, 0.34567890123456789);
  EXPECT_EQ(s.events()[4].kind, ScenarioEventKind::kRecoverBoard);
  const std::string trace = workload::serialize_scenario(s);
  EXPECT_EQ(s, workload::parse_scenario(trace));
  EXPECT_EQ(trace,
            workload::serialize_scenario(workload::parse_scenario(trace)));
  // Fault events are invisible to the served mix and its concurrency.
  EXPECT_EQ(s.peak_concurrency(), 1u);
  EXPECT_EQ(s.mix_after(3).describe(), "AlexNet");
  // A fault-free trace reports no faults and zero span.
  const Scenario plain = workload::parse_scenario("at 0 arrive AlexNet\n");
  EXPECT_FALSE(plain.has_faults());
  EXPECT_EQ(plain.fault_board_span(), 0u);
}

TEST(ScenarioTrace, RejectsMalformedFaultLines) {
  const char* corpus[] = {
      "at 0 fail board\n",             // missing index
      "at 0 fail 1\n",                 // missing the literal `board`
      "at 0 fail board -1\n",          // negative index
      "at 0 fail board x\n",           // non-numeric index
      "at 0 fail board 1 extra\n",     // trailing garbage
      "at 0 fail board 1 slo 5\n",     // faults carry no SLO
      "at 0 throttle board 1\n",       // throttle without a factor
      "at 0 throttle board 1 0\n",     // factor must be > 0
      "at 0 throttle board 1 -0.5\n",  // negative factor
      "at 0 throttle board 1 1.5\n",   // factor above 1
      "at 0 throttle board 1 inf\n",   // non-finite factor
      "at 0 throttle board 1 nan\n",   // non-finite factor
      "at 0 throttle board 1 fast\n",  // non-numeric factor
      "at 0 recover board 1 0.5\n",    // recover carries no factor
      "at 0 recover board 1\n",        // recover while healthy
      "at 0 fail board 1\nat 1 fail board 1\n",      // double fail
      "at 0 fail board 1\nat 1 throttle board 1 0.5\n",  // throttle a corpse
  };
  for (const char* text : corpus)
    EXPECT_THROW(workload::parse_scenario(std::string(text)),
                 std::invalid_argument)
        << text;
}

TEST(ScenarioValidation, RejectsIllegalFaultEventFields) {
  const auto fault = [](double t, ScenarioEventKind kind, std::size_t board) {
    ScenarioEvent e{t, kind, ModelId::kAlexNet};
    e.board = board;
    return e;
  };
  // A hand-built throttle with an out-of-range factor.
  ScenarioEvent hot = fault(0.0, ScenarioEventKind::kThrottleBoard, 0);
  hot.factor = 2.0;
  EXPECT_THROW(Scenario({hot}), std::invalid_argument);
  // A fail event smuggling a throttle factor.
  ScenarioEvent dead = fault(0.0, ScenarioEventKind::kFailBoard, 0);
  dead.factor = 0.5;
  EXPECT_THROW(Scenario({dead}), std::invalid_argument);
  // A fault event smuggling an SLO.
  ScenarioEvent slo = fault(0.0, ScenarioEventKind::kFailBoard, 0);
  slo.slo_ms = 50.0;
  EXPECT_THROW(Scenario({slo}), std::invalid_argument);
  // A mix event smuggling fault fields.
  ScenarioEvent arrive{0.0, ScenarioEventKind::kArrive, ModelId::kAlexNet};
  arrive.board = 1;
  EXPECT_THROW(Scenario({arrive}), std::invalid_argument);
  arrive.board = 0;
  arrive.factor = 0.5;
  EXPECT_THROW(Scenario({arrive}), std::invalid_argument);
  // Legal: fail then recover then fail again on the same board.
  EXPECT_NO_THROW(Scenario({fault(0, ScenarioEventKind::kFailBoard, 0),
                            fault(1, ScenarioEventKind::kRecoverBoard, 0),
                            fault(2, ScenarioEventKind::kFailBoard, 0)}));
}

// --- Fault process generator ---------------------------------------------

TEST(FaultProcess, SampleIsDeterministicAndPerBoardSubstreamIndependent) {
  workload::FaultProcess p;
  p.mtbf_s = 10.0;
  p.mttr_s = 4.0;
  p.throttle_fraction = 0.5;
  const auto a = workload::sample_fault_events(p, 3, 200.0, 77);
  const auto b = workload::sample_fault_events(p, 3, 200.0, 77);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  // Substream independence: board 1's history in a 2-board draw is
  // bit-identical to its history in a 3-board draw of the same seed.
  const auto two = workload::sample_fault_events(p, 2, 200.0, 77);
  const auto board1 = [](const std::vector<ScenarioEvent>& events) {
    std::vector<ScenarioEvent> out;
    for (const ScenarioEvent& e : events)
      if (e.board == 1) out.push_back(e);
    return out;
  };
  EXPECT_EQ(board1(a), board1(two));
  // Every drawn event is a fault event with a legal board and time.
  double prev_t = 0.0;
  for (const ScenarioEvent& e : a) {
    EXPECT_TRUE(workload::is_fault_event(e.kind));
    EXPECT_LT(e.board, 3u);
    EXPECT_GE(e.time_s, prev_t);
    EXPECT_LE(e.time_s, 200.0);
    prev_t = e.time_s;
  }
}

TEST(FaultProcess, WithFaultsWeavesAValidScenarioAndNoFaultsIsIdentity) {
  workload::ScenarioConfig cfg;
  cfg.events = 20;
  cfg.max_concurrent = 4;
  cfg.depart_bias = 0.5;
  util::Rng rng(5);
  const Scenario base = workload::random_scenario(rng, cfg);

  workload::FaultProcess p;
  p.mtbf_s = 3.0;
  p.mttr_s = 2.0;
  const Scenario faulted = workload::with_faults(base, p, 3, 13);
  EXPECT_TRUE(faulted.has_faults());
  EXPECT_GT(faulted.size(), base.size());
  // The arrive/depart stream is untouched by the weave.
  std::vector<ScenarioEvent> mix_events;
  for (const ScenarioEvent& e : faulted.events())
    if (!workload::is_fault_event(e.kind)) mix_events.push_back(e);
  ASSERT_EQ(mix_events.size(), base.size());
  for (std::size_t i = 0; i < mix_events.size(); ++i)
    EXPECT_EQ(mix_events[i], base.events()[i]) << "event " << i;
  // The woven trace round-trips bit-exactly like any other.
  const std::string trace = workload::serialize_scenario(faulted);
  EXPECT_EQ(faulted, workload::parse_scenario(trace));
  // An (astronomically) fault-free process returns the base unchanged.
  workload::FaultProcess calm;
  calm.mtbf_s = 1e12;
  const Scenario same = workload::with_faults(base, calm, 3, 13);
  EXPECT_EQ(same, base);
  EXPECT_FALSE(same.has_faults());
}

TEST(FaultProcess, ValidatesParametersAndSpecGrammar) {
  const auto bad = [](auto mutate) {
    workload::FaultProcess p;
    mutate(p);
    EXPECT_THROW(workload::sample_fault_events(p, 1, 10.0, 0),
                 std::invalid_argument);
  };
  bad([](workload::FaultProcess& p) { p.mtbf_s = 0.0; });
  bad([](workload::FaultProcess& p) { p.mtbf_s = -1.0; });
  bad([](workload::FaultProcess& p) {
    p.mttr_s = std::numeric_limits<double>::infinity();
  });
  bad([](workload::FaultProcess& p) { p.throttle_fraction = 1.5; });
  // The band is validated only when throttles can actually be drawn
  // (throttle_fraction > 0); fail-only processes ignore it by contract.
  const auto bad_band = [&bad](auto mutate) {
    bad([mutate](workload::FaultProcess& p) {
      p.throttle_fraction = 0.5;
      mutate(p);
    });
  };
  bad_band([](workload::FaultProcess& p) { p.throttle_min = 0.0; });
  bad_band([](workload::FaultProcess& p) {
    p.throttle_min = 0.9;
    p.throttle_max = 0.5;
  });
  bad_band([](workload::FaultProcess& p) { p.throttle_max = 1.5; });
  // ...and a fail-only process with a nonsense band samples fine.
  workload::FaultProcess lax;
  lax.throttle_min = 0.0;
  EXPECT_NO_THROW(workload::sample_fault_events(lax, 1, 10.0, 0));

  const workload::FaultProcess p =
      workload::parse_fault_spec("mtbf:30:mttr:5:throttle:0.4:0.2:0.6");
  EXPECT_EQ(p.mtbf_s, 30.0);
  EXPECT_EQ(p.mttr_s, 5.0);
  EXPECT_EQ(p.throttle_fraction, 0.4);
  EXPECT_EQ(p.throttle_min, 0.2);
  EXPECT_EQ(p.throttle_max, 0.6);
  EXPECT_EQ(workload::parse_fault_spec("mtbf:30:mttr:5").throttle_fraction,
            0.0);
  for (const char* spec :
       {"", "mtbf:30", "mttr:5:mtbf:30", "mtbf:x:mttr:5", "mtbf:30:mttr:5:x",
        "mtbf:30:mttr:5:throttle", "mtbf:30:mttr:5:throttle:0.4:0.2",
        "mtbf:-1:mttr:5", "mtbf:30:mttr:5:throttle:2"})
    EXPECT_THROW(workload::parse_fault_spec(spec), std::invalid_argument)
        << spec;
}

// --- Fuzz/property layer -------------------------------------------------
// Random traces must round-trip the text format bit-exactly, and arbitrary
// corruption of a valid trace must either still parse (benign mutation) or
// throw std::invalid_argument — never crash, never escape another type.

/// A randomized-but-legal generator config; roughly half the draws carry an
/// SLO band so both trace grammars are fuzzed.
workload::ScenarioConfig fuzz_config(util::Rng& rng) {
  workload::ScenarioConfig cfg;
  cfg.max_concurrent = 1 + rng.below(models::kNumModels);
  cfg.min_concurrent = 1 + rng.below(cfg.max_concurrent);
  cfg.events = 1 + rng.below(40);
  if (cfg.min_concurrent == cfg.max_concurrent)
    cfg.events = 1 + rng.below(cfg.max_concurrent);  // avoid the frozen band
  cfg.depart_bias = rng.uniform(0.05, 0.95);
  cfg.mean_interarrival_s = rng.uniform(0.01, 5.0);
  if (rng.chance(0.5)) {
    cfg.slo_fraction = rng.uniform(0.1, 1.0);
    cfg.slo_min_ms = rng.uniform(1.0, 100.0);
    cfg.slo_max_ms = cfg.slo_min_ms + rng.uniform(0.0, 900.0);
  }
  return cfg;
}

TEST(ScenarioFuzz, RandomTracesRoundTripBitExactly) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    util::Rng rng(util::fork_stream(9001, i));
    Scenario original = workload::random_scenario(rng, fuzz_config(rng));
    // Half the draws get a fault process woven in, so the fault grammar is
    // fuzzed round-trip alongside the arrive/depart/slo grammar.
    if (!original.empty() && rng.chance(0.5)) {
      workload::FaultProcess p;
      p.mtbf_s = rng.uniform(0.5, 10.0);
      p.mttr_s = rng.uniform(0.5, 5.0);
      p.throttle_fraction = rng.uniform(0.0, 1.0);
      original = workload::with_faults(original, p, 1 + rng.below(4), i);
    }
    const std::string text = workload::serialize_scenario(original);
    const Scenario parsed = workload::parse_scenario(text);

    ASSERT_EQ(parsed.size(), original.size()) << "iteration " << i;
    for (std::size_t k = 0; k < original.size(); ++k) {
      const ScenarioEvent& a = original.events()[k];
      const ScenarioEvent& b = parsed.events()[k];
      EXPECT_EQ(a.time_s, b.time_s) << "iteration " << i << " event " << k;
      EXPECT_EQ(a.kind, b.kind) << "iteration " << i << " event " << k;
      EXPECT_EQ(a.model, b.model) << "iteration " << i << " event " << k;
      EXPECT_EQ(a.slo_ms, b.slo_ms) << "iteration " << i << " event " << k;
      EXPECT_EQ(a.board, b.board) << "iteration " << i << " event " << k;
      EXPECT_EQ(a.factor, b.factor) << "iteration " << i << " event " << k;
    }
    // And the text itself is a fixed point of serialize∘parse.
    EXPECT_EQ(workload::serialize_scenario(parsed), text) << "iteration " << i;
  }
}

TEST(ScenarioFuzz, MutatedTracesThrowInvalidArgumentOrStillRoundTrip) {
  // Seed corpus: one plain and one SLO-carrying trace.
  const std::string corpus[] = {
      "# omniboost scenario trace v1\n"
      "at 0 arrive AlexNet\n"
      "at 1.5 arrive VGG-19\n"
      "at 2.25 depart AlexNet\n"
      "at 4 arrive ResNet-50\n"
      "at 8 depart VGG-19\n",
      "at 0 arrive AlexNet slo 120.5\n"
      "at 3 arrive MobileNet\n"
      "at 5.5 depart AlexNet\n"
      "at 7 arrive SqueezeNet slo 80\n",
      "at 0 arrive AlexNet\n"
      "at 1 fail board 1\n"
      "at 2 throttle board 0 0.5\n"
      "at 3.5 recover board 1\n"
      "at 4 recover board 0\n"
      "at 6 depart AlexNet\n",
  };
  const char charset[] = "at 0123456789.eE+-arivdepsloNVGRM#\nxfhbc";
  std::size_t rejected = 0, survived = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    util::Rng rng(util::fork_stream(9002, i));
    std::string text = corpus[rng.below(3)];
    // 1-4 independent byte-level mutations: overwrite, insert, or erase.
    const std::size_t mutations = 1 + rng.below(4);
    for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = rng.below(text.size());
      switch (rng.below(3)) {
        case 0:
          text[pos] = charset[rng.below(sizeof(charset) - 1)];
          break;
        case 1:
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                      charset[rng.below(sizeof(charset) - 1)]);
          break;
        default:
          text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
      }
    }
    try {
      const Scenario s = workload::parse_scenario(text);
      // A benign mutation must leave a trace that still round-trips.
      const std::string canon = workload::serialize_scenario(s);
      EXPECT_EQ(workload::serialize_scenario(workload::parse_scenario(canon)),
                canon)
          << "iteration " << i;
      ++survived;
    } catch (const std::invalid_argument&) {
      ++rejected;  // the only legal rejection channel
    }
    // Anything else (std::bad_alloc aside) propagates and fails the test.
  }
  // The mutator must actually exercise both paths to mean anything.
  EXPECT_GT(rejected, 50u);
  EXPECT_GT(survived, 10u);
}

TEST(ScenarioFuzz, MalformedAndNonFiniteCorpusAlwaysThrows) {
  const char* corpus[] = {
      "at inf arrive AlexNet\n",
      "at nan arrive AlexNet\n",
      "at -inf arrive AlexNet\n",
      "at 1e999 arrive AlexNet\n",
      "at -0.5 arrive AlexNet\n",
      "at 5 arrive AlexNet\nat 1 depart AlexNet\n",  // time travel
      "at 0 arrive AlexNet slo inf\n",
      "at 0 arrive AlexNet slo nan\n",
      "at 0 arrive AlexNet slo 1e999\n",
      "at 0 arrive AlexNet slo -3\n",
      "at 0 arrive AlexNet slo\n",
      "at 0 depart AlexNet slo 5\n",
      "at 0 arrive AlexNet extra\n",
      "at 0 arrive AlexNet slo 5 extra\n",
      "at 0 arrive\n",
      "at 0 arrive NoSuchNet\n",
      "at 0 sashay AlexNet\n",
      "att 0 arrive AlexNet\n",
      "at zero arrive AlexNet\n",
      "at 0 arrive AlexNet\nat 1 arrive AlexNet\n",   // double arrive
      "at 0 depart AlexNet\n",                        // depart while absent
  };
  for (const char* text : corpus)
    EXPECT_THROW(workload::parse_scenario(std::string(text)),
                 std::invalid_argument)
        << text;

  // The constructor path enforces the same finiteness rules as the parser:
  // hand-built events cannot smuggle in inf/NaN timestamps or SLOs.
  ScenarioEvent inf_time{std::numeric_limits<double>::infinity(),
                         ScenarioEventKind::kArrive, ModelId::kAlexNet};
  EXPECT_THROW(Scenario({inf_time}), std::invalid_argument);
  ScenarioEvent nan_time{std::numeric_limits<double>::quiet_NaN(),
                         ScenarioEventKind::kArrive, ModelId::kAlexNet};
  EXPECT_THROW(Scenario({nan_time}), std::invalid_argument);
  ScenarioEvent inf_slo{0.0, ScenarioEventKind::kArrive, ModelId::kAlexNet};
  inf_slo.slo_ms = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Scenario({inf_slo}), std::invalid_argument);
}

TEST(ScenarioReplay, MixAfterTracksArrivalOrderAndDepartures) {
  const Scenario s = workload::parse_scenario(
      "at 0 arrive VGG-19\n"
      "at 1 arrive AlexNet\n"
      "at 2 arrive MobileNet\n"
      "at 3 depart VGG-19\n"
      "at 4 depart AlexNet\n"
      "at 5 depart MobileNet\n");
  EXPECT_EQ(s.mix_after(2).describe(), "VGG-19+AlexNet+MobileNet");
  EXPECT_EQ(s.mix_after(3).describe(), "AlexNet+MobileNet");
  EXPECT_EQ(s.mix_after(5).size(), 0u);  // fully drained
  EXPECT_EQ(s.peak_concurrency(), 3u);
}

// --- ScenarioValidator: the stepwise form of the constructor's rules ------

/// "" when the constructor accepts \p events, else its what() text.
std::string constructor_verdict(const std::vector<ScenarioEvent>& events) {
  try {
    Scenario s(events);
  } catch (const std::invalid_argument& err) {
    return err.what();
  }
  return "";
}

/// Steps a ScenarioValidator through \p events and checks it against the
/// Scenario constructor: the first rejected step throws exactly the
/// constructor's text, a rejected step leaves present()/slos() unchanged,
/// and every accepted prefix matches mix_after/slo_after. Rejected events
/// are skipped; the events the validator kept must form a valid Scenario
/// whose final mix is the validator's, so a rejection leaves no hidden
/// state (clock, board health) behind either.
void expect_validator_agrees(const std::vector<ScenarioEvent>& events,
                             const std::string& label) {
  SCOPED_TRACE(label);
  const std::string verdict = constructor_verdict(events);
  workload::ScenarioValidator v;
  std::vector<ScenarioEvent> kept;
  std::string first_error;
  bool rejected = false;
  for (const ScenarioEvent& e : events) {
    const std::vector<ModelId> present = v.present();
    const std::vector<double> slos = v.slos();
    try {
      v.step(e);
      kept.push_back(e);
    } catch (const std::invalid_argument& err) {
      if (!rejected) first_error = err.what();
      rejected = true;
      EXPECT_EQ(v.present(), present);
      EXPECT_EQ(v.slos(), slos);
    }
  }
  EXPECT_EQ(first_error, verdict);
  if (!rejected) {
    const Scenario s(events);
    workload::ScenarioValidator again;
    for (std::size_t i = 0; i < events.size(); ++i) {
      again.step(events[i]);
      EXPECT_EQ(s.mix_after(i).mix, again.present()) << "event " << i;
      EXPECT_EQ(s.slo_after(i), again.slos()) << "event " << i;
    }
  }
  if (kept.empty()) return;
  const Scenario survivors(kept);
  EXPECT_EQ(survivors.mix_after(kept.size() - 1).mix, v.present());
  EXPECT_EQ(survivors.slo_after(kept.size() - 1), v.slos());
}

ScenarioEvent mix_event(double t, ScenarioEventKind kind, ModelId m,
                        double slo_ms = 0.0) {
  ScenarioEvent e{t, kind, m};
  e.slo_ms = slo_ms;
  return e;
}

ScenarioEvent fault_event(double t, ScenarioEventKind kind, std::size_t board,
                          double factor = 0.0) {
  ScenarioEvent e{t, kind, ModelId::kAlexNet};
  e.board = board;
  e.factor = factor;
  return e;
}

TEST(ScenarioValidator, AgreesWithConstructorOnRandomScenarios) {
  for (std::uint64_t i = 0; i < 60; ++i) {
    util::Rng rng(util::fork_stream(9101, i));
    Scenario s = workload::random_scenario(rng, fuzz_config(rng));
    if (rng.chance(0.5)) {
      workload::FaultProcess p;
      p.mtbf_s = rng.uniform(0.5, 10.0);
      p.mttr_s = rng.uniform(0.5, 5.0);
      p.throttle_fraction = rng.uniform(0.0, 1.0);
      s = workload::with_faults(s, p, 1 + rng.below(4), i);
    }
    expect_validator_agrees(s.events(), "scenario " + std::to_string(i));
  }
}

TEST(ScenarioValidator, RejectsHandWrittenIllegalSequencesLikeConstructor) {
  using K = ScenarioEventKind;
  const ModelId a = ModelId::kAlexNet, b = ModelId::kVgg16;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ScenarioEvent smuggled_board = mix_event(1, K::kArrive, b);
  smuggled_board.board = 2;
  ScenarioEvent smuggled_factor = mix_event(1, K::kDepart, a);
  smuggled_factor.factor = 0.5;
  ScenarioEvent slo_fault = fault_event(1, K::kFailBoard, 0);
  slo_fault.slo_ms = 10.0;
  const std::vector<std::pair<std::string, std::vector<ScenarioEvent>>> cases =
      {
          {"arrive while present",
           {mix_event(0, K::kArrive, a), mix_event(1, K::kArrive, a)}},
          {"depart while absent",
           {mix_event(0, K::kArrive, a), mix_event(1, K::kDepart, b)}},
          {"depart after departing",
           {mix_event(0, K::kArrive, a), mix_event(1, K::kDepart, a),
            mix_event(2, K::kDepart, a)}},
          {"time backwards",
           {mix_event(1, K::kArrive, a), mix_event(0.5, K::kArrive, b)}},
          {"negative time", {mix_event(-1, K::kArrive, a)}},
          {"infinite time", {mix_event(inf, K::kArrive, a)}},
          {"NaN time",
           {mix_event(0, K::kArrive, a), mix_event(nan, K::kDepart, a)}},
          {"negative SLO", {mix_event(0, K::kArrive, a, -5)}},
          {"NaN SLO", {mix_event(0, K::kArrive, a, nan)}},
          {"departure with SLO",
           {mix_event(0, K::kArrive, a), mix_event(1, K::kDepart, a, 20)}},
          {"mix event with board",
           {mix_event(0, K::kArrive, a), smuggled_board}},
          {"mix event with factor",
           {mix_event(0, K::kArrive, a), smuggled_factor}},
          {"fault with SLO", {mix_event(0, K::kArrive, a), slo_fault}},
          {"fail while failed",
           {fault_event(0, K::kFailBoard, 1),
            fault_event(1, K::kFailBoard, 1)}},
          {"fail with factor", {fault_event(0, K::kFailBoard, 0, 0.5)}},
          {"throttle while failed",
           {fault_event(0, K::kFailBoard, 3),
            fault_event(1, K::kThrottleBoard, 3, 0.5)}},
          {"throttle factor zero", {fault_event(0, K::kThrottleBoard, 0, 0)}},
          {"throttle factor above one",
           {fault_event(0, K::kThrottleBoard, 0, 1.5)}},
          {"throttle factor NaN", {fault_event(0, K::kThrottleBoard, 0, nan)}},
          {"recover while healthy", {fault_event(0, K::kRecoverBoard, 2)}},
          {"recover twice",
           {fault_event(0, K::kThrottleBoard, 0, 0.5),
            fault_event(1, K::kRecoverBoard, 0),
            fault_event(2, K::kRecoverBoard, 0)}},
          {"recover with factor",
           {fault_event(0, K::kFailBoard, 0),
            fault_event(1, K::kRecoverBoard, 0, 0.5)}},
          {"health is per board",
           {fault_event(0, K::kFailBoard, 0), fault_event(1, K::kFailBoard, 1),
            fault_event(2, K::kRecoverBoard, 0),
            fault_event(3, K::kRecoverBoard, 0)}},
      };
  for (const auto& [label, events] : cases) {
    EXPECT_NE(constructor_verdict(events), "") << label;
    expect_validator_agrees(events, label);
  }
  // Legal fault sequences the rules must keep accepting: throttle twice,
  // fail a throttled board, recover it, and fail it again.
  const std::vector<ScenarioEvent> legal = {
      fault_event(0, K::kThrottleBoard, 0, 0.5),
      fault_event(1, K::kThrottleBoard, 0, 0.25),
      fault_event(2, K::kFailBoard, 0), fault_event(3, K::kRecoverBoard, 0),
      fault_event(3, K::kFailBoard, 0)};
  EXPECT_EQ(constructor_verdict(legal), "");
  expect_validator_agrees(legal, "legal fault sequence");
}

TEST(ScenarioValidator, AgreesWithConstructorOnMutatedSequences) {
  std::size_t rejected = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    util::Rng rng(util::fork_stream(9102, i));
    const workload::ScenarioConfig cfg = fuzz_config(rng);
    workload::FaultProcess p;
    p.mtbf_s = rng.uniform(0.5, 10.0);
    p.mttr_s = rng.uniform(0.5, 5.0);
    p.throttle_fraction = rng.uniform(0.0, 1.0);
    const Scenario base = workload::with_faults(
        workload::random_scenario(rng, cfg), p, 1 + rng.below(3), i);
    std::vector<ScenarioEvent> events = base.events();
    const std::size_t mutations = 1 + rng.below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.below(events.size());
      ScenarioEvent& e = events[at];
      switch (rng.below(9)) {
        case 0:  // swap with another event (order and time both shuffle)
          std::swap(e, events[rng.below(events.size())]);
          break;
        case 1:  // flip arrive <-> depart, or fail <-> recover
          e.kind = e.kind == ScenarioEventKind::kArrive
                       ? ScenarioEventKind::kDepart
                   : e.kind == ScenarioEventKind::kDepart
                       ? ScenarioEventKind::kArrive
                   : e.kind == ScenarioEventKind::kFailBoard
                       ? ScenarioEventKind::kRecoverBoard
                       : ScenarioEventKind::kFailBoard;
          break;
        case 2:
          e.model = models::kAllModels[rng.below(models::kNumModels)];
          break;
        case 3:
          e.time_s = rng.chance(0.2) ? -1.0 : rng.uniform(0.0, e.time_s + 1);
          break;
        case 4:
          e.slo_ms = rng.uniform(0.0, 200.0);
          break;
        case 5:
          e.factor = rng.chance(0.5) ? 0.0 : rng.uniform(-0.5, 1.5);
          break;
        case 6:
          e.board = rng.below(4);
          break;
        case 7:  // duplicate
          events.insert(events.begin() + static_cast<std::ptrdiff_t>(at), e);
          break;
        default:  // delete
          if (events.size() > 1)
            events.erase(events.begin() + static_cast<std::ptrdiff_t>(at));
          break;
      }
    }
    if (constructor_verdict(events) != "") ++rejected;
    expect_validator_agrees(events, "mutation " + std::to_string(i));
  }
  // Both verdicts must be exercised for the comparison to mean anything.
  EXPECT_GT(rejected, 60u);
  EXPECT_LT(rejected, 290u);
}

}  // namespace
