// The daemon wire protocol's building blocks: the shared trace-clause
// grammar (workload::parse_event_clause / serialize_event_clause), the
// PacedClock, the loopback TCP shims, and the ThreadPool async hook — plus a
// malformed-command corpus and a byte-mutation fuzz asserting the parser
// only ever fails with std::invalid_argument (clean `err` replies, never a
// daemon crash).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace omniboost;
using workload::parse_event_clause;
using workload::Scenario;
using workload::ScenarioEvent;
using workload::ScenarioEventKind;
using workload::serialize_event_clause;

bool events_equal(const ScenarioEvent& a, const ScenarioEvent& b) {
  return a.time_s == b.time_s && a.kind == b.kind && a.model == b.model &&
         a.slo_ms == b.slo_ms && a.board == b.board && a.factor == b.factor;
}

std::vector<std::string> valid_clauses() {
  return {
      "arrive MobileNet",
      "arrive VGG-19 slo 150",
      "arrive AlexNet slo 0.5",
      "depart MobileNet",
      "fail board 0",
      "fail board 3",
      "throttle board 1 0.5",
      "recover board 2",
      "arrive ResNet-50 slo 100  # trailing comment",
  };
}

// --- Shared grammar: the daemon's command language IS the trace grammar.

TEST(ProtocolGrammar, ClauseRoundTripsThroughSerialize) {
  for (const std::string& clause : valid_clauses()) {
    const ScenarioEvent e = parse_event_clause(clause, 12.5);
    EXPECT_EQ(e.time_s, 12.5);
    const std::string out = serialize_event_clause(e);
    const ScenarioEvent back = parse_event_clause(out, 12.5);
    EXPECT_TRUE(events_equal(e, back)) << clause << " -> " << out;
  }
}

TEST(ProtocolGrammar, ClausePlusTimestampMatchesTraceLine) {
  // `at <t> <clause>` through the trace serializer equals the clause
  // serializer with the prefix added by hand — one grammar, two doors.
  std::vector<ScenarioEvent> events;
  events.push_back(parse_event_clause("arrive MobileNet slo 100", 1.25));
  events.push_back(parse_event_clause("depart MobileNet", 2.5));
  const std::string trace = workload::serialize_scenario(Scenario(events));
  for (const ScenarioEvent& e : events)
    EXPECT_NE(trace.find(serialize_event_clause(e)), std::string::npos);
  const Scenario replayed = workload::parse_scenario(trace);
  ASSERT_EQ(replayed.events().size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_TRUE(events_equal(replayed.events()[i], events[i]));
}

TEST(ProtocolGrammar, MalformedCorpusThrowsInvalidArgumentOnly) {
  const std::vector<std::string> corpus = {
      "",
      "   ",
      "arriv MobileNet",
      "arrive",
      "arrive NoSuchNet",
      "arrive MobileNet slo",
      "arrive MobileNet slo -5",
      "arrive MobileNet slo NaN",
      "arrive MobileNet slo 100 extra",
      "depart",
      "depart NoSuchNet",
      "depart MobileNet now",
      "fail",
      "fail board",
      "fail board -1",
      "fail board two",
      "fail board 0 hard",
      "throttle board 1",
      "throttle board 1 0",
      "throttle board 1 1.5",
      "throttle board 1 -0.5",
      "throttle board 1 to 0.5",
      "throttle board 1 0.5 extra",
      "recover",
      "recover board",
      "recover board x",
      "shutdown now please",  // daemon keywords are NOT grammar clauses
      "status",
      "at 3 arrive MobileNet",  // the `at` prefix belongs to the trace layer
  };
  for (const std::string& bad : corpus) {
    EXPECT_THROW(parse_event_clause(bad, 1.0), std::invalid_argument)
        << "accepted: '" << bad << "'";
  }
}

TEST(ProtocolGrammar, ByteMutationFuzzNeverEscapesInvalidArgument) {
  // Mutate valid clauses byte-by-byte: every outcome must be either a
  // clean parse or std::invalid_argument — anything else would crash the
  // daemon loop. 2000 mutations across the corpus.
  const std::vector<std::string> seeds = valid_clauses();
  util::Rng rng(0xfeedbeef);
  std::size_t parsed = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s = seeds[rng.below(seeds.size())];
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t k = 0; k < edits && !s.empty(); ++k) {
      const std::size_t pos = rng.below(s.size());
      switch (rng.below(3)) {
        case 0:
          s[pos] = static_cast<char>(32 + rng.below(95));
          break;
        case 1:
          s.erase(pos, 1);
          break;
        default:
          s.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
          break;
      }
    }
    try {
      (void)parse_event_clause(s, 1.0);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
    // Any other exception type (or a crash) fails the test by escaping.
  }
  EXPECT_EQ(parsed + rejected, 2000u);
  EXPECT_GT(rejected, 0u);
}

// --- PacedClock: monotonic scaled wall time.

TEST(PacedClock, MonotonicAndScaled) {
  const util::PacedClock slow(1.0);
  const util::PacedClock fast(1000.0);
  double prev = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double t = slow.now_s();
    EXPECT_GE(t, prev);
    prev = t;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // 5ms real at x1000 reads as >= ~5 scenario-seconds; at x1 well under 1.
  EXPECT_GE(fast.now_s(), 1.0);
  EXPECT_LT(slow.now_s(), 1.0);
  EXPECT_EQ(fast.scale(), 1000.0);
}

TEST(PacedClock, RejectsBadScale) {
  EXPECT_THROW(util::PacedClock(0.0), std::invalid_argument);
  EXPECT_THROW(util::PacedClock(-2.0), std::invalid_argument);
  EXPECT_THROW(util::PacedClock(std::nan("")), std::invalid_argument);
}

// --- Loopback TCP shims.

TEST(Net, LoopbackLineRoundTrip) {
  util::TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);
  util::TcpStream client = util::tcp_connect("localhost", listener.port());
  util::TcpStream server = listener.accept(2000);
  ASSERT_TRUE(server.valid());

  client.send_line("arrive MobileNet slo 100");
  std::string line;
  ASSERT_EQ(server.recv_line(&line, 2000),
            util::TcpStream::RecvStatus::kLine);
  EXPECT_EQ(line, "arrive MobileNet slo 100");

  // Multiple lines in one burst buffer correctly.
  server.send_line("admitted");
  server.send_line("ok");
  ASSERT_EQ(client.recv_line(&line, 2000),
            util::TcpStream::RecvStatus::kLine);
  EXPECT_EQ(line, "admitted");
  ASSERT_EQ(client.recv_line(&line, 2000),
            util::TcpStream::RecvStatus::kLine);
  EXPECT_EQ(line, "ok");
}

TEST(Net, TimeoutAndEof) {
  util::TcpListener listener(0);
  util::TcpStream client = util::tcp_connect("127.0.0.1", listener.port());
  util::TcpStream server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  std::string line;
  EXPECT_EQ(server.recv_line(&line, 10),
            util::TcpStream::RecvStatus::kTimeout);
  client.close();
  EXPECT_EQ(server.recv_line(&line, 2000),
            util::TcpStream::RecvStatus::kClosed);
}

TEST(Net, RejectsEmbeddedNewlineAndAcceptTimeout) {
  util::TcpListener listener(0);
  util::TcpStream none = listener.accept(10);
  EXPECT_FALSE(none.valid());
  util::TcpStream client = util::tcp_connect("localhost", listener.port());
  EXPECT_THROW(client.send_line("two\nlines"), std::invalid_argument);
}

TEST(Net, SendLinesRoundTripsAMultiLineReply) {
  util::TcpListener listener(0);
  util::TcpStream client = util::tcp_connect("localhost", listener.port());
  util::TcpStream server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  const std::vector<std::string> reply = {
      "board  epochs  decisions", "", "conservation: offered=3", "ok"};
  server.send_lines(reply);
  for (const std::string& want : reply) {
    std::string line;
    ASSERT_EQ(client.recv_line(&line, 2000),
              util::TcpStream::RecvStatus::kLine);
    EXPECT_EQ(line, want);
  }
}

TEST(Net, SendLinesChecksEveryLineBeforeSendingAnyByte) {
  util::TcpListener listener(0);
  util::TcpStream client = util::tcp_connect("localhost", listener.port());
  util::TcpStream server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  // The bad line is last: the good ones ahead of it must not go out either.
  EXPECT_THROW(client.send_lines({"first", "second", "bad\nline"}),
               std::invalid_argument);
  std::string line;
  EXPECT_EQ(server.recv_line(&line, 50),
            util::TcpStream::RecvStatus::kTimeout);
  client.send_line("after");
  ASSERT_EQ(server.recv_line(&line, 2000),
            util::TcpStream::RecvStatus::kLine);
  EXPECT_EQ(line, "after");
}

TEST(Net, RecvLineRejectsALineLongerThanTheCap) {
  util::TcpListener listener(0);
  util::TcpStream client = util::tcp_connect("localhost", listener.port());
  util::TcpStream server = listener.accept(2000);
  ASSERT_TRUE(server.valid());
  const std::size_t cap = util::TcpStream::kMaxLineBytes;
  // A sender thread: two 64 KiB lines may not fit the socket buffers while
  // nobody reads.
  std::thread sender([&client, cap] {
    client.send_line(std::string(cap, 'a'));  // exactly at the cap: fine
    client.send_line(std::string(cap + 1, 'b'));
  });
  std::string line;
  EXPECT_EQ(server.recv_line(&line, 5000),
            util::TcpStream::RecvStatus::kLine);
  EXPECT_EQ(line.size(), cap);
  EXPECT_EQ(server.recv_line(&line, 5000),
            util::TcpStream::RecvStatus::kTooLong);
  sender.join();

  // A peer that never sends a newline cannot grow the buffer past the cap.
  util::TcpStream quiet = util::tcp_connect("localhost", listener.port());
  util::TcpStream victim = listener.accept(2000);
  ASSERT_TRUE(victim.valid());
  std::thread flood([&quiet, cap] {
    // The cap trips long before this line's newline would arrive; the
    // reader then hangs up, which may fail the rest of the write.
    try {
      quiet.send_line(std::string(4 * cap, 'z'));
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_EQ(victim.recv_line(&line, 5000),
            util::TcpStream::RecvStatus::kTooLong);
  victim.close();  // unblocks the flood if it is still writing
  flood.join();
}

// --- ThreadPool async hook (the daemon's background-search slot).

TEST(ThreadPoolAsync, RunsAndJoins) {
  util::ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.async([&] { ++hits; });
  pool.async_join();
  EXPECT_EQ(hits.load(), 1);
  EXPECT_FALSE(pool.async_active());

  pool.async([&] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.async_join(), std::runtime_error);
  // The error slot is cleared: the pool is reusable.
  pool.async([&] { ++hits; });
  pool.async_join();
  EXPECT_EQ(hits.load(), 2);
}

TEST(ThreadPoolAsync, InlineModeRunsSynchronously) {
  util::ThreadPool pool(1);  // no worker threads
  int hits = 0;
  pool.async([&] { ++hits; });
  EXPECT_EQ(hits, 1);  // already ran, before join
  EXPECT_FALSE(pool.async_active());
  pool.async_join();  // no-op, no error

  pool.async([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(pool.async_join(), std::runtime_error);
}

TEST(ThreadPoolAsync, SingleSlotEnforced) {
  util::ThreadPool pool(2);
  std::atomic<bool> release{false};
  pool.async([&] {
    while (!release.load()) std::this_thread::yield();
  });
  EXPECT_THROW(pool.async([] {}), std::invalid_argument);
  release = true;
  pool.async_join();
}

}  // namespace
