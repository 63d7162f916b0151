// Self-tests of the benchmark's arithmetic and its oracle join. Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/metrics_json.h"
#include "perfbench/oracle.h"
#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/be/catalog.h"
#include "src/be/parser.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) \
  Expect(std::fabs((a) - (b)) < 1e-9, #a " ~ " #b, __LINE__)

void TestQuantiles() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_NEAR(Quantile(&v, 0.5), 3);
  EXPECT_NEAR(Quantile(&v, 0.0), 1);
  EXPECT_NEAR(Quantile(&v, 1.0), 5);
  std::vector<double> four = {1, 2, 3, 4};
  EXPECT_NEAR(Quantile(&four, 0.25), 1.75);
  std::vector<double> empty;
  EXPECT_NEAR(Quantile(&empty, 0.99), 0);
  EXPECT_NEAR(Median({7, 1, 3}), 3);
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(999, 0.99) == 9);
}

void TestWindows() {
  // Eleven steady windows at 100 us and one stalled window at 50 ms: the
  // run's figure stays at the steady value.
  Windowed w(12);
  for (size_t win = 0; win < 12; ++win) {
    for (int i = 0; i < 100; ++i) w.Add(win, win == 5 ? 50'000 : 100 + i);
  }
  w.Add(99, 1e9);  // outside the phase: ignored
  EXPECT_NEAR(w.MedianOfQuantile(0.5), 149.5);
  // 100 samples leave one beyond the p99: too few, so no window qualifies.
  EXPECT_NEAR(w.MedianOfQuantile(0.99), 0);
  EXPECT(w.MedianOfQuantile(0.9) < 200);
  EXPECT_NEAR(w.MedianRate(0.5), 200);

  // Windows 1 and 2 saw steal; window 3 ties window 0 and loses on order.
  // The kept half (0 and 3) reads the same whatever the stolen ones hold.
  Windowed d(4);
  for (size_t win = 0; win < 4; ++win) {
    for (int i = 0; i < 100; ++i) d.Add(win, win == 1 || win == 2 ? 900 : 10);
  }
  d.Add(3, 10);
  d.Keep(LeastDisturbed({0.5, 7.0, 3.0, 0.5}, 2));
  EXPECT(d.kept(0) && !d.kept(1) && !d.kept(2) && d.kept(3));
  EXPECT_NEAR(d.MedianOfQuantile(0.5), 10);
  EXPECT(d.PerWindow(0.5).size() == 2);
  EXPECT_NEAR(d.MedianRate(1.0), 100.5);
  // An odd count keeps the larger half.
  EXPECT((LeastDisturbed({2, 1, 3}, 2) == std::vector<bool>{true, true,
                                                            false}));
  EXPECT((LeastDisturbed({2, 1}, 5) == std::vector<bool>{true, true}));
}

void TestDueTimes() {
  EXPECT(DueNs(0, 0, 1000) == 0);
  EXPECT(DueNs(0, 3, 1000) == 3'000'000);
  EXPECT(DueNs(100, 1, 3) == 100 + 333'333'333);
  // No accumulated drift: the millionth event of a 3/s schedule is due at
  // exactly floor(1e6 / 3) seconds.
  EXPECT(DueNs(0, 1'000'000, 3) == 333'333'333'333'333LL);
  // Large indices do not overflow.
  EXPECT(DueNs(0, 20'000'000'000ULL, 20'000) == 1'000'000'000'000'000LL);
  EXPECT(EventsDue(0.5, 20'000) == 10'000);
  EXPECT(EventsDue(6.0, 5'000) == 30'000);
  EXPECT(EventsDue(0.0, 5'000) == 0);
}

void TestRatios() {
  EXPECT_NEAR(Ratio(1, 0), 0);
  EXPECT_NEAR(Ratio(3, 4), 0.75);
  EXPECT_NEAR(PerThousand(5, 10'000), 0.5);
  EXPECT_NEAR(PercentChange(90, 100), -10);
  EXPECT_NEAR(PercentChange(1, 0), 0);
}

void TestDigest() {
  SetDigest a, b, c;
  for (uint64_t id : {3, 9, 27}) a.Add(id);
  for (uint64_t id : {27, 3, 9}) b.Add(id);
  for (uint64_t id : {3, 9}) c.Add(id);
  EXPECT(a == b);
  EXPECT(!(a == c));
  SetDigest d = c;
  d.Add(28);
  EXPECT(!(a == d));  // same count, different member
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      {"harness.root", 0, 100, -1, 0},
      {"core.a", 10, 30, 0, 1},
      {"core.b", 20, 50, 0, 2},   // overlaps a: the union counts once
      {"net.c", 60, 70, 0, 3},
      {"net.d", 90, 120, 0, 4},   // clipped to the parent's end
      {"be.e", 15, 20, 1, 1},     // grandchild
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT(self[0] == 100 - 40 - 10 - 10);
  EXPECT(self[1] == 20 - 5);
  EXPECT(self[5] == 5);
  SpanRecorder recorder(8);
  for (const Span& s : spans) {
    recorder.Add(s.name, s.start_ns, s.end_ns, s.parent, s.request);
  }
  const auto layers = recorder.SelfTimeByLayer();
  EXPECT(layers.at("harness") == 40);
  EXPECT(layers.at("core") == 15 + 30);
  EXPECT(layers.at("be") == 5);
}

void TestMetricsJson() {
  const std::string json =
      "{\"metrics\":[{\"name\":\"apcm_events_processed_total\",\"help\":"
      "\"Events, \\\"all\\\" of them {x}\",\"type\":\"counter\",\"value\":42},"
      "{\"name\":\"apcm_stage_latency_ns\",\"labels\":\"stage=\\\"queue\\\"\","
      "\"help\":\"h\",\"type\":\"histogram\",\"count\":4,\"sum\":400,"
      "\"mean\":100.0,\"min\":1,\"max\":300,\"p50\":50,\"p90\":90,\"p95\":95,"
      "\"p99\":299}]}";
  const ServerMetrics m = ServerMetrics::Parse(json);
  EXPECT_NEAR(m.Get("apcm_events_processed_total"), 42);
  EXPECT_NEAR(m.Get("apcm_stage_latency_ns{stage=\"queue\"}", "p99"), 299);
  EXPECT_NEAR(m.Get("apcm_stage_latency_ns{stage=\"queue\"}", "sum"), 400);
  EXPECT_NEAR(m.Get("apcm_missing_total"), 0);
  EXPECT(m.Has("apcm_events_processed_total"));
  EXPECT(m.Has("apcm_stage_latency_ns{stage=\"queue\"}", "p99"));
  EXPECT(!m.Has("apcm_stage_latency_ns{stage=\"queue\"}", "p999"));
  EXPECT(!m.Has("apcm_missing_total"));
}

/// The oracle join on a tiny workload: three stable expressions, one
/// churned expression, two pool events.
void TestOracleJoin() {
  apcm::Catalog catalog;
  apcm::Parser parser(&catalog);
  std::vector<apcm::BooleanExpression> book = {
      parser.ParseExpression(0, "a = 1").value(),
      parser.ParseExpression(1, "a = 1 and b > 5").value(),
      parser.ParseExpression(2, "b <= 5").value(),
  };
  std::vector<apcm::BooleanExpression> churn = {
      parser.ParseExpression(3, "b > 7").value(),
  };
  std::vector<apcm::Event> pool = {
      parser.ParseEvent("a = 1, b = 9").value(),  // matches 0, 1, churn 0
      parser.ParseEvent("a = 2, b = 3").value(),  // matches 2
  };
  const auto expected = ExpectedMatches(book, pool);
  EXPECT((expected[0] == std::vector<uint64_t>{0, 1}));
  EXPECT((expected[1] == std::vector<uint64_t>{2}));
  const auto churn_ids = ExpectedMatches(churn, pool);
  EXPECT((churn_ids[0] == std::vector<uint64_t>{3}));
  EXPECT(churn_ids[1].empty());

  std::vector<SetDigest> digests(pool.size());
  for (size_t p = 0; p < pool.size(); ++p) {
    for (uint64_t id : expected[p]) digests[p].Add(id);
  }
  const std::vector<std::vector<uint32_t>> churn_expected = {{0}, {}};

  // Four events alternating pool 0 and 1, all delivered correctly.
  std::vector<EventRecord> events(4);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].pool_index = static_cast<uint32_t>(i % 2);
    events[i].ack_ns = events[i].progress_ns = 100 + i;
    events[i].stable = digests[i % 2];
  }
  std::vector<ChurnLife> lives(2);
  lives[0].pool_index = 0;
  lives[0].unsub_acked_events = 2;  // UNSUBSCRIBE acked after 2 events sent
  lives[1].pool_index = 0;
  lives[1].sub_sent_done = 2;  // SUBSCRIBE sent after 2 events completed
  std::vector<ChurnMatch> churn_matches = {{0, 0}, {2, 1}};
  OracleReport r =
      JoinOracle(events, digests, churn_expected, lives, churn_matches);
  EXPECT(r.events_checked == 4);
  EXPECT(r.Mismatches() == 0);

  // Each kind of mismatch is counted once.
  std::vector<EventRecord> bad = events;
  bad[1].stable = SetDigest();                  // a missing MATCH
  bad[2].progress_ns = 0;                       // never covered by PROGRESS
  bad[3].ack_ok = false;                        // ACK with a wrong event id
  std::vector<ChurnMatch> bad_churn = {
      {2, 0},  // event 2 sent after the UNSUBSCRIBE was acked
      {1, 0},  // pool event 1 does not satisfy the churned expression
      {0, 1},  // event 0 was complete before life 1's SUBSCRIBE was sent
      {2, 7},  // an id that was never subscribed
  };
  r = JoinOracle(bad, digests, churn_expected, lives, bad_churn);
  EXPECT(r.stable_mismatches == 1);
  EXPECT(r.missing_progress == 1);
  EXPECT(r.bad_acks == 1);
  EXPECT(r.churn_wrong == 4);
  EXPECT(r.Mismatches() == 7);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantiles();
  perfbench::TestWindows();
  perfbench::TestDueTimes();
  perfbench::TestRatios();
  perfbench::TestDigest();
  perfbench::TestSelfTimes();
  perfbench::TestMetricsJson();
  perfbench::TestOracleJoin();
  if (perfbench::failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
