// Differential oracle and edge-trigger corner suite for the epoll reactor
// front-end (src/net/reactor.h, DESIGN.md §3.14). Ground truth is a direct
// StreamEngine fed the same expression texts and events
// (tests/net_oracle_util.h): at every I/O thread count the server must
// deliver exactly the oracle's per-subscriber match sets, ACK the publishes
// with the oracle's dense event ids, and answer the control probes with the
// expected ACK/ERROR sequence.
//
// The failpoint scenarios (spurious wakeups, phantom readability forcing the
// EAGAIN-after-readable path, torn gathered writes) GTEST_SKIP() at runtime
// unless the binary was built with -DAPCM_FAILPOINTS=ON.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/base/failpoint.h"
#include "src/base/metrics.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "tests/net_oracle_util.h"

namespace apcm {
namespace {

using net::Client;
using net::EventServer;
using net::EventServerOptions;
using net::ValidateEventServerOptions;

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

int64_t GaugeValue(const MetricsRegistry& registry, const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.gauge_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

EventServerOptions ServerOptions(int io_threads, bool reuseport = true) {
  EventServerOptions options;
  options.engine.batch_size = 16;
  options.engine.osr.window_size = 0;
  options.engine.buffer_capacity = 16;
  options.engine.matcher.pcm.clustering.cluster_size = 32;
  options.io_threads = io_threads;
  options.reuseport_accept = reuseport;
  return options;
}

/// One subscriber's delivered stream: publish index -> ascending client sub
/// ids matched.
using MatchRows = std::map<uint64_t, std::vector<uint64_t>>;

/// Everything observable from one server run of a workload.
struct RunResult {
  /// Per subscriber client, its delivered match rows.
  std::vector<MatchRows> subscriber_rows;
  /// Server-assigned event id per ACKed publish, in publish order.
  std::vector<uint64_t> publish_acks;
  /// StatusCode of every control operation (subscribes, the deliberate
  /// duplicate / parse-error / unknown-unsubscribe probes), in issue order.
  /// This is the ACK/ERROR sequence: an ACK records kOk, an ERROR records
  /// the carried code.
  std::vector<int> control_codes;
  bool ok = false;
};

/// Runs `workload` through a server with `io_threads` I/O threads.
/// Expressions are dealt round-robin to `num_subscribers` subscriber
/// connections (expression i -> subscriber i % num_subscribers, client sub
/// id i), every event is published on a separate connection, and Stop()
/// drains — so each subscriber's received stream is complete, not a
/// timeout-bounded prefix.
RunResult RunWorkload(int io_threads, const NetWorkload& workload,
                      int num_subscribers) {
  RunResult result;
  EventServer server(ServerOptions(io_threads));
  Status started = server.Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return result;

  std::vector<std::unique_ptr<Client>> subscribers;
  for (int s = 0; s < num_subscribers; ++s) {
    subscribers.push_back(std::make_unique<Client>());
    Status st = subscribers.back()->Connect("127.0.0.1", server.port());
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return result;
  }

  auto record = [&result](const Status& status) {
    result.control_codes.push_back(static_cast<int>(status.code()));
  };
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    Client& owner = *subscribers[i % num_subscribers];
    record(owner.Subscribe(i, workload.expressions[i]));
  }
  // Deliberate ERROR probes: a duplicate sub id, an unparsable expression,
  // an unsubscribe of an id never registered.
  for (int s = 0; s < num_subscribers; ++s) {
    Client& owner = *subscribers[static_cast<size_t>(s)];
    record(owner.Subscribe(static_cast<uint64_t>(s), "a0 >= 0"));
    record(owner.Subscribe(100000 + static_cast<uint64_t>(s), "a0 >><< 1"));
    record(owner.Unsubscribe(200000 + static_cast<uint64_t>(s)));
  }

  Client publisher;
  Status pst = publisher.Connect("127.0.0.1", server.port());
  EXPECT_TRUE(pst.ok()) << pst.ToString();
  if (!pst.ok()) return result;
  for (const Event& event : workload.events) {
    auto id = publisher.Publish(event);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return result;
    result.publish_acks.push_back(*id);
  }

  // Stop() drains: every accepted event is matched and every owed MATCH
  // frame is flushed before sockets close, so reading to the close marker
  // yields each subscriber's complete stream.
  server.Stop();

  std::map<uint64_t, uint64_t> publish_index;  // event id -> publish index
  for (size_t k = 0; k < result.publish_acks.size(); ++k) {
    publish_index[result.publish_acks[k]] = k;
  }
  for (auto& subscriber : subscribers) {
    MatchRows rows;
    for (;;) {
      auto match = subscriber->PollMatch(/*timeout_ms=*/2000);
      if (!match.ok() || !match->has_value()) break;
      auto it = publish_index.find((*match)->event_id);
      EXPECT_NE(it, publish_index.end())
          << "MATCH for an event id never ACKed: " << (*match)->event_id;
      if (it == publish_index.end()) continue;
      std::vector<uint64_t>& row = rows[it->second];
      row.insert(row.end(), (*match)->sub_ids.begin(),
                 (*match)->sub_ids.end());
    }
    for (auto& [index, row] : rows) std::sort(row.begin(), row.end());
    result.subscriber_rows.push_back(std::move(rows));
  }
  result.ok = true;
  return result;
}

/// The oracle's view of a RunWorkload run: the direct engine's match sets
/// split per subscriber, its event ids, and the probes' expected codes.
struct ExpectedRun {
  std::vector<MatchRows> subscriber_rows;
  std::vector<uint64_t> publish_acks;
  std::vector<int> control_codes;
};

ExpectedRun OracleRun(const NetWorkload& workload, int num_subscribers) {
  const DirectEngineResult direct =
      RunDirectEngine(ServerOptions(/*io_threads=*/1).engine, workload);
  ExpectedRun want;
  want.subscriber_rows.resize(static_cast<size_t>(num_subscribers));
  for (const auto& [k, indices] : direct.matches) {
    for (uint64_t i : indices) {
      want.subscriber_rows[i % static_cast<uint64_t>(num_subscribers)][k]
          .push_back(i);
    }
  }
  want.publish_acks = direct.event_ids;
  // Every expression subscribes cleanly; then, per subscriber, the three
  // probes fail with their specific codes.
  want.control_codes.assign(workload.expressions.size(),
                            static_cast<int>(StatusCode::kOk));
  for (int s = 0; s < num_subscribers; ++s) {
    want.control_codes.push_back(static_cast<int>(StatusCode::kAlreadyExists));
    want.control_codes.push_back(
        static_cast<int>(StatusCode::kInvalidArgument));
    want.control_codes.push_back(static_cast<int>(StatusCode::kNotFound));
  }
  return want;
}

void ExpectMatchesOracle(const ExpectedRun& want, const RunResult& got,
                         const std::string& what) {
  ASSERT_TRUE(got.ok) << what;
  EXPECT_EQ(got.subscriber_rows, want.subscriber_rows)
      << what << ": per-subscriber MATCH streams diverged from the oracle";
  // Event ids are dense from 0 in publish order, on the wire and in the
  // direct engine alike.
  std::vector<uint64_t> dense(want.publish_acks.size());
  std::iota(dense.begin(), dense.end(), uint64_t{0});
  EXPECT_EQ(want.publish_acks, dense) << "oracle event ids are not dense";
  EXPECT_EQ(got.publish_acks, dense)
      << what << ": publish ACKs are not the dense ids 0..n-1";
  EXPECT_EQ(got.control_codes, want.control_codes)
      << what << ": ACK/ERROR status sequence diverged";
}

// ---------------------------------------------------------------------------
// The differential oracle: the direct engine is ground truth; the reactor at
// 1, 2, and 4 I/O threads must deliver exactly what it computes.
// ---------------------------------------------------------------------------

TEST(NetReactorTest, DifferentialOracleAcrossIoThreadModes) {
  const NetWorkload workload =
      MakeNetWorkload(/*seed=*/2026, /*num_subs=*/24, /*num_events=*/120);
  const ExpectedRun want = OracleRun(workload, /*num_subscribers=*/3);
  // A workload that matches nothing would make the stream equality vacuous.
  size_t expected_rows = 0;
  for (const MatchRows& rows : want.subscriber_rows) {
    expected_rows += rows.size();
  }
  EXPECT_GT(expected_rows, 0u);

  for (int io_threads : {1, 2, 4}) {
    SCOPED_TRACE("io_threads=" + std::to_string(io_threads));
    const RunResult run = RunWorkload(io_threads, workload,
                                      /*num_subscribers=*/3);
    ExpectMatchesOracle(want, run,
                        "reactor io_threads=" + std::to_string(io_threads));
  }
}

// ---------------------------------------------------------------------------
// Reactor plumbing: metrics surface, accept-sharding fallback, restart.
// ---------------------------------------------------------------------------

TEST(NetReactorTest, ReactorMetricsAreRegisteredAndLive) {
  EventServer server(ServerOptions(/*io_threads=*/2));
  ASSERT_TRUE(server.Start().ok());
  const MetricsRegistry& registry = server.engine().metrics_registry();
  EXPECT_EQ(GaugeValue(registry, "apcm_net_io_threads"), 2);

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Subscribe(0, "a0 >= 0").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.Publish(Event::Create({{0, i}}).value()).ok());
  }
  for (int i = 0; i < 8; ++i) {
    auto match = client.PollMatch(/*timeout_ms=*/10000);
    ASSERT_TRUE(match.ok() && match->has_value());
  }
  EXPECT_GT(CounterValue(registry, "apcm_net_wakeups_total"), 0u);
  EXPECT_GT(CounterValue(registry, "apcm_net_batched_writes_total"), 0u);
  server.Stop();
  EXPECT_EQ(GaugeValue(registry, "apcm_net_io_threads"), 0);
}

TEST(NetReactorTest, ReuseportShardingIsActiveWhenRequested) {
  EventServer server(ServerOptions(/*io_threads=*/2, /*reuseport=*/true));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.reuseport_active());
  // Connections spread across per-thread listen sockets still serve one
  // coherent protocol surface.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(std::make_unique<Client>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(clients.back()->Ping().ok());
  }
  server.Stop();
}

TEST(NetReactorTest, SingleAcceptorFallbackDealsConnectionsRoundRobin) {
  // reuseport disabled: thread 0 owns the only listening socket and adopts
  // connections round-robin across all three threads. Every connection must
  // be fully served wherever it landed.
  EventServer server(ServerOptions(/*io_threads=*/3, /*reuseport=*/false));
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.reuseport_active());

  std::vector<std::unique_ptr<Client>> subscribers;
  for (int i = 0; i < 6; ++i) {
    subscribers.push_back(std::make_unique<Client>());
    ASSERT_TRUE(subscribers.back()->Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(subscribers.back()->Subscribe(0, "a0 >= 0").ok());
  }
  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(publisher.Publish(Event::Create({{0, i}}).value()).ok());
  }
  for (auto& subscriber : subscribers) {
    for (int i = 0; i < 5; ++i) {
      auto match = subscriber->PollMatch(/*timeout_ms=*/10000);
      ASSERT_TRUE(match.ok() && match->has_value());
      EXPECT_EQ((*match)->sub_ids, (std::vector<uint64_t>{0}));
    }
  }
  server.Stop();
}

TEST(NetReactorTest, RestartOnFreshPortServesTraffic) {
  EventServer first(ServerOptions(/*io_threads=*/2));
  ASSERT_TRUE(first.Start().ok());
  EXPECT_EQ(first.Start().code(), StatusCode::kInvalidArgument);
  first.Stop();
  first.Stop();  // idempotent

  EventServer second(ServerOptions(/*io_threads=*/2));
  ASSERT_TRUE(second.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", second.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  second.Stop();
}

TEST(NetReactorTest, ValidateOptionsRejectsBadConfigs) {
  EXPECT_EQ(ValidateEventServerOptions(ServerOptions(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateEventServerOptions(ServerOptions(1)).ok());
  EXPECT_TRUE(ValidateEventServerOptions(ServerOptions(64)).ok());
  EXPECT_EQ(ValidateEventServerOptions(ServerOptions(-1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateEventServerOptions(ServerOptions(65)).code(),
            StatusCode::kInvalidArgument);

  EventServerOptions bad_frame = ServerOptions(1);
  bad_frame.max_frame_bytes = 0;
  EXPECT_EQ(ValidateEventServerOptions(bad_frame).code(),
            StatusCode::kInvalidArgument);

  // Start() refuses with the same status instead of half-initializing.
  EventServer server(ServerOptions(65));
  EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Edge-trigger corner coverage via armed failpoints. Each scenario perturbs
// the reactor's readiness bookkeeping (the exact seams where an
// edge-triggered loop loses frames if its level flags are wrong) and then
// demands exact agreement with the direct-engine oracle.
// ---------------------------------------------------------------------------

class NetReactorFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kEnabled) {
      GTEST_SKIP() << "failpoints compiled out; build with -DAPCM_FAILPOINTS=ON";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(NetReactorFailpointTest, SpuriousWakeupsDoNotPerturbStreams) {
  const NetWorkload workload =
      MakeNetWorkload(/*seed=*/404, /*num_subs=*/12, /*num_events=*/60);
  const ExpectedRun want = OracleRun(workload, /*num_subscribers=*/2);

  const uint64_t hits0 = failpoint::Hits("net.reactor.wakeup");
  ASSERT_TRUE(failpoint::Configure("net.reactor.wakeup", "25%return@97").ok());
  const RunResult run = RunWorkload(/*io_threads=*/2, workload,
                                    /*num_subscribers=*/2);
  EXPECT_GT(failpoint::Hits("net.reactor.wakeup"), hits0);
  ExpectMatchesOracle(want, run, "spurious wakeups");
}

TEST_F(NetReactorFailpointTest, EagainAfterReadableLeavesNoFrameBehind) {
  // Phantom readability marks every connection read-ready with no bytes
  // behind it: recv must meet EAGAIN, set the level flag back down, and
  // *still* pick up real bytes that arrive afterwards (the classic
  // edge-trigger lost-wakeup bug this flag discipline exists to prevent).
  const NetWorkload workload =
      MakeNetWorkload(/*seed=*/405, /*num_subs=*/12, /*num_events=*/60);
  const ExpectedRun want = OracleRun(workload, /*num_subscribers=*/2);

  const uint64_t hits0 = failpoint::Hits("net.reactor.readable");
  ASSERT_TRUE(
      failpoint::Configure("net.reactor.readable", "20%return@211").ok());
  const RunResult run = RunWorkload(/*io_threads=*/2, workload,
                                    /*num_subscribers=*/2);
  EXPECT_GT(failpoint::Hits("net.reactor.readable"), hits0);
  ExpectMatchesOracle(want, run, "EAGAIN after readable");
}

TEST_F(NetReactorFailpointTest, ShortWritevMidFrameReplaysTheTail) {
  // Torn gathered writes: the writev byte count is clamped so MATCH frames
  // are split mid-frame across syscalls; the outbox must replay the tail in
  // order, never duplicating or dropping a byte.
  const NetWorkload workload =
      MakeNetWorkload(/*seed=*/406, /*num_subs=*/12, /*num_events=*/60);
  const ExpectedRun want = OracleRun(workload, /*num_subscribers=*/2);

  const uint64_t hits0 = failpoint::Hits("net.reactor.writev.short");
  ASSERT_TRUE(
      failpoint::Configure("net.reactor.writev.short", "35%return(7)@1042")
          .ok());
  const RunResult run = RunWorkload(/*io_threads=*/2, workload,
                                    /*num_subscribers=*/2);
  EXPECT_GT(failpoint::Hits("net.reactor.writev.short"), hits0);
  ExpectMatchesOracle(want, run, "short writev mid-frame");
}

TEST_F(NetReactorFailpointTest, AcceptFailureStallsOnlyNewConnections) {
  EventServer server(ServerOptions(/*io_threads=*/2));
  ASSERT_TRUE(server.Start().ok());

  Client established;
  ASSERT_TRUE(established.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(established.Ping().ok());

  ASSERT_TRUE(failpoint::Configure("net.reactor.accept", "return").ok());
  Client stalled;
  // connect() succeeds into the kernel backlog but no reactor thread
  // accepts; the bounded Ping times out and fails the connection.
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server.port()).ok());
  const Status ping = stalled.Ping(/*timeout_ms=*/500);
  EXPECT_EQ(ping.code(), StatusCode::kIOError) << ping.ToString();
  EXPECT_GT(failpoint::Hits("net.reactor.accept"), 0u);

  // Established connections never noticed, and connectivity heals the
  // moment the point is disarmed (the pending backlog is re-reported).
  ASSERT_TRUE(established.Ping().ok());
  failpoint::DisarmAll();
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Armed-failpoint soak: all three reactor seams shredded at once while a
// catch-all subscriber audits that every ACKed publish produces exactly its
// match. Runtime is APCM_NET_SOAK_SECONDS (default 2; CI's net-stress job
// runs it at 30).
// ---------------------------------------------------------------------------

TEST_F(NetReactorFailpointTest, ArmedFailpointSoakLosesNothing) {
  int soak_seconds = 2;
  if (const char* env = std::getenv("APCM_NET_SOAK_SECONDS")) {
    soak_seconds = std::max(1, std::atoi(env));
  }
  ASSERT_TRUE(failpoint::ConfigureFromSpec(
                  "net.reactor.wakeup=10%return@1,"
                  "net.reactor.readable=10%return@3,"
                  "net.reactor.writev.short=25%return(9)@5")
                  .ok());

  EventServer server(ServerOptions(/*io_threads=*/4));
  ASSERT_TRUE(server.Start().ok());

  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(subscriber.Subscribe(0, "a0 >= 0").ok());
  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(soak_seconds);
  uint64_t published = 0;
  std::set<uint64_t> acked;
  while (std::chrono::steady_clock::now() < deadline) {
    auto id = publisher.Publish(
        Event::Create({{0, static_cast<int64_t>(published)}}).value());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    acked.insert(*id);
    ++published;
  }
  ASSERT_GT(published, 0u);

  // Stop() drains, so the subscriber's stream is complete: exactly one
  // MATCH (for sub 0) per ACKed event, nothing lost, nothing duplicated.
  server.Stop();
  std::set<uint64_t> matched;
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/2000);
    if (!match.ok() || !match->has_value()) break;
    EXPECT_EQ((*match)->sub_ids, (std::vector<uint64_t>{0}));
    EXPECT_TRUE(matched.insert((*match)->event_id).second)
        << "duplicate MATCH for event " << (*match)->event_id;
  }
  EXPECT_EQ(matched, acked);
  EXPECT_GT(failpoint::Hits("net.reactor.writev.short"), 0u);
}

}  // namespace
}  // namespace apcm
