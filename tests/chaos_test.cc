// Deterministic fault-injection suite (ctest label: chaos). Every scenario
// drives a scripted fault schedule through armed failpoints and checks exact
// agreement with a fault-free oracle: same events, same subscriptions, same
// match sets, summarized as an FNV-1a hash that must be byte-identical run
// to run. There are no sleeps standing in for synchronization and no flake
// budget — waits are deadline-polls on observable state (metrics, failpoint
// hit counters, delivered matches), and probabilistic failpoints are seeded.
//
// The whole file compiles in every build; scenarios GTEST_SKIP() at runtime
// unless the binary was built with -DAPCM_FAILPOINTS=ON (failpoint::kEnabled).

#include "src/base/failpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/be/catalog.h"
#include "src/be/parser.h"
#include "src/be/string_dictionary.h"
#include "src/engine/engine.h"
#include "src/net/client.h"
#include "src/net/frame.h"
#include "src/net/server.h"

namespace apcm {
namespace {

using engine::EngineOptions;
using engine::StreamEngine;
using net::Client;
using net::EventServer;
using net::EventServerOptions;
using net::Frame;
using net::FrameDecoder;
using net::FrameType;

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

/// FNV-1a over a match-set map (event key -> ascending sub ids). The
/// determinism assertions compare these digests across runs, so the digest
/// must depend only on logical content, never on iteration order — std::map
/// plus pre-sorted rows give that.
uint64_t HashMatchSets(const std::map<uint64_t, std::vector<uint64_t>>& sets) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [key, subs] : sets) {
    mix(key);
    mix(subs.size());
    for (uint64_t s : subs) mix(s);
  }
  return h;
}

/// Deterministic workload: `subs` random boolean expressions (the
/// net_server_test generator shape) and `events` random events over
/// attributes a0..a7, all derived from `seed`.
struct Workload {
  std::vector<std::string> expressions;
  std::vector<Event> events;
};

Workload MakeWorkload(uint64_t seed, int subs, int num_events) {
  Rng rng(seed);
  auto make_conjunction = [&rng]() {
    static const char* kOps[] = {">=", "<=", ">", "<", "=", "!="};
    std::string text;
    std::set<uint64_t> used;
    const int preds = 1 + static_cast<int>(rng.Uniform(3));
    for (int p = 0; p < preds; ++p) {
      uint64_t attr = rng.Uniform(8);
      if (!used.insert(attr).second) continue;
      if (!text.empty()) text += " and ";
      text += "a" + std::to_string(attr) + " " + kOps[rng.Uniform(6)] + " " +
              std::to_string(rng.Uniform(100));
    }
    return text;
  };
  Workload w;
  for (int i = 0; i < subs; ++i) {
    std::string text = make_conjunction();
    if (rng.Bernoulli(0.3)) text += " or " + make_conjunction();
    w.expressions.push_back(std::move(text));
  }
  for (int i = 0; i < num_events; ++i) {
    std::vector<Event::Entry> entries;
    uint64_t attr = rng.Uniform(3);
    while (attr < 8) {
      entries.push_back({static_cast<AttributeId>(attr),
                         static_cast<int64_t>(rng.Uniform(100))});
      attr += 1 + rng.Uniform(4);
    }
    w.events.push_back(Event::FromSorted(std::move(entries)));
  }
  return w;
}

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.batch_size = 16;
  options.osr.window_size = 0;
  options.buffer_capacity = 16;
  options.matcher.pcm.clustering.cluster_size = 32;
  return options;
}

EventServerOptions SmallServerOptions() {
  EventServerOptions options;
  options.engine = SmallEngineOptions();
  return options;
}

/// Replays `workload` through a fault-free StreamEngine (the oracle) and
/// returns publish-index -> ascending registration indices of the matches.
std::map<uint64_t, std::vector<uint64_t>> OracleMatchSets(
    const Workload& workload, const EngineOptions& options) {
  Catalog catalog;
  StringDictionary strings;
  Parser parser(&catalog, &strings);
  std::map<uint64_t, std::vector<uint64_t>> rows;  // event id -> reg index
  std::map<SubscriptionId, uint64_t> sub_index;
  std::mutex mu;
  StreamEngine oracle(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        std::lock_guard<std::mutex> lock(mu);
        if (matches.empty()) return;
        std::vector<uint64_t>& row = rows[event_id];
        for (SubscriptionId id : matches) row.push_back(sub_index.at(id));
      });
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    auto disjuncts = parser.ParseDisjunction(workload.expressions[i]);
    EXPECT_TRUE(disjuncts.ok()) << workload.expressions[i];
    auto added = disjuncts->size() == 1
                     ? oracle.AddSubscription(std::move((*disjuncts)[0]))
                     : oracle.AddDisjunctiveSubscription(std::move(*disjuncts));
    EXPECT_TRUE(added.ok()) << workload.expressions[i];
    sub_index[*added] = i;
  }
  std::vector<uint64_t> event_ids;
  for (const Event& event : workload.events) {
    event_ids.push_back(oracle.Publish(event));
  }
  oracle.Flush();
  std::lock_guard<std::mutex> lock(mu);
  std::map<uint64_t, std::vector<uint64_t>> by_index;
  for (size_t k = 0; k < event_ids.size(); ++k) {
    auto it = rows.find(event_ids[k]);
    if (it == rows.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    by_index[k] = std::move(row);
  }
  return by_index;
}

/// Connect-only raw TCP socket against 127.0.0.1:`port`; send bytes now,
/// read whatever the server ever sends back later (until it closes).
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConn() { Close(); }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Blocks until the server closes the connection; returns all bytes read.
  std::string ReadUntilClosed() {
    std::string response;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<size_t>(n));
    }
    return response;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

std::string EncodePublish(uint64_t seq, const Event& event) {
  Frame frame;
  frame.type = FrameType::kPublish;
  frame.seq = seq;
  frame.event = event;
  return EncodeFrame(frame);
}

/// Plain HTTP/1.0 GET against the engine's admin server.
std::string HttpGet(int port, const std::string& path) {
  RawConn conn(port);
  conn.Send("GET " + path + " HTTP/1.0\r\n\r\n");
  return conn.ReadUntilClosed();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kEnabled) {
      GTEST_SKIP() << "failpoints compiled out; build with -DAPCM_FAILPOINTS=ON";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override { failpoint::DisarmAll(); }

  static constexpr auto kDeadline = std::chrono::seconds(60);

  /// Deadline-polls `condition` (no fixed sleeps standing in for ordering;
  /// the condition is always observable state).
  static void AwaitTrue(const std::function<bool()>& condition,
                        const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + kDeadline;
    while (!condition()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
};

#ifdef APCM_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// Registry semantics: spec grammar, count exhaustion, seeded determinism.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, SpecParsingCountingAndSeededDeterminism) {
  auto& registry = failpoint::Registry::Instance();

  // count*: fires exactly count times, then restores the zero-cost path.
  failpoint::Failpoint* counted = registry.Register("chaos.unit.count");
  ASSERT_TRUE(counted->Configure("2*return(7)").ok());
  EXPECT_TRUE(counted->armed());
  uint64_t arg = 0;
  EXPECT_TRUE(counted->Fire(&arg));
  EXPECT_EQ(arg, 7u);
  EXPECT_TRUE(counted->Fire(&arg));
  EXPECT_FALSE(counted->armed());
  EXPECT_EQ(counted->spec(), "off");
  EXPECT_FALSE(counted->Fire(&arg));
  EXPECT_EQ(counted->hits(), 2u);

  // delay / yield perturb the schedule but never trigger injection.
  failpoint::Failpoint* perturb = registry.Register("chaos.unit.perturb");
  ASSERT_TRUE(perturb->Configure("delay(1)").ok());
  EXPECT_FALSE(perturb->Fire(&arg));
  ASSERT_TRUE(perturb->Configure("yield").ok());
  EXPECT_FALSE(perturb->Fire(&arg));
  EXPECT_EQ(perturb->hits(), 2u);

  // Identical seeds produce identical probabilistic decision streams, and
  // re-configuring re-seeds so a schedule replays exactly.
  failpoint::Failpoint* prob_a = registry.Register("chaos.unit.prob_a");
  failpoint::Failpoint* prob_b = registry.Register("chaos.unit.prob_b");
  ASSERT_TRUE(prob_a->Configure("50%return@1234").ok());
  ASSERT_TRUE(prob_b->Configure("50%return@1234").ok());
  std::vector<bool> stream_a, stream_b;
  bool any = false, all = true;
  for (int i = 0; i < 64; ++i) {
    const bool fired = prob_a->Fire(nullptr);
    stream_a.push_back(fired);
    stream_b.push_back(prob_b->Fire(nullptr));
    any |= fired;
    all &= fired;
  }
  EXPECT_EQ(stream_a, stream_b);
  EXPECT_TRUE(any);
  EXPECT_FALSE(all);
  ASSERT_TRUE(prob_a->Configure("50%return@1234").ok());
  std::vector<bool> replay;
  for (int i = 0; i < 64; ++i) replay.push_back(prob_a->Fire(nullptr));
  EXPECT_EQ(replay, stream_a);

  // Parse errors leave the previous arming untouched.
  failpoint::Failpoint* robust = registry.Register("chaos.unit.robust");
  ASSERT_TRUE(robust->Configure("return").ok());
  EXPECT_EQ(robust->Configure("explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(robust->Configure("150%return").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(robust->Configure("0*return").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(robust->Configure("return(x)").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(robust->Configure("5%return@zz").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(robust->armed());
  EXPECT_EQ(robust->spec(), "return");

  // Multi-entry spec strings (the APCM_FAILPOINTS grammar).
  ASSERT_TRUE(failpoint::ConfigureFromSpec(
                  "chaos.unit.m1=3*return, chaos.unit.m2=5%yield@3")
                  .ok());
  bool saw_m1 = false;
  for (const failpoint::PointInfo& info : failpoint::List()) {
    if (info.name == "chaos.unit.m1") {
      saw_m1 = true;
      EXPECT_EQ(info.spec, "3*return");
    }
  }
  EXPECT_TRUE(saw_m1);
  EXPECT_EQ(failpoint::ConfigureFromSpec("chaos.unit.m1=return,oops").code(),
            StatusCode::kInvalidArgument);
}

#endif  // APCM_FAILPOINTS_ENABLED

// ---------------------------------------------------------------------------
// /failpoints admin endpoint + apcm_failpoint_hits_total metric.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, AdminEndpointListsArmsDisarmsAndExportsHits) {
  EngineOptions options = SmallEngineOptions();
  options.admin_port = -1;  // kernel-assigned, for tests
  StreamEngine engine(options, [](uint64_t, const std::vector<SubscriptionId>&) {});
  const int port = engine.admin_port();
  ASSERT_GT(port, 0);

  // Arm through the endpoint, fire through the macro: 3*return exhausts.
  const std::string armed =
      HttpGet(port, "/failpoints?arm=chaos.admin.probe=3*return(9)");
  EXPECT_NE(armed.find("200 OK"), std::string::npos) << armed;
  for (int i = 0; i < 5; ++i) {
    APCM_FAILPOINT("chaos.admin.probe");
  }
  EXPECT_EQ(failpoint::Hits("chaos.admin.probe"), 3u);

  const std::string list = HttpGet(port, "/failpoints");
  EXPECT_NE(list.find("\"enabled\":true"), std::string::npos) << list;
  EXPECT_NE(list.find("\"chaos.admin.probe\""), std::string::npos) << list;
  EXPECT_NE(list.find("\"hits\":3"), std::string::npos) << list;

  // The hit counter rolls up into the engine's metric registry.
  EXPECT_GE(CounterValue(engine.metrics_registry(),
                         "apcm_failpoint_hits_total"),
            3u);

  // Disarm through the endpoint; hit counts survive.
  EXPECT_NE(HttpGet(port, "/failpoints?disarm=chaos.admin.probe")
                .find("200 OK"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/failpoints?disarm=all").find("200 OK"),
            std::string::npos);
  EXPECT_EQ(failpoint::Hits("chaos.admin.probe"), 3u);

  // Unknown queries and malformed specs are 400s, not crashes.
  EXPECT_NE(HttpGet(port, "/failpoints?bogus=1").find("400"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/failpoints?arm=chaos.admin.probe=explode")
                .find("400"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario: snapshot rebuilds racing subscription removal. Faults hold
// background compactions in flight (delays at the rebuild seams) while
// removals land mid-schedule; the delivered match sets must be byte-identical
// to the fault-free run of the same schedule.
// ---------------------------------------------------------------------------

namespace {

uint64_t RunRebuildChurnSchedule(const Workload& workload) {
  EngineOptions options = SmallEngineOptions();
  options.batch_size = 8;
  // Tiny threshold: every applied removal crosses the delta fraction and
  // schedules a background compaction, maximizing rebuild/removal overlap.
  options.incremental_rebuild_threshold = 0.01;

  Catalog catalog;
  StringDictionary strings;
  Parser parser(&catalog, &strings);
  std::map<uint64_t, std::vector<uint64_t>> rows;
  std::map<SubscriptionId, uint64_t> sub_index;
  std::mutex mu;
  StreamEngine engine(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        std::lock_guard<std::mutex> lock(mu);
        if (matches.empty()) return;
        std::vector<uint64_t>& row = rows[event_id];
        for (SubscriptionId id : matches) row.push_back(sub_index.at(id));
      });
  std::vector<SubscriptionId> sub_ids;
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    auto disjuncts = parser.ParseDisjunction(workload.expressions[i]);
    EXPECT_TRUE(disjuncts.ok()) << workload.expressions[i];
    auto added = disjuncts->size() == 1
                     ? engine.AddSubscription(std::move((*disjuncts)[0]))
                     : engine.AddDisjunctiveSubscription(std::move(*disjuncts));
    EXPECT_TRUE(added.ok()) << workload.expressions[i];
    sub_index[*added] = i;
    sub_ids.push_back(*added);
  }

  // 16-event segments: rounds trigger inline at publishes 16, 32, ... (the
  // buffer capacity), so a removal after the 8th event of each segment lands
  // between the same two rounds every run — while the previous round's
  // delayed compaction is still in flight.
  std::vector<uint64_t> event_ids;
  size_t removed = 0;
  for (size_t i = 0; i < workload.events.size(); ++i) {
    event_ids.push_back(engine.Publish(workload.events[i]));
    if (i % 16 == 7 && removed * 5 < sub_ids.size()) {
      EXPECT_TRUE(engine.RemoveSubscription(sub_ids[removed * 5]).ok());
      ++removed;
    }
  }
  engine.Flush();

  std::lock_guard<std::mutex> lock(mu);
  std::map<uint64_t, std::vector<uint64_t>> by_index;
  for (size_t k = 0; k < event_ids.size(); ++k) {
    auto it = rows.find(event_ids[k]);
    if (it == rows.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    by_index[k] = std::move(row);
  }
  return HashMatchSets(by_index);
}

constexpr char kChurnFaults[] =
    "engine.rebuild.start=delay(2000),"
    "engine.rebuild.publish=delay(2000),"
    "engine.apply_delta=yield,"
    "threadpool.dispatch=25%yield@11";

}  // namespace

TEST_F(ChaosTest, RebuildDuringUnsubscribeAgreesWithFaultFreeOracle) {
  const Workload workload = MakeWorkload(/*seed=*/7, /*subs=*/40,
                                         /*num_events=*/96);

  const uint64_t publish_hits0 = failpoint::Hits("engine.rebuild.publish");
  const uint64_t delta_hits0 = failpoint::Hits("engine.apply_delta");

  ASSERT_TRUE(failpoint::ConfigureFromSpec(kChurnFaults).ok());
  const uint64_t faulted1 = RunRebuildChurnSchedule(workload);
  EXPECT_GT(failpoint::Hits("engine.rebuild.publish"), publish_hits0);
  EXPECT_GT(failpoint::Hits("engine.apply_delta"), delta_hits0);

  // Re-arming re-seeds every probabilistic stream: run two is the same
  // schedule, and must produce the identical digest.
  ASSERT_TRUE(failpoint::ConfigureFromSpec(kChurnFaults).ok());
  const uint64_t faulted2 = RunRebuildChurnSchedule(workload);
  EXPECT_EQ(faulted1, faulted2);

  failpoint::DisarmAll();
  const uint64_t oracle = RunRebuildChurnSchedule(workload);
  EXPECT_EQ(faulted1, oracle);
}

// ---------------------------------------------------------------------------
// Scenario: ACK, then stop before the pump flushed. A delay at the pump's
// flush seam keeps admitted events sitting in the queue; Stop() arrives with
// the backlog pending and must still deliver a MATCH for every ACKed event
// before closing sockets (acknowledged means durable).
// ---------------------------------------------------------------------------

namespace {

uint64_t RunAckThenStopSchedule(const Workload& workload,
                                size_t expected_rows) {
  EventServer server(SmallServerOptions());
  EXPECT_TRUE(server.Start().ok());

  Client subscriber;
  EXPECT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    EXPECT_TRUE(subscriber.Subscribe(i, workload.expressions[i]).ok());
  }

  const uint64_t pump_hits0 = failpoint::Hits("net.server.pump.flush");
  EXPECT_TRUE(
      failpoint::Configure("net.server.pump.flush", "delay(100000)").ok());

  Client publisher;
  EXPECT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> acked;
  for (const Event& event : workload.events) {
    auto id = publisher.Publish(event);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    acked.push_back(*id);
  }

  // All 24 publishes are ACKed. Wait until the pump has observed the backlog
  // (it is now stalled inside the injected delay, the exact window Stop()'s
  // drain must cover), then stop.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (failpoint::Hits("net.server.pump.flush") == pump_hits0) {
    EXPECT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Stop();

  // Everything owed is in (or on its way to) our socket buffer; drain to the
  // close marker.
  std::map<uint64_t, std::vector<uint64_t>> received;
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/1000);
    if (!match.ok() || !match->has_value()) break;
    std::vector<uint64_t>& row = received[(*match)->event_id];
    row.insert(row.end(), (*match)->sub_ids.begin(), (*match)->sub_ids.end());
  }
  EXPECT_EQ(received.size(), expected_rows);

  // Re-key by publish order so the digest is comparable across runs.
  std::map<uint64_t, std::vector<uint64_t>> by_index;
  for (size_t k = 0; k < acked.size(); ++k) {
    auto it = received.find(acked[k]);
    if (it == received.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    by_index[k] = std::move(row);
  }
  return HashMatchSets(by_index);
}

}  // namespace

TEST_F(ChaosTest, AckThenStopBeforeFlushDeliversEveryAckedMatch) {
  const Workload workload = MakeWorkload(/*seed=*/19, /*subs=*/8,
                                         /*num_events=*/24);
  const std::map<uint64_t, std::vector<uint64_t>> oracle =
      OracleMatchSets(workload, SmallEngineOptions());
  const uint64_t oracle_hash = HashMatchSets(oracle);

  const uint64_t run1 = RunAckThenStopSchedule(workload, oracle.size());
  EXPECT_GT(failpoint::Hits("net.server.pump.flush"), 0u);
  failpoint::DisarmAll();
  const uint64_t run2 = RunAckThenStopSchedule(workload, oracle.size());

  EXPECT_EQ(run1, oracle_hash);
  EXPECT_EQ(run2, oracle_hash);
}

// ---------------------------------------------------------------------------
// Scenario: a background compaction must not hold MATCH delivery. The
// serving pump runs one round at a time and never waits on a rebuild, so
// while an injected two-second compaction is in flight a fresh publish still
// gets its MATCH.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, PumpDeliversWhileCompactionIsInFlight) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  // Publishes one event and returns how many subscriptions its MATCH named.
  auto publish_and_await = [&](Value value) -> size_t {
    auto id = publisher.Publish(Event::Create({{0, value}}).value());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    const auto deadline = std::chrono::steady_clock::now() + kDeadline;
    while (std::chrono::steady_clock::now() < deadline) {
      auto match = subscriber.PollMatch(/*timeout_ms=*/100);
      EXPECT_TRUE(match.ok()) << match.status().ToString();
      if (match.ok() && match->has_value() && (*match)->event_id == *id) {
        return (*match)->sub_ids.size();
      }
    }
    ADD_FAILURE() << "no MATCH for event " << *id;
    return 0;
  };

  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(subscriber.Subscribe(i, "a0 >= 0").ok());
  }
  EXPECT_EQ(publish_and_await(1), 4u);  // first snapshot, built unarmed

  // Four adds over four live subscriptions put the delta fraction at 0.5,
  // past incremental_rebuild_threshold (0.25): the next round applies them
  // and schedules a compaction, which the failpoint holds for 2 s.
  const uint64_t hits0 = failpoint::Hits("engine.rebuild.start");
  ASSERT_TRUE(
      failpoint::Configure("engine.rebuild.start", "1*delay(2000000)").ok());
  for (uint64_t i = 4; i < 8; ++i) {
    ASSERT_TRUE(subscriber.Subscribe(i, "a0 >= 0").ok());
  }
  EXPECT_EQ(publish_and_await(2), 8u);
  AwaitTrue([&] { return server.engine().rebuild_inflight(); },
            "compaction never started");

  EXPECT_EQ(publish_and_await(3), 8u);
  EXPECT_TRUE(server.engine().rebuild_inflight())
      << "the MATCH waited for the compaction to finish";
  EXPECT_EQ(failpoint::Hits("engine.rebuild.start"), hits0 + 1);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Scenario: stop while a publish is parked on injected backpressure. The
// parked event was never ACKed, so dropping it at shutdown is within
// contract — and nothing ACKed may be lost with it.
// ---------------------------------------------------------------------------

namespace {

uint64_t RunStopWhileParkedSchedule() {
  EventServer server(SmallServerOptions());
  EXPECT_TRUE(server.Start().ok());
  const MetricsRegistry& registry = server.engine().metrics_registry();

  Client subscriber;
  EXPECT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(subscriber.Subscribe(0, "a0 >= 0").ok());

  Client publisher;
  EXPECT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> acked;
  for (int i = 0; i < 6; ++i) {
    auto id = publisher.Publish(Event::Create({{0, i}}).value());
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    acked.push_back(*id);
  }

  // Every admission from here on is rejected as if the queue were full; the
  // raw publish below parks its connection instead of being ACKed.
  EXPECT_TRUE(failpoint::Configure("engine.publish.admit", "return").ok());
  RawConn parked(server.port());
  parked.Send(EncodePublish(/*seq=*/1, Event::Create({{0, 99}}).value()));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (CounterValue(registry, "apcm_net_backpressure_events_total") == 0) {
    EXPECT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(failpoint::Hits("engine.publish.admit"), 0u);

  // Stop with the publish still parked (admission stays jammed throughout).
  server.Stop();

  // The parked event was never acknowledged: its connection closes without
  // an ACK for seq 1 and its event must not have been delivered.
  const std::string raw_response = parked.ReadUntilClosed();
  FrameDecoder decoder;
  decoder.Append(raw_response.data(), raw_response.size());
  for (;;) {
    auto frame = decoder.Next();
    if (!frame.ok() || !frame->has_value()) break;
    EXPECT_FALSE((*frame)->type == FrameType::kAck && (*frame)->seq == 1)
        << "parked publish must not be acknowledged";
  }

  std::map<uint64_t, std::vector<uint64_t>> received;
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/1000);
    if (!match.ok() || !match->has_value()) break;
    std::vector<uint64_t>& row = received[(*match)->event_id];
    row.insert(row.end(), (*match)->sub_ids.begin(), (*match)->sub_ids.end());
  }

  // Exactly the ACKed events, each matching the catch-all — no more, no less.
  std::map<uint64_t, std::vector<uint64_t>> expected;
  for (uint64_t id : acked) expected[id] = {0};
  EXPECT_EQ(received, expected);
  return HashMatchSets(received);
}

}  // namespace

TEST_F(ChaosTest, StopWhileParkedPublishDropsOnlyTheUnackedEvent) {
  const uint64_t run1 = RunStopWhileParkedSchedule();
  failpoint::DisarmAll();
  const uint64_t run2 = RunStopWhileParkedSchedule();
  EXPECT_EQ(run1, run2);
}

// ---------------------------------------------------------------------------
// Scenario: slow-consumer eviction, made deterministic by injecting EAGAIN
// on every server-side send: no outbox drains, so the victim's 100 fat MATCH
// frames overflow the 2 KiB write-queue bound on the third event, every run.
// Healthy consumers and the ACK stream must be untouched once writes heal.
// ---------------------------------------------------------------------------

namespace {

uint64_t RunSlowConsumerEvictionSchedule() {
  EventServerOptions options = SmallServerOptions();
  options.max_write_queue_bytes = 2048;
  EventServer server(options);
  EXPECT_TRUE(server.Start().ok());
  const MetricsRegistry& registry = server.engine().metrics_registry();

  Client healthy;
  EXPECT_TRUE(healthy.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(healthy.Subscribe(0, "a0 >= 0").ok());

  // The victim's 100 catch-alls make each of its MATCH frames ~800 bytes.
  Client victim;
  EXPECT_TRUE(victim.Connect("127.0.0.1", server.port()).ok());
  for (uint64_t i = 100; i < 200; ++i) {
    EXPECT_TRUE(victim.Subscribe(i, "a0 >= 0").ok());
  }

  // Jam all server-side writes, then publish 12 events fire-and-forget (a
  // Client would block on its ACK, which is itself jammed).
  EXPECT_TRUE(
      failpoint::Configure("net.server.send.eagain", "return").ok());
  RawConn publisher(server.port());
  for (uint64_t i = 0; i < 12; ++i) {
    Frame frame;
    frame.type = FrameType::kPublish;
    frame.seq = i + 1;
    frame.event = Event::Create({{0, static_cast<int64_t>(i)}}).value();
    publisher.Send(EncodeFrame(frame));
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (CounterValue(registry, "apcm_net_slow_consumer_disconnects_total") ==
         0) {
    EXPECT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(failpoint::Hits("net.server.send.eagain"), 0u);

  // Heal the writes; the surviving outboxes drain on the next I/O pass.
  EXPECT_TRUE(failpoint::Configure("net.server.send.eagain", "off").ok());

  std::map<uint64_t, std::vector<uint64_t>> received;
  const auto drain_deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
  while (received.size() < 12 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    auto match = healthy.PollMatch(/*timeout_ms=*/100);
    EXPECT_TRUE(match.ok()) << match.status().ToString();
    if (!match.ok() || !match->has_value()) continue;
    received[(*match)->event_id] = (*match)->sub_ids;
  }

  // The healthy subscriber saw every event exactly once, and its connection
  // (plus the publisher's, whose ACK backlog was far below the bound) were
  // not swept up in the eviction.
  EXPECT_EQ(received.size(), 12u);
  for (const auto& [event_id, subs] : received) {
    EXPECT_EQ(subs, (std::vector<uint64_t>{0})) << "event " << event_id;
  }
  EXPECT_TRUE(healthy.Ping().ok());
  EXPECT_GE(CounterValue(registry, "apcm_net_slow_consumer_disconnects_total"),
            1u);

  publisher.Close();
  server.Stop();
  return HashMatchSets(received);
}

}  // namespace

TEST_F(ChaosTest, SlowConsumerEvictionIsDeterministicUnderJammedWrites) {
  const uint64_t run1 = RunSlowConsumerEvictionSchedule();
  failpoint::DisarmAll();
  const uint64_t run2 = RunSlowConsumerEvictionSchedule();
  EXPECT_EQ(run1, run2);
}

// ---------------------------------------------------------------------------
// Scenario: slow-consumer herd at connection scale, against the epoll
// reactor (io_threads = 4). A 1k-subscriber herd in which every 10th
// connection jams its reads and carries fat subscriptions (24 catch-alls,
// so each of its MATCH frames is an order of magnitude heavier than a
// healthy subscriber's). A server-side write jam makes outbox growth
// deterministic during the broadcast storm: exactly the jammed cohort
// crosses the 2 KiB bound and is evicted, every run. Healthy subscribers
// must then observe complete, in-order streams once writes heal — under
// spurious-wakeup and phantom-readable perturbation — and Stop() drains.
// ---------------------------------------------------------------------------

namespace {

uint64_t RunSlowConsumerHerdSchedule(int herd) {
  const int jam_every = 10;
  EventServerOptions options = SmallServerOptions();
  options.io_threads = 4;
  options.max_write_queue_bytes = 2048;
  EventServer server(options);
  EXPECT_TRUE(server.Start().ok());
  const MetricsRegistry& registry = server.engine().metrics_registry();

  std::vector<std::unique_ptr<Client>> healthy;
  std::vector<std::unique_ptr<Client>> jammed;
  for (int i = 0; i < herd; ++i) {
    auto client = std::make_unique<Client>();
    Status st = client->Connect("127.0.0.1", server.port());
    EXPECT_TRUE(st.ok()) << "connection " << i << ": " << st.ToString();
    if (!st.ok()) return 0;
    if (i % jam_every == jam_every - 1) {
      for (uint64_t s = 0; s < 24; ++s) {
        EXPECT_TRUE(client->Subscribe(s, "a0 >= 0").ok());
      }
      jammed.push_back(std::move(client));
    } else {
      EXPECT_TRUE(client->Subscribe(0, "a0 >= 0").ok());
      healthy.push_back(std::move(client));
    }
  }

  // Jam every server-side write and perturb the loop's readiness
  // bookkeeping, then storm: 12 broadcast events, fire-and-forget (a
  // Client would block on its ACK, which is itself jammed). Each jammed
  // connection's 12 fat MATCH frames (~220 B apiece) overflow the 2 KiB
  // bound; each healthy outbox stays an order of magnitude below it.
  EXPECT_TRUE(failpoint::ConfigureFromSpec(
                  "net.server.send.eagain=return,"
                  "net.reactor.wakeup=5%return@71,"
                  "net.reactor.readable=5%return@73")
                  .ok());
  RawConn publisher(server.port());
  for (uint64_t i = 0; i < 12; ++i) {
    publisher.Send(EncodePublish(
        i + 1, Event::Create({{0, static_cast<int64_t>(i)}}).value()));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (CounterValue(registry, "apcm_net_slow_consumer_disconnects_total") <
         jammed.size()) {
    EXPECT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(failpoint::Hits("net.server.send.eagain"), 0u);
  EXPECT_GT(failpoint::Hits("net.reactor.wakeup"), 0u);

  // Heal the writes (perturbation stays armed); surviving outboxes drain
  // via the stalled-write probe and every healthy subscriber reads its
  // complete stream: all 12 events, publish order, exactly its own sub.
  EXPECT_TRUE(failpoint::Configure("net.server.send.eagain", "off").ok());
  std::map<uint64_t, std::vector<uint64_t>> digest_rows;
  std::vector<uint64_t> reference;
  for (size_t c = 0; c < healthy.size(); ++c) {
    std::vector<uint64_t> ids;
    for (int k = 0; k < 12; ++k) {
      auto match = healthy[c]->PollMatch(/*timeout_ms=*/10000);
      EXPECT_TRUE(match.ok()) << match.status().ToString();
      if (!match.ok() || !match->has_value()) break;
      EXPECT_EQ((*match)->sub_ids, (std::vector<uint64_t>{0}));
      ids.push_back((*match)->event_id);
    }
    EXPECT_EQ(ids.size(), 12u) << "healthy subscriber " << c;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()))
        << "healthy subscriber " << c << " saw events out of order";
    if (c == 0) {
      reference = ids;
      for (size_t k = 0; k < ids.size(); ++k) digest_rows[k] = {ids[k]};
    } else {
      EXPECT_EQ(ids, reference) << "healthy subscriber " << c;
    }
  }

  // Eviction landed on exactly the jammed cohort: the count matches it and
  // every healthy connection is still alive and serviceable.
  EXPECT_EQ(CounterValue(registry, "apcm_net_slow_consumer_disconnects_total"),
            jammed.size());
  for (auto& client : healthy) EXPECT_TRUE(client->Ping().ok());

  publisher.Close();
  server.Stop();
  return HashMatchSets(digest_rows);
}

}  // namespace

TEST_F(ChaosTest, SlowConsumerHerdEvictsOnlyTheJammedCohort) {
  const uint64_t run1 = RunSlowConsumerHerdSchedule(/*herd=*/1000);
  failpoint::DisarmAll();
  const uint64_t run2 = RunSlowConsumerHerdSchedule(/*herd=*/1000);
  EXPECT_EQ(run1, run2);
}

// ---------------------------------------------------------------------------
// Scenario: torn frames. Seeded probabilistic short reads/writes on both
// sides plus injected EINTR shred every frame boundary; the protocol must
// reassemble perfectly — exact agreement with the fault-free oracle engine.
// ---------------------------------------------------------------------------

namespace {

constexpr char kTornIoFaults[] =
    "net.server.recv.short=35%return(3)@101,"
    "net.client.recv.short=35%return(2)@103,"
    "net.server.send.short=30%return(7)@105,"
    "net.client.send.short=30%return(5)@107,"
    "net.server.recv.eintr=10%return@109,"
    "net.client.recv.eintr=10%return@111";

uint64_t RunTornFrameSchedule(const Workload& workload, size_t expected_rows) {
  EXPECT_TRUE(failpoint::ConfigureFromSpec(kTornIoFaults).ok());

  EventServer server(SmallServerOptions());
  EXPECT_TRUE(server.Start().ok());

  Client subscriber;
  EXPECT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    EXPECT_TRUE(subscriber.Subscribe(i, workload.expressions[i]).ok())
        << workload.expressions[i];
  }
  Client publisher;
  EXPECT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> acked;
  for (const Event& event : workload.events) {
    auto id = publisher.Publish(event);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    acked.push_back(*id);
  }

  std::map<uint64_t, std::vector<uint64_t>> received;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
  while (received.size() < expected_rows &&
         std::chrono::steady_clock::now() < deadline) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/100);
    EXPECT_TRUE(match.ok()) << match.status().ToString();
    if (!match.ok() || !match->has_value()) continue;
    std::vector<uint64_t>& row = received[(*match)->event_id];
    row.insert(row.end(), (*match)->sub_ids.begin(), (*match)->sub_ids.end());
  }
  failpoint::DisarmAll();
  server.Stop();

  std::map<uint64_t, std::vector<uint64_t>> by_index;
  for (size_t k = 0; k < acked.size(); ++k) {
    auto it = received.find(acked[k]);
    if (it == received.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    by_index[k] = std::move(row);
  }
  return HashMatchSets(by_index);
}

}  // namespace

TEST_F(ChaosTest, TornFramesReassembleToOracleAgreement) {
  const Workload workload = MakeWorkload(/*seed=*/33, /*subs=*/16,
                                         /*num_events=*/60);
  const std::map<uint64_t, std::vector<uint64_t>> oracle =
      OracleMatchSets(workload, SmallEngineOptions());
  const uint64_t oracle_hash = HashMatchSets(oracle);

  const uint64_t run1 = RunTornFrameSchedule(workload, oracle.size());
  // Hundreds of syscalls at 30-35% injection probability: every short-I/O
  // point must have fired (P[miss] < 2^-100 — deterministic in practice and
  // replayed exactly by the seeds).
  EXPECT_GT(failpoint::Hits("net.server.recv.short"), 0u);
  EXPECT_GT(failpoint::Hits("net.client.recv.short"), 0u);
  EXPECT_GT(failpoint::Hits("net.server.send.short"), 0u);
  EXPECT_GT(failpoint::Hits("net.client.send.short"), 0u);
  const uint64_t run2 = RunTornFrameSchedule(workload, oracle.size());

  EXPECT_EQ(run1, oracle_hash);
  EXPECT_EQ(run2, oracle_hash);
}

// ---------------------------------------------------------------------------
// Scenario: accept() failure (EMFILE). New connections stall — a Ping into
// the unaccepted backlog times out and fails the client — while existing
// ones keep working; connectivity heals the moment the point is disarmed.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, AcceptFailureStallsNewConnectionsUntilDisarmed) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client established;
  ASSERT_TRUE(established.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(established.Ping().ok());

  ASSERT_TRUE(failpoint::Configure("net.server.accept.fail", "return").ok());
  Client stalled;
  // connect() succeeds into the kernel backlog, but the server never
  // accepts; the bounded Ping times out and fails the connection.
  ASSERT_TRUE(stalled.Connect("127.0.0.1", server.port()).ok());
  const Status ping = stalled.Ping(/*timeout_ms=*/500);
  EXPECT_EQ(ping.code(), StatusCode::kIOError) << ping.ToString();
  EXPECT_FALSE(stalled.connected());
  AwaitTrue([] { return failpoint::Hits("net.server.accept.fail") > 0; },
            "accept failpoint never fired");

  // Established connections never noticed.
  ASSERT_TRUE(established.Ping().ok());

  failpoint::DisarmAll();
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(fresh.Ping().ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Scenario: scheduling faults on the trace path. With every event sampled
// (sample_every=1, maximal exposure) the seams inside EventTracer::Admit and
// ::Finalize are perturbed with delays and yields; tracing is observability,
// so the match digest must be bit-identical to the fault-free oracle.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ArmedTraceFaultsNeverChangeMatchDigests) {
  const Workload workload = MakeWorkload(/*seed=*/20260808, /*subs=*/48,
                                         /*num_events=*/96);
  EngineOptions options = SmallEngineOptions();
  options.trace_sample_every = 1;

  const uint64_t oracle_digest =
      HashMatchSets(OracleMatchSets(workload, options));

  const uint64_t claim_hits0 = failpoint::Hits("trace.sample.claim");
  const uint64_t finalize_hits0 = failpoint::Hits("trace.finalize");
  ASSERT_TRUE(
      failpoint::Configure("trace.sample.claim", "25%delay(200)@7").ok());
  ASSERT_TRUE(failpoint::Configure("trace.finalize", "25%yield@11").ok());
  const uint64_t faulted_digest =
      HashMatchSets(OracleMatchSets(workload, options));
  EXPECT_GT(failpoint::Hits("trace.sample.claim"), claim_hits0);
  EXPECT_GT(failpoint::Hits("trace.finalize"), finalize_hits0);
  EXPECT_EQ(faulted_digest, oracle_digest)
      << "trace-path faults leaked into matching";
}

}  // namespace
}  // namespace apcm
