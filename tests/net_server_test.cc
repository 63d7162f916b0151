// Loopback end-to-end suite for the EventServer: subscribe/publish/match
// round trips, a differential oracle against direct StreamEngine use,
// reject-policy backpressure pausing a flooding publisher without losing
// ACKed events, graceful Stop() under traffic, and the slow-consumer /
// protocol-violation disconnect paths. scripts/check.sh --tsan replays this
// binary under ThreadSanitizer, so sizes are chosen to survive ~20x
// slowdown.

#include "src/net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"
#include "tests/net_oracle_util.h"

namespace apcm::net {
namespace {

using engine::BackpressurePolicy;
using engine::EngineOptions;
using engine::MatcherKind;

uint64_t CounterValue(const MetricsRegistry& registry,
                      const std::string& name) {
  for (const MetricSample& sample : registry.Collect()) {
    if (sample.name == name) return sample.counter_value;
  }
  ADD_FAILURE() << "metric not registered: " << name;
  return 0;
}

EventServerOptions SmallServerOptions() {
  EventServerOptions options;
  options.engine.batch_size = 16;
  options.engine.osr.window_size = 0;
  options.engine.buffer_capacity = 16;
  options.engine.matcher.pcm.clustering.cluster_size = 32;
  return options;
}

TEST(NetServerTest, SubscribePublishMatchRoundTrip) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(subscriber.Ping().ok());
  ASSERT_TRUE(subscriber.Subscribe(7, "a0 >= 10 and a1 < 50").ok());
  ASSERT_TRUE(subscriber.Subscribe(8, "a0 >= 100 or a1 = 3").ok());

  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  // Matches sub 7 only (a0 >= 10, a1 < 50, a1 != 3, a0 < 100).
  auto id0 = publisher.Publish(Event::Create({{0, 20}, {1, 30}}).value());
  ASSERT_TRUE(id0.ok()) << id0.status().ToString();
  // Matches both (a1 = 3 also satisfies a1 < 50).
  auto id1 = publisher.Publish(Event::Create({{0, 20}, {1, 3}}).value());
  ASSERT_TRUE(id1.ok());
  // Matches neither.
  auto id2 = publisher.Publish(Event::Create({{0, 5}, {1, 60}}).value());
  ASSERT_TRUE(id2.ok());

  std::map<uint64_t, std::vector<uint64_t>> received;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/100);
    ASSERT_TRUE(match.ok()) << match.status().ToString();
    if (match->has_value()) {
      received[(*match)->event_id] = (*match)->sub_ids;
    }
  }
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received.at(*id0), (std::vector<uint64_t>{7}));
  EXPECT_EQ(received.at(*id1), (std::vector<uint64_t>{7, 8}));
  EXPECT_EQ(received.count(*id2), 0u);

  // Unsubscribe stops future matches.
  ASSERT_TRUE(subscriber.Unsubscribe(7).ok());
  ASSERT_TRUE(subscriber.Unsubscribe(8).ok());
  auto id3 = publisher.Publish(Event::Create({{0, 20}, {1, 30}}).value());
  ASSERT_TRUE(id3.ok());
  // A PING after the publish has fully round-tripped the server; if a MATCH
  // had been emitted it would already be queued locally after one poll.
  ASSERT_TRUE(subscriber.Ping().ok());
  auto late = subscriber.PollMatch(/*timeout_ms=*/100);
  ASSERT_TRUE(late.ok());
  EXPECT_FALSE(late->has_value());

  server.Stop();
  EXPECT_EQ(server.num_connections(), 0);
}

TEST(NetServerTest, TraceFollowsSampledEventThroughEveryStage) {
  EventServerOptions options = SmallServerOptions();
  // Sample every event so the published event is certainly traced, and tag
  // it with a client-chosen trace id to follow through the flight recorder.
  options.engine.trace_sample_every = 1;
  EventServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(subscriber.Subscribe(1, "a0 >= 0").ok());

  constexpr uint64_t kTraceId = 0x7e5717acedeeull;
  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  auto id = publisher.Publish(Event::Create({{0, 42}}).value(), kTraceId);
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // The MATCH arriving proves the server wrote the frame; the trace
  // finalizes on the server's I/O thread right after the socket write, so
  // poll briefly for the full span set.
  auto match = subscriber.PollMatch(/*timeout_ms=*/5000);
  ASSERT_TRUE(match.ok());
  ASSERT_TRUE(match->has_value());
  EXPECT_EQ((*match)->event_id, *id);

  using engine::EventTracer;
  using engine::TraceRing;
  std::vector<TraceRing::Span> spans;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    spans.clear();
    for (const TraceRing::Span& span : server.engine().trace().Snapshot()) {
      if (span.kind == TraceRing::Kind::kEventStage && span.a == kTraceId) {
        spans.push_back(span);
      }
    }
    if (spans.size() >= EventTracer::kNumStages) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Every stage was recorded — read, admit, queue, match, deliver, write —
  // and timestamps are monotone along every happens-before chain of the
  // pipeline. Two pairs are deliberately NOT ordered: the pump can pop and
  // stamp `queue` before the admitting thread stamps `admit`, and the I/O
  // thread can flush the MATCH frame (stamping `write`) before the engine
  // thread returns from the delivery callback (stamping `deliver`) — under
  // TSan's ~20x skew both races are routinely observable.
  ASSERT_EQ(spans.size(), static_cast<size_t>(EventTracer::kNumStages));
  int64_t ts[EventTracer::kNumStages];
  for (uint32_t s = 0; s < EventTracer::kNumStages; ++s) {
    EXPECT_EQ(spans[s].b, s) << "missing stage "
                             << EventTracer::StageName(s);
    ts[s] = static_cast<int64_t>(spans[s].c);
  }
  EXPECT_LE(ts[EventTracer::kRead], ts[EventTracer::kAdmit]);
  EXPECT_LE(ts[EventTracer::kRead], ts[EventTracer::kQueue]);
  EXPECT_LE(ts[EventTracer::kQueue], ts[EventTracer::kMatch]);
  EXPECT_LE(ts[EventTracer::kMatch], ts[EventTracer::kDeliver]);
  EXPECT_LE(ts[EventTracer::kMatch], ts[EventTracer::kWrite]);
  EXPECT_GE(server.engine().tracer().completed(), 1u);

  server.Stop();
}

TEST(NetServerTest, RequestErrorsAreSurfacedPerRequest) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Malformed expression: the request fails, the connection survives.
  Status bad = client.Subscribe(1, "a0 ~~ 5");
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.Ping().ok());

  ASSERT_TRUE(client.Subscribe(1, "a0 >= 0").ok());
  Status duplicate = client.Subscribe(1, "a0 >= 1");
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  Status missing = client.Unsubscribe(99);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, MetricsAreRegisteredAndCount) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Subscribe(1, "a0 >= 0").ok());
  ASSERT_TRUE(client.Publish(Event::Create({{0, 1}}).value()).ok());
  ASSERT_TRUE(client.Ping().ok());

  const MetricsRegistry& registry = server.engine().metrics_registry();
  EXPECT_GE(CounterValue(registry, "apcm_net_frames_in_total"), 3u);
  EXPECT_GE(CounterValue(registry, "apcm_net_frames_out_total"), 3u);
  EXPECT_GT(CounterValue(registry, "apcm_net_bytes_in_total"), 0u);
  EXPECT_GT(CounterValue(registry, "apcm_net_bytes_out_total"), 0u);
  EXPECT_EQ(server.num_connections(), 1);
  client.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.num_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.num_connections(), 0);
}

// Differential oracle: the same subscriptions (as text) and the same events
// through (a) a local StreamEngine fed directly and (b) the network stack —
// the delivered match sets must agree exactly, with client-chosen sub ids
// standing in for the oracle's registration order.
TEST(NetServerTest, DifferentialOracleAgainstDirectEngine) {
  constexpr int kSubs = 40;
  constexpr int kEvents = 200;
  const NetWorkload workload =
      MakeNetWorkload(/*seed=*/42, /*num_subs=*/kSubs, /*num_events=*/kEvents);
  const std::vector<std::string>& expressions = workload.expressions;
  const std::vector<Event>& events = workload.events;

  // Oracle: parse and register the same texts in the same order directly.
  const DirectEngineResult oracle =
      RunDirectEngine(SmallServerOptions().engine, workload);
  ASSERT_EQ(oracle.event_ids.size(), events.size());

  // Remote: same texts via SUBSCRIBE (client id = registration index), same
  // events via PUBLISH.
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < kSubs; ++i) {
    ASSERT_TRUE(
        subscriber.Subscribe(static_cast<uint64_t>(i), expressions[i]).ok())
        << expressions[i];
  }
  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint64_t> remote_event_ids;
  for (const Event& event : events) {
    auto id = publisher.Publish(event);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    remote_event_ids.push_back(*id);
  }

  std::map<uint64_t, std::vector<uint64_t>> remote;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (remote.size() < oracle.matches.size() &&
         std::chrono::steady_clock::now() < deadline) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/100);
    ASSERT_TRUE(match.ok()) << match.status().ToString();
    if (!match->has_value()) continue;
    std::vector<uint64_t>& row = remote[(*match)->event_id];
    row.insert(row.end(), (*match)->sub_ids.begin(), (*match)->sub_ids.end());
  }

  // Exact agreement, event by event (ids correlated by publish order).
  ASSERT_EQ(remote.size(), oracle.matches.size());
  for (int k = 0; k < kEvents; ++k) {
    auto oracle_it = oracle.matches.find(static_cast<size_t>(k));
    auto remote_it = remote.find(remote_event_ids[k]);
    if (oracle_it == oracle.matches.end()) {
      EXPECT_TRUE(remote_it == remote.end()) << "event " << k;
      continue;
    }
    ASSERT_TRUE(remote_it != remote.end()) << "event " << k;
    std::vector<uint64_t> want = oracle_it->second;
    std::vector<uint64_t> got = remote_it->second;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "event " << k;
  }
  server.Stop();
}

// The acceptance scenario: flooding publishers against a deliberately slow,
// tiny-queue engine must trip engine backpressure (rejected publish ->
// paused connection -> retried after drain) and still deliver a MATCH for
// every ACKed event — backpressure sheds nothing that was acknowledged.
TEST(NetServerTest, BackpressurePausesFloodingPublisherWithoutLoss) {
  EventServerOptions options = SmallServerOptions();
  // kScan makes every round cost O(subscriptions); with a 16-deep queue the
  // I/O thread refills to capacity while the pump is mid-round.
  options.engine.kind = MatcherKind::kScan;
  options.engine.batch_size = 16;
  options.engine.buffer_capacity = 16;
  options.engine.queue_capacity = 16;
  EventServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  // One catch-all the events satisfy, plus ballast subscriptions that never
  // match (a0 is always < 1000) but make the scan matcher grind.
  ASSERT_TRUE(subscriber.Subscribe(0, "a0 >= 0").ok());
  for (int i = 1; i <= 800; ++i) {
    ASSERT_TRUE(
        subscriber
            .Subscribe(static_cast<uint64_t>(i),
                       "a0 >= " + std::to_string(1000 + i))
            .ok());
  }

  // Every wire publish is admitted by the single I/O thread, so a socket
  // flood alone only rejects when the pump happens to hold the processing
  // lock at the exact fill instant — a scheduler race that misses on slow
  // or single-CPU machines (the old version flaked exactly that way). A
  // direct-engine flooder thread removes the luck: it hammers TryPublish
  // (kReject, result ignored) so the 16-deep queue is saturated and rounds
  // are constantly in flight; any wire publish that lands meanwhile meets a
  // full queue, parks its connection, and fires the counter. The flood
  // events carry only a1, so the a0 catch-all never matches them and the
  // subscriber's match stream stays exactly the tracked publishers' events.
  std::atomic<bool> saturated{false};
  std::thread flooder([&] {
    const Event filler = Event::Create({{1, 1}}).value();
    while (!saturated.load(std::memory_order_relaxed)) {
      (void)server.engine().TryPublish(filler);
    }
  });

  constexpr int kPublishers = 3;
  constexpr int kMaxPerPublisher = 4000;
  std::atomic<int> running{kPublishers};
  std::vector<std::vector<uint64_t>> acked(kPublishers);
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      Client client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      for (int i = 0; i < kMaxPerPublisher; ++i) {
        auto id = client.Publish(
            Event::Create({{0, static_cast<int64_t>(i % 100)}}).value());
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        acked[p].push_back(*id);
        if (saturated.load(std::memory_order_relaxed)) break;
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  const MetricsRegistry& registry = server.engine().metrics_registry();
  while (running.load(std::memory_order_relaxed) > 0 &&
         !saturated.load(std::memory_order_relaxed)) {
    if (CounterValue(registry, "apcm_net_backpressure_events_total") > 0) {
      saturated.store(true, std::memory_order_relaxed);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  saturated.store(true, std::memory_order_relaxed);
  flooder.join();
  for (std::thread& thread : publishers) thread.join();
  EXPECT_GT(CounterValue(registry, "apcm_net_backpressure_events_total"), 0u);

  // Every ACKed event matches the catch-all, so the subscriber must see a
  // MATCH for each — acknowledged means admitted, paused or not.
  std::set<uint64_t> expected;
  for (const auto& ids : acked) expected.insert(ids.begin(), ids.end());
  std::set<uint64_t> seen;
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (seen.size() < expected.size() &&
         std::chrono::steady_clock::now() < drain_deadline) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/100);
    ASSERT_TRUE(match.ok()) << match.status().ToString();
    if (match->has_value()) seen.insert((*match)->event_id);
  }
  EXPECT_EQ(seen.size(), expected.size());
  for (uint64_t id : expected) {
    ASSERT_TRUE(seen.contains(id)) << "ACKed event " << id << " lost";
  }
  server.Stop();
}

// Stop() during live traffic: everything ACKed before shutdown is matched
// and its notifications are flushed to the subscriber before sockets close.
TEST(NetServerTest, StopDuringTrafficDrainsAcceptedEvents) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());

  Client subscriber;
  ASSERT_TRUE(subscriber.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(subscriber.Subscribe(1, "a0 >= 0").ok());

  constexpr int kPublishers = 2;
  std::vector<std::vector<uint64_t>> acked(kPublishers);
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) return;
      for (int i = 0; i < 100000; ++i) {
        auto id =
            client.Publish(Event::Create({{0, i % 50}, {1, i % 7}}).value());
        if (!id.ok()) return;  // server shut down mid-publish
        acked[p].push_back(*id);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Stop();
  for (std::thread& thread : publishers) thread.join();

  std::set<uint64_t> expected;
  for (const auto& ids : acked) expected.insert(ids.begin(), ids.end());
  ASSERT_FALSE(expected.empty());  // traffic did flow before the stop

  // The server flushed every write queue before closing, so all owed MATCH
  // frames are in (or on their way to) our socket buffer; drain until the
  // close marker (IOError) surfaces.
  std::set<uint64_t> seen;
  for (;;) {
    auto match = subscriber.PollMatch(/*timeout_ms=*/1000);
    if (!match.ok() || !match->has_value()) break;
    seen.insert((*match)->event_id);
  }
  for (uint64_t id : expected) {
    ASSERT_TRUE(seen.contains(id)) << "ACKed event " << id
                                   << " lost in shutdown";
  }
}

TEST(NetServerTest, SlowConsumerIsDisconnected) {
  EventServerOptions options = SmallServerOptions();
  options.max_write_queue_bytes = 4096;
  EventServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client lagger;
  ASSERT_TRUE(lagger.Connect("127.0.0.1", server.port()).ok());
  // 100 catch-all subscriptions make each MATCH frame 824 bytes, so five
  // frames queued ahead of the I/O thread's flush exceed the 4096-byte
  // bound; without such a burst the bound trips once the kernel socket
  // buffers are full.
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(lagger.Subscribe(i, "a0 >= 0").ok());
  }

  Client publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  // The lagger never reads, so its outbox eventually overflows. Publish
  // until the server reaps it. The counter is read
  // once per 64 publishes: a registry Collect per publish would set the
  // pace (and, under TSan, use up most of the deadline) by itself.
  const MetricsRegistry& registry = server.engine().metrics_registry();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int64_t i = 0;
  while (i % 64 != 0 ||
         CounterValue(registry,
                      "apcm_net_slow_consumer_disconnects_total") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    auto id = publisher.Publish(Event::Create({{0, i++ % 100}}).value());
    ASSERT_TRUE(id.ok());
  }
  EXPECT_GE(
      CounterValue(registry, "apcm_net_slow_consumer_disconnects_total"), 1u);

  // The lagger's subscription died with it: new publishes keep flowing and
  // the publisher connection is unaffected.
  ASSERT_TRUE(publisher.Ping().ok());
  ASSERT_TRUE(publisher.Publish(Event::Create({{0, 1}}).value()).ok());
  server.Stop();
}

/// Connects a raw TCP socket, sends `bytes`, and returns everything the
/// server sends back until it closes the connection.
std::string RawExchange(int port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const std::string response =
      RawExchange(server.port(), "GET / HTTP/1.0\r\n\r\n");
  // Bad magic is fatal before any response frame exists.
  EXPECT_TRUE(response.empty());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.num_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.num_connections(), 0);
}

TEST(NetServerTest, ServerToClientFrameTypesAreRejected) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Frame ack;
  ack.type = FrameType::kAck;
  ack.seq = 5;
  const std::string response = RawExchange(server.port(), EncodeFrame(ack));
  // The server answers with an ERROR frame, then closes.
  FrameDecoder decoder;
  decoder.Append(response.data(), response.size());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kError);
  EXPECT_EQ((*frame)->seq, 5u);
  EXPECT_EQ((*frame)->code, StatusCode::kInvalidArgument);
}

TEST(NetServerTest, StartTwiceFailsAndStopIsIdempotent) {
  EventServer server(SmallServerOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  server.Stop();
  server.Stop();
  // A stopped server can be started again on a fresh port.
  ASSERT_TRUE(server.Start().ok());
  Client client;
  EXPECT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

}  // namespace
}  // namespace apcm::net
