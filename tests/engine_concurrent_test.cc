// Concurrency suite for the snapshot-swapped StreamEngine: N publisher
// threads plus a mutator thread doing add/remove/SetPriority churn, with the
// delivery contract (exactly-once, no lost events) asserted under load and
// post-quiesce results checked against a single-threaded reference run.
// These tests are the ones scripts/check.sh --tsan replays under
// ThreadSanitizer, so they are sized to stay fast under ~20x slowdown.

#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/engine/exposition.h"
#include "src/engine/report.h"
#include "src/workload/generator.h"
#include "tests/matcher_test_util.h"

namespace apcm::engine {
namespace {

/// Thread-safe delivery recorder asserting exactly-once per event id.
struct ConcurrentDelivery {
  std::mutex mu;
  std::map<uint64_t, std::vector<SubscriptionId>> by_event;
  uint64_t duplicates = 0;

  StreamEngine::MatchCallback Callback() {
    return [this](uint64_t event_id,
                  const std::vector<SubscriptionId>& matches) {
      std::lock_guard<std::mutex> lock(mu);
      if (!by_event.emplace(event_id, matches).second) duplicates++;
    };
  }
};

EngineOptions ConcurrentOptions() {
  EngineOptions options;
  options.kind = MatcherKind::kAPcm;
  options.matcher.pcm.clustering.cluster_size = 32;
  options.batch_size = 16;
  options.osr.window_size = 0;
  options.buffer_capacity = 32;
  return options;
}

/// ConcurrentOptions with cluster-parallel matching on 2 worker threads,
/// sized (like everything here) to stay fast under TSan.
EngineOptions ThreadedConcurrentOptions() {
  EngineOptions options = ConcurrentOptions();
  options.matcher.pcm.num_threads = 2;
  return options;
}

workload::WorkloadSpec ConcurrentSpec(uint64_t seed, uint32_t num_events) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_subscriptions = 120;
  spec.num_events = num_events;
  spec.num_attributes = 20;
  spec.domain_min = 0;
  spec.domain_max = 500;
  spec.min_predicates = 1;
  spec.max_predicates = 4;
  spec.min_event_attrs = 2;
  spec.max_event_attrs = 8;
  spec.seeded_event_fraction = 0.5;
  return spec;
}

/// Publishes events[begin, end) and records the engine-assigned id of each,
/// so per-event results can be compared by trace position.
void PublishSlice(StreamEngine* engine, const std::vector<Event>& events,
                  size_t begin, size_t end, std::vector<uint64_t>* ids) {
  for (size_t i = begin; i < end; ++i) {
    (*ids)[i] = engine->Publish(events[i]);
  }
}

TEST(EngineConcurrentTest, PublishersAgreeWithSequentialReference) {
  const auto workload = workload::Generate(ConcurrentSpec(1, 400)).value();
  constexpr size_t kPublishers = 4;

  // Sequential reference: one thread, same subscriptions, same events.
  std::map<uint64_t, std::vector<SubscriptionId>> reference;
  {
    ConcurrentDelivery delivery;
    StreamEngine engine(ConcurrentOptions(), delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    std::vector<uint64_t> ids(workload.events.size());
    PublishSlice(&engine, workload.events, 0, workload.events.size(), &ids);
    engine.Flush();
    for (size_t i = 0; i < workload.events.size(); ++i) {
      reference[i] = delivery.by_event.at(ids[i]);
    }
  }

  ConcurrentDelivery delivery;
  StreamEngine engine(ConcurrentOptions(), delivery.Callback());
  for (const auto& sub : workload.subscriptions) {
    ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
  }
  std::vector<uint64_t> ids(workload.events.size());
  std::vector<std::thread> publishers;
  const size_t slice = workload.events.size() / kPublishers;
  for (size_t p = 0; p < kPublishers; ++p) {
    const size_t begin = p * slice;
    const size_t end =
        p + 1 == kPublishers ? workload.events.size() : begin + slice;
    publishers.emplace_back(PublishSlice, &engine, std::cref(workload.events),
                            begin, end, &ids);
  }
  for (auto& t : publishers) t.join();
  engine.Flush();

  EXPECT_EQ(delivery.duplicates, 0u);
  ASSERT_EQ(delivery.by_event.size(), workload.events.size());
  EXPECT_EQ(engine.stats().events_published, workload.events.size());
  EXPECT_EQ(engine.stats().events_processed, workload.events.size());
  // Matching is per-event deterministic, so every event's match set must
  // equal the sequential run's regardless of round boundaries.
  for (size_t i = 0; i < workload.events.size(); ++i) {
    ASSERT_EQ(delivery.by_event.at(ids[i]), reference.at(i))
        << "event " << i;
  }
}

/// Deterministic mutator script: only the mutator thread adds/removes, so
/// engine-assigned subscription ids are identical across runs and the final
/// live set can be reproduced single-threaded.
void RunMutatorScript(StreamEngine* engine, const workload::Workload& extra) {
  std::vector<SubscriptionId> added;
  for (size_t i = 0; i < extra.subscriptions.size(); ++i) {
    auto id = engine->AddSubscription(extra.subscriptions[i].predicates());
    ASSERT_TRUE(id.ok());
    added.push_back(*id);
    if (i % 2 == 1) {
      ASSERT_TRUE(engine->RemoveSubscription(added[i - 1]).ok());
    }
    // Priority churn on a subscription that is never removed.
    ASSERT_TRUE(
        engine->SetPriority(added[i], static_cast<double>(i % 7)).ok());
  }
}

TEST(EngineConcurrentTest, MutatorChurnKeepsDeliveryExactlyOnce) {
  const auto workload = workload::Generate(ConcurrentSpec(2, 300)).value();
  // Subscriptions the mutator feeds in while publishers run.
  auto churn_spec = ConcurrentSpec(3, 1);
  churn_spec.num_subscriptions = 60;
  const auto churn = workload::Generate(churn_spec).value();
  // A second trace published after quiesce, compared exactly.
  const auto probe = workload::Generate(ConcurrentSpec(4, 100)).value();
  constexpr size_t kPublishers = 3;

  auto run = [&](bool concurrent, std::map<uint64_t, std::vector<SubscriptionId>>*
                                      probe_results) {
    ConcurrentDelivery delivery;
    StreamEngine engine(ConcurrentOptions(), delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    std::vector<uint64_t> ids(workload.events.size());
    if (concurrent) {
      std::vector<std::thread> threads;
      const size_t slice = workload.events.size() / kPublishers;
      for (size_t p = 0; p < kPublishers; ++p) {
        const size_t begin = p * slice;
        const size_t end =
            p + 1 == kPublishers ? workload.events.size() : begin + slice;
        threads.emplace_back(PublishSlice, &engine,
                             std::cref(workload.events), begin, end, &ids);
      }
      threads.emplace_back(RunMutatorScript, &engine, std::cref(churn));
      for (auto& t : threads) t.join();
    } else {
      RunMutatorScript(&engine, churn);
      PublishSlice(&engine, workload.events, 0, workload.events.size(), &ids);
    }
    engine.Flush();
    ASSERT_EQ(delivery.duplicates, 0u);
    ASSERT_EQ(delivery.by_event.size(), workload.events.size());

    // Quiesced: the probe trace must now match deterministically.
    std::vector<uint64_t> probe_ids(probe.events.size());
    PublishSlice(&engine, probe.events, 0, probe.events.size(), &probe_ids);
    engine.Flush();
    for (size_t i = 0; i < probe.events.size(); ++i) {
      (*probe_results)[i] = delivery.by_event.at(probe_ids[i]);
    }
  };

  std::map<uint64_t, std::vector<SubscriptionId>> concurrent_probe;
  std::map<uint64_t, std::vector<SubscriptionId>> reference_probe;
  run(/*concurrent=*/true, &concurrent_probe);
  run(/*concurrent=*/false, &reference_probe);
  // Post-quiesce, the concurrent run's live set equals the reference run's
  // (same mutator script, deterministic ids), so probe results must agree.
  EXPECT_EQ(concurrent_probe, reference_probe);
}

TEST(EngineConcurrentTest, BlockingBackpressureDeliversEverything) {
  const auto workload = workload::Generate(ConcurrentSpec(5, 600)).value();
  EngineOptions options = ConcurrentOptions();
  options.buffer_capacity = 16;
  options.queue_capacity = 16;  // tiny: publishers constantly hit the bound
  options.backpressure = BackpressurePolicy::kBlock;
  ConcurrentDelivery delivery;
  StreamEngine engine(options, delivery.Callback());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        engine.AddSubscription(workload.subscriptions[i].predicates()).ok());
  }
  std::vector<uint64_t> ids(workload.events.size());
  std::vector<std::thread> publishers;
  constexpr size_t kPublishers = 4;
  const size_t slice = workload.events.size() / kPublishers;
  for (size_t p = 0; p < kPublishers; ++p) {
    publishers.emplace_back(PublishSlice, &engine, std::cref(workload.events),
                            p * slice, (p + 1) * slice, &ids);
  }
  for (auto& t : publishers) t.join();
  engine.Flush();
  EXPECT_EQ(delivery.duplicates, 0u);
  EXPECT_EQ(delivery.by_event.size(), workload.events.size());
  EXPECT_EQ(engine.stats().events_processed, workload.events.size());
}

// Rejection needs a full queue with no thread able to drain it: a publisher
// thread is parked inside the match callback (holding the processing lock)
// while the main thread refills the queue to capacity — the next TryPublish
// must fail fast with kResourceExhausted rather than block.
TEST(EngineConcurrentTest, RejectPolicyReturnsResourceExhausted) {
  EngineOptions options = ConcurrentOptions();
  options.batch_size = 8;
  options.buffer_capacity = 8;
  options.queue_capacity = 8;
  options.backpressure = BackpressurePolicy::kReject;

  std::atomic<bool> in_callback{false};
  std::atomic<bool> release{false};
  ConcurrentDelivery delivery;
  auto record = delivery.Callback();
  StreamEngine engine(
      options, [&](uint64_t id, const std::vector<SubscriptionId>& matches) {
        in_callback.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        record(id, matches);
      });
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());

  // The 8th publish fills the buffer and runs the round inline; its first
  // callback parks this thread with the processing lock held.
  std::thread publisher([&] {
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(engine.TryPublish(Event::Create({{0, i}}).value()).ok());
    }
  });
  while (!in_callback.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Processor stuck: refill the queue to capacity, then overflow it.
  for (int i = 8; i < 16; ++i) {
    ASSERT_TRUE(engine.TryPublish(Event::Create({{0, i}}).value()).ok());
  }
  auto rejected = engine.TryPublish(Event::Create({{0, 99}}).value());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.stats().publishes_rejected, 1u);

  release.store(true, std::memory_order_release);
  publisher.join();

  engine.Flush();  // drains the queue; publishing works again
  EXPECT_TRUE(engine.TryPublish(Event::Create({{0, 100}}).value()).ok());
  engine.Flush();
  std::lock_guard<std::mutex> lock(delivery.mu);
  EXPECT_EQ(delivery.by_event.size(), 17u);
  EXPECT_EQ(delivery.duplicates, 0u);
}

// The observability acceptance test: 4 publisher threads drive a live engine
// (matching on 2 worker threads) while a scraper thread continuously renders
// Prometheus text, the JSON exposition, the operations report (with its
// hot-spot ranking), the trace dump, and reads stats() —
// exactly what a monitoring agent hitting /metrics does. Under
// scripts/check.sh --tsan this must be race-free.
TEST(EngineConcurrentTest, ScraperRacesPublishersCleanly) {
  const auto workload = workload::Generate(ConcurrentSpec(8, 400)).value();
  constexpr size_t kPublishers = 4;
  ConcurrentDelivery delivery;
  StreamEngine engine(ThreadedConcurrentOptions(), delivery.Callback());
  for (size_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        engine.AddSubscription(workload.subscriptions[i].predicates()).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<uint64_t> ids(workload.events.size());
  std::vector<std::thread> threads;
  const size_t slice = workload.events.size() / kPublishers;
  for (size_t p = 0; p < kPublishers; ++p) {
    threads.emplace_back(PublishSlice, &engine, std::cref(workload.events),
                         p * slice, (p + 1) * slice, &ids);
  }
  std::thread scraper([&] {
    uint64_t scrapes = 0;
    uint64_t last_published = 0;
    while (!stop.load(std::memory_order_acquire) || scrapes == 0) {
      const std::string text = RenderPrometheus(engine.metrics_registry());
      EXPECT_NE(text.find("apcm_events_published_total"), std::string::npos);
      const std::string json = RenderMetricsJson(engine.metrics_registry());
      EXPECT_NE(json.find("\"metrics\""), std::string::npos);
      const std::string report = RenderReport(engine);
      EXPECT_NE(report.find("subscriptions (live)"), std::string::npos);
      (void)engine.trace().ToJson();
      // Live stats reads: atomics and sharded-histogram snapshots.
      const EngineStats& stats = engine.stats();
      const uint64_t published = stats.events_published;
      EXPECT_GE(published, last_published);  // counters are monotonic
      last_published = published;
      (void)stats.batch_latency_ns.Snapshot();
      (void)engine.queue_depth();
      (void)engine.rebuild_inflight();
      ++scrapes;
    }
    EXPECT_GT(scrapes, 0u);
  });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  scraper.join();
  engine.Flush();

  EXPECT_EQ(delivery.duplicates, 0u);
  EXPECT_EQ(delivery.by_event.size(), workload.events.size());
  // Post-quiesce, registry counters agree with stats().
  const std::string text = RenderPrometheus(engine.metrics_registry());
  EXPECT_NE(text.find("apcm_events_published_total " +
                      std::to_string(workload.events.size())),
            std::string::npos)
      << text;
}

// A multi-threaded matcher under concurrent publishers: the matcher's
// worker pool, its per-thread result merge, and snapshot swaps all racing,
// checked against a sequential run.
TEST(EngineConcurrentTest, ThreadedPublishersAgreeWithSequentialReference) {
  const auto workload = workload::Generate(ConcurrentSpec(9, 400)).value();
  constexpr size_t kPublishers = 4;

  std::map<uint64_t, std::vector<SubscriptionId>> reference;
  {
    ConcurrentDelivery delivery;
    StreamEngine engine(ThreadedConcurrentOptions(), delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    std::vector<uint64_t> ids(workload.events.size());
    PublishSlice(&engine, workload.events, 0, workload.events.size(), &ids);
    engine.Flush();
    for (size_t i = 0; i < workload.events.size(); ++i) {
      reference[i] = delivery.by_event.at(ids[i]);
    }
  }

  ConcurrentDelivery delivery;
  StreamEngine engine(ThreadedConcurrentOptions(), delivery.Callback());
  for (const auto& sub : workload.subscriptions) {
    ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
  }
  std::vector<uint64_t> ids(workload.events.size());
  std::vector<std::thread> publishers;
  const size_t slice = workload.events.size() / kPublishers;
  for (size_t p = 0; p < kPublishers; ++p) {
    const size_t begin = p * slice;
    const size_t end =
        p + 1 == kPublishers ? workload.events.size() : begin + slice;
    publishers.emplace_back(PublishSlice, &engine, std::cref(workload.events),
                            begin, end, &ids);
  }
  for (auto& t : publishers) t.join();
  engine.Flush();

  EXPECT_EQ(delivery.duplicates, 0u);
  ASSERT_EQ(delivery.by_event.size(), workload.events.size());
  for (size_t i = 0; i < workload.events.size(); ++i) {
    ASSERT_EQ(delivery.by_event.at(ids[i]), reference.at(i)) << "event " << i;
  }
}

// Mutator churn against a multi-threaded matcher: delta application and
// background rebuilds racing publishers, with exactly-once delivery and a
// deterministic post-quiesce probe.
TEST(EngineConcurrentTest, ThreadedMutatorChurnKeepsDeliveryExactlyOnce) {
  const auto workload = workload::Generate(ConcurrentSpec(10, 300)).value();
  auto churn_spec = ConcurrentSpec(11, 1);
  churn_spec.num_subscriptions = 60;
  const auto churn = workload::Generate(churn_spec).value();
  const auto probe = workload::Generate(ConcurrentSpec(12, 100)).value();
  constexpr size_t kPublishers = 3;

  auto run = [&](bool concurrent,
                 std::map<uint64_t, std::vector<SubscriptionId>>*
                     probe_results) {
    ConcurrentDelivery delivery;
    StreamEngine engine(ThreadedConcurrentOptions(), delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    std::vector<uint64_t> ids(workload.events.size());
    if (concurrent) {
      std::vector<std::thread> threads;
      const size_t slice = workload.events.size() / kPublishers;
      for (size_t p = 0; p < kPublishers; ++p) {
        const size_t begin = p * slice;
        const size_t end =
            p + 1 == kPublishers ? workload.events.size() : begin + slice;
        threads.emplace_back(PublishSlice, &engine,
                             std::cref(workload.events), begin, end, &ids);
      }
      threads.emplace_back(RunMutatorScript, &engine, std::cref(churn));
      for (auto& t : threads) t.join();
    } else {
      RunMutatorScript(&engine, churn);
      PublishSlice(&engine, workload.events, 0, workload.events.size(), &ids);
    }
    engine.Flush();
    ASSERT_EQ(delivery.duplicates, 0u);
    ASSERT_EQ(delivery.by_event.size(), workload.events.size());

    std::vector<uint64_t> probe_ids(probe.events.size());
    PublishSlice(&engine, probe.events, 0, probe.events.size(), &probe_ids);
    engine.Flush();
    for (size_t i = 0; i < probe.events.size(); ++i) {
      (*probe_results)[i] = delivery.by_event.at(probe_ids[i]);
    }
  };

  std::map<uint64_t, std::vector<SubscriptionId>> concurrent_probe;
  std::map<uint64_t, std::vector<SubscriptionId>> reference_probe;
  run(/*concurrent=*/true, &concurrent_probe);
  run(/*concurrent=*/false, &reference_probe);
  EXPECT_EQ(concurrent_probe, reference_probe);
}

// The rebuild-and-wait path (non-PCM matchers rebuild on every change) under
// concurrent churn: exercises background builds racing publishers.
TEST(EngineConcurrentTest, NonPcmMatcherSurvivesConcurrentChurn) {
  const auto workload = workload::Generate(ConcurrentSpec(6, 200)).value();
  auto churn_spec = ConcurrentSpec(7, 1);
  churn_spec.num_subscriptions = 20;
  const auto churn = workload::Generate(churn_spec).value();
  EngineOptions options = ConcurrentOptions();
  options.kind = MatcherKind::kCounting;
  options.matcher.domain = {0, 500};
  ConcurrentDelivery delivery;
  StreamEngine engine(options, delivery.Callback());
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        engine.AddSubscription(workload.subscriptions[i].predicates()).ok());
  }
  std::vector<uint64_t> ids(workload.events.size());
  std::vector<std::thread> threads;
  constexpr size_t kPublishers = 2;
  const size_t slice = workload.events.size() / kPublishers;
  for (size_t p = 0; p < kPublishers; ++p) {
    threads.emplace_back(PublishSlice, &engine, std::cref(workload.events),
                         p * slice, (p + 1) * slice, &ids);
  }
  threads.emplace_back(RunMutatorScript, &engine, std::cref(churn));
  for (auto& t : threads) t.join();
  engine.Flush();
  EXPECT_EQ(delivery.duplicates, 0u);
  EXPECT_EQ(delivery.by_event.size(), workload.events.size());
}

}  // namespace
}  // namespace apcm::engine
