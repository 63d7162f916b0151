#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/be/parser.h"
#include "src/workload/generator.h"
#include "tests/matcher_test_util.h"

namespace apcm::engine {
namespace {

struct Delivery {
  std::map<uint64_t, std::vector<SubscriptionId>> by_event;
  std::vector<uint64_t> order;

  StreamEngine::MatchCallback Callback() {
    return [this](uint64_t event_id,
                  const std::vector<SubscriptionId>& matches) {
      by_event[event_id] = matches;
      order.push_back(event_id);
    };
  }
};

EngineOptions SmallOptions() {
  EngineOptions options;
  options.kind = MatcherKind::kAPcm;
  options.matcher.pcm.clustering.cluster_size = 32;
  options.batch_size = 16;
  options.osr.window_size = 0;
  options.buffer_capacity = 64;
  return options;
}

TEST(EngineTest, DeliversMatchesForEveryEvent) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  ASSERT_TRUE(engine
                  .AddSubscription({Predicate(0, Op::kLe, 10),
                                    Predicate(1, Op::kEq, 1)})
                  .ok());
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGt, 10)}).ok());

  const uint64_t e0 =
      engine.Publish(Event::Create({{0, 5}, {1, 1}}).value());
  const uint64_t e1 = engine.Publish(Event::Create({{0, 50}}).value());
  const uint64_t e2 = engine.Publish(Event::Create({{1, 1}}).value());
  engine.Flush();

  EXPECT_EQ(delivery.by_event.at(e0), (std::vector<SubscriptionId>{0}));
  EXPECT_EQ(delivery.by_event.at(e1), (std::vector<SubscriptionId>{1}));
  EXPECT_TRUE(delivery.by_event.at(e2).empty());
  EXPECT_EQ(engine.stats().events_processed, 3u);
}

TEST(EngineTest, CallbackOrderIsEventIdOrderEvenWithOsr) {
  EngineOptions options = SmallOptions();
  options.osr.window_size = 32;
  Delivery delivery;
  StreamEngine engine(options, delivery.Callback());
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
  workload::WorkloadSpec spec;
  spec.num_subscriptions = 0;
  spec.num_events = 50;
  spec.num_attributes = 10;
  spec.min_event_attrs = 1;
  spec.max_event_attrs = 5;
  spec.min_predicates = 0;
  spec.max_predicates = 0;
  const auto workload = workload::Generate(spec).value();
  for (const Event& event : workload.events) engine.Publish(event);
  engine.Flush();
  ASSERT_EQ(delivery.order.size(), 50u);
  for (size_t i = 0; i < delivery.order.size(); ++i) {
    EXPECT_EQ(delivery.order[i], i);
  }
}

TEST(EngineTest, OsrOnAndOffDeliverIdenticalResults) {
  const auto workload = workload::Generate(GnarlySpec(101)).value();
  auto run = [&](uint32_t window) {
    EngineOptions options = SmallOptions();
    options.osr.window_size = window;
    options.buffer_capacity = 128;
    Delivery delivery;
    StreamEngine engine(options, delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      auto added = engine.AddSubscription(sub.predicates());
      EXPECT_TRUE(added.ok());
    }
    for (const Event& event : workload.events) engine.Publish(event);
    engine.Flush();
    return delivery.by_event;
  };
  EXPECT_EQ(run(0), run(64));
}

TEST(EngineTest, EngineAgreesWithScan) {
  const auto workload = workload::Generate(GnarlySpec(102)).value();
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  EngineOptions options = SmallOptions();
  options.osr.window_size = 32;
  Delivery delivery;
  StreamEngine engine(options, delivery.Callback());
  for (const auto& sub : workload.subscriptions) {
    ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
  }
  std::vector<uint64_t> event_ids;
  for (const Event& event : workload.events) {
    event_ids.push_back(engine.Publish(event));
  }
  engine.Flush();
  for (size_t i = 0; i < workload.events.size(); ++i) {
    EXPECT_EQ(delivery.by_event.at(event_ids[i]), expected[i])
        << "event " << i;
  }
}

TEST(EngineTest, AutoFlushOnBufferCapacity) {
  EngineOptions options = SmallOptions();
  options.batch_size = 8;
  options.buffer_capacity = 8;
  Delivery delivery;
  StreamEngine engine(options, delivery.Callback());
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
  for (int i = 0; i < 8; ++i) {
    engine.Publish(Event::Create({{0, i}}).value());
  }
  // Publishing the 8th event hit capacity: everything delivered already.
  EXPECT_EQ(delivery.order.size(), 8u);
}

TEST(EngineTest, RemoveSubscriptionStopsMatching) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  const SubscriptionId keep =
      engine.AddSubscription({Predicate(0, Op::kGe, 0)}).value();
  const SubscriptionId removed =
      engine.AddSubscription({Predicate(0, Op::kGe, 0)}).value();
  const uint64_t e0 = engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(delivery.by_event.at(e0),
            (std::vector<SubscriptionId>{keep, removed}));

  ASSERT_TRUE(engine.RemoveSubscription(removed).ok());
  const uint64_t e1 = engine.Publish(Event::Create({{0, 2}}).value());
  engine.Flush();
  EXPECT_EQ(delivery.by_event.at(e1), (std::vector<SubscriptionId>{keep}));
  EXPECT_EQ(engine.num_subscriptions(), 1u);
}

TEST(EngineTest, RemoveErrors) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  EXPECT_EQ(engine.RemoveSubscription(0).code(), StatusCode::kNotFound);
  const SubscriptionId id =
      engine.AddSubscription({Predicate(0, Op::kGe, 0)}).value();
  ASSERT_TRUE(engine.RemoveSubscription(id).ok());
  EXPECT_EQ(engine.RemoveSubscription(id).code(), StatusCode::kNotFound);
}

TEST(EngineTest, AddAfterStartIsAppliedBeforeNextBatch) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kEq, 1)}).ok());
  const uint64_t e0 = engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(delivery.by_event.at(e0).size(), 1u);

  const SubscriptionId late =
      engine.AddSubscription({Predicate(0, Op::kEq, 1)}).value();
  const uint64_t e1 = engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(delivery.by_event.at(e1),
            (std::vector<SubscriptionId>{0, late}));
  // PCM-family engines absorb the change without a rebuild.
  EXPECT_EQ(engine.stats().rebuilds, 1u);
  EXPECT_GT(engine.stats().incremental_updates, 0u);
}

TEST(EngineTest, HeavyChurnTriggersCompactionNotRebuild) {
  EngineOptions options = SmallOptions();
  options.incremental_rebuild_threshold = 0.10;
  Delivery delivery;
  StreamEngine engine(options, delivery.Callback());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    .AddSubscription({Predicate(0, Op::kEq,
                                                static_cast<Value>(i))})
                    .ok());
  }
  engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(engine.stats().rebuilds, 1u);

  // Churn far past the 10% threshold.
  std::vector<SubscriptionId> added;
  for (int i = 0; i < 20; ++i) {
    added.push_back(engine
                        .AddSubscription({Predicate(0, Op::kEq,
                                                    static_cast<Value>(i))})
                        .value());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.RemoveSubscription(static_cast<SubscriptionId>(i))
                    .ok());
  }
  const uint64_t e1 = engine.Publish(Event::Create({{0, 1}}).value());
  engine.Flush();
  EXPECT_EQ(engine.stats().rebuilds, 1u);  // still no rebuild
  EXPECT_GT(engine.stats().compactions, 0u);
  // Correctness through the churn: original id 1 was removed; the new copy
  // of "0 = 1" (added[1]) matches.
  const auto& matches = delivery.by_event.at(e1);
  EXPECT_TRUE(std::find(matches.begin(), matches.end(), 1u) ==
              matches.end());
  EXPECT_TRUE(std::find(matches.begin(), matches.end(), added[1]) !=
              matches.end());
}

TEST(EngineTest, InvalidSubscriptionRejected) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  auto bad = engine.AddSubscription(
      {Predicate(0, Op::kGt, 1), Predicate(0, Op::kLt, 9)});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The failed id is not burned visibly: the next add still works.
  EXPECT_TRUE(engine.AddSubscription({Predicate(1, Op::kEq, 1)}).ok());
}

TEST(EngineTest, WorksWithEveryMatcherKind) {
  const auto workload = workload::Generate(GnarlySpec(103)).value();
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);
  for (MatcherKind kind :
       {MatcherKind::kScan, MatcherKind::kCounting, MatcherKind::kKIndex,
        MatcherKind::kBETree, MatcherKind::kPcm, MatcherKind::kAPcm}) {
    EngineOptions options = SmallOptions();
    options.kind = kind;
    options.matcher.domain = {workload.spec.domain_min,
                              workload.spec.domain_max};
    Delivery delivery;
    StreamEngine engine(options, delivery.Callback());
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    std::vector<uint64_t> ids;
    for (const Event& event : workload.events) {
      ids.push_back(engine.Publish(event));
    }
    engine.Flush();
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(delivery.by_event.at(ids[i]), expected[i])
          << MatcherKindName(kind) << " event " << i;
    }
  }
}

TEST(EngineTest, SaveAndLoadSubscriptions) {
  const std::string path = "/tmp/apcm_engine_snapshot.bin";
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  ASSERT_TRUE(engine
                  .AddSubscription({Predicate(0, Op::kLe, 10),
                                    Predicate(2, 5, 15)})
                  .ok());
  const SubscriptionId removed =
      engine.AddSubscription({Predicate(1, Op::kEq, 3)}).value();
  ASSERT_TRUE(engine.AddSubscription({Predicate(1, Op::kGt, 100)}).ok());
  ASSERT_TRUE(engine.RemoveSubscription(removed).ok());
  ASSERT_TRUE(engine.SaveSubscriptions(path).ok());

  // Restore into a fresh engine; only the two live subscriptions return.
  Delivery delivery2;
  StreamEngine restored(SmallOptions(), delivery2.Callback());
  auto count = restored.LoadSubscriptions(path);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), 2u);
  const uint64_t e0 =
      restored.Publish(Event::Create({{0, 5}, {2, 10}}).value());
  const uint64_t e1 = restored.Publish(Event::Create({{1, 3}}).value());
  restored.Flush();
  EXPECT_EQ(delivery2.by_event.at(e0).size(), 1u);
  EXPECT_TRUE(delivery2.by_event.at(e1).empty());  // removed one not saved
  std::remove(path.c_str());
}

TEST(EngineTest, LoadSubscriptionsMissingFile) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  EXPECT_FALSE(engine.LoadSubscriptions("/tmp/no_such_apcm_file.bin").ok());
}

TEST(EngineTest, ValidateEngineOptionsAcceptsDefaults) {
  EXPECT_TRUE(ValidateEngineOptions(EngineOptions{}).ok());
  EXPECT_TRUE(ValidateEngineOptions(SmallOptions()).ok());
}

TEST(EngineTest, ValidateEngineOptionsRejectsZeroBatch) {
  EngineOptions options;
  options.batch_size = 0;
  const Status status = ValidateEngineOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("batch_size"), std::string::npos);
}

TEST(EngineTest, ValidateEngineOptionsRejectsQueueBelowBuffer) {
  EngineOptions options;
  options.osr.window_size = 0;
  options.buffer_capacity = 64;
  options.queue_capacity = 32;
  const Status status = ValidateEngineOptions(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("queue_capacity"), std::string::npos);
  // Equal to the buffer, or 0 (auto-sized to 2x), is valid.
  options.queue_capacity = 64;
  // The effective buffer also covers batch_size and the OSR window.
  options.batch_size = 64;
  EXPECT_TRUE(ValidateEngineOptions(options).ok());
  options.queue_capacity = 0;
  EXPECT_TRUE(ValidateEngineOptions(options).ok());
  // batch_size raises the effective buffer above the configured queue.
  options.queue_capacity = 64;
  options.batch_size = 128;
  EXPECT_EQ(ValidateEngineOptions(options).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, StatsPopulated) {
  Delivery delivery;
  StreamEngine engine(SmallOptions(), delivery.Callback());
  ASSERT_TRUE(engine.AddSubscription({Predicate(0, Op::kGe, 0)}).ok());
  for (int i = 0; i < 20; ++i) {
    engine.Publish(Event::Create({{0, i}}).value());
  }
  engine.Flush();
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.events_published, 20u);
  EXPECT_EQ(stats.events_processed, 20u);
  EXPECT_EQ(stats.matches_delivered, 20u);
  EXPECT_GT(stats.batches_processed, 0u);
  EXPECT_GT(stats.batch_latency_ns.count(), 0u);
  ASSERT_NE(engine.matcher_stats(), nullptr);
  EXPECT_EQ(engine.matcher_stats()->events_matched, 20u);
}

}  // namespace
}  // namespace apcm::engine
