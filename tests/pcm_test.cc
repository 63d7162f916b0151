#include "src/core/pcm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "tests/matcher_test_util.h"

namespace apcm::core {
namespace {

PcmOptions BaseOptions() {
  PcmOptions options;
  options.clustering.cluster_size = 64;
  return options;
}

TEST(PcmTest, HandWorkloadAllModes) {
  for (PcmMode mode :
       {PcmMode::kCompressed, PcmMode::kLazy, PcmMode::kAdaptive}) {
    PcmOptions options = BaseOptions();
    options.mode = mode;
    PcmMatcher matcher(options);
    const auto workload = HandWorkload();
    ExpectAgreesWithScan(matcher, workload);
  }
}

struct PcmParam {
  PcmMode mode;
  int threads;
  bool share_absence;
  uint32_t cluster_size;
};

class PcmRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, PcmParam>> {};

TEST_P(PcmRandomTest, AgreesWithScan) {
  const auto [seed, param] = GetParam();
  PcmOptions options;
  options.mode = param.mode;
  options.num_threads = param.threads;
  options.share_absence_phase = param.share_absence;
  options.clustering.cluster_size = param.cluster_size;
  PcmMatcher matcher(options);
  const auto workload = workload::Generate(GnarlySpec(seed)).value();
  ExpectAgreesWithScan(matcher, workload);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PcmRandomTest,
    ::testing::Combine(
        ::testing::Values(91, 92),
        ::testing::Values(
            PcmParam{PcmMode::kCompressed, 1, true, 64},
            PcmParam{PcmMode::kCompressed, 1, false, 64},
            PcmParam{PcmMode::kCompressed, 4, true, 64},
            PcmParam{PcmMode::kLazy, 1, true, 64},
            PcmParam{PcmMode::kLazy, 3, true, 128},
            PcmParam{PcmMode::kAdaptive, 1, true, 64},
            PcmParam{PcmMode::kAdaptive, 4, true, 32},
            PcmParam{PcmMode::kCompressed, 1, true, 1},
            PcmParam{PcmMode::kCompressed, 2, true, 1000})));

TEST(PcmTest, BatchMatchesSingleEventApi) {
  const auto workload = workload::Generate(GnarlySpec(93)).value();
  PcmOptions options = BaseOptions();
  PcmMatcher batch_matcher(options);
  batch_matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> batch_results;
  batch_matcher.MatchBatch(workload.events, &batch_results);

  PcmMatcher single_matcher(options);
  const auto single_results = RunMatcher(single_matcher, workload);
  EXPECT_EQ(batch_results, single_results);
}

TEST(PcmTest, AdaptiveConvergesToCheaperMode) {
  // Low match probability, no sharing: lazy short-circuit should win, so
  // after warmup most batches run lazy.
  workload::WorkloadSpec spec = GnarlySpec(94);
  spec.seeded_event_fraction = 0.0;  // nothing matches -> lazy exits fast
  spec.num_events = 64;
  const auto workload = workload::Generate(spec).value();
  PcmOptions options = BaseOptions();
  options.mode = PcmMode::kAdaptive;
  options.epsilon = 0.0;  // pure exploitation after warmup
  PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  for (int round = 0; round < 20; ++round) {
    matcher.MatchBatch(workload.events, &results);
  }
  const auto counters = matcher.adaptive_counters();
  // Warmup samples both; afterwards one mode dominates. We only assert that
  // adaptation happened (both were tried) and a winner emerged.
  EXPECT_GT(counters.compressed_batches, 0u);
  EXPECT_GT(counters.lazy_batches, 0u);
  EXPECT_NE(counters.compressed_batches, counters.lazy_batches);
}

TEST(PcmTest, CompressionRatioAtLeastOne) {
  const auto workload = workload::Generate(GnarlySpec(95)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  EXPECT_GE(matcher.CompressionRatio(), 1.0);
  EXPECT_GT(matcher.MemoryBytes(), 0u);
  EXPECT_FALSE(matcher.clusters().empty());
}

TEST(PcmTest, EmptySubscriptionSet) {
  PcmMatcher matcher(BaseOptions());
  matcher.Build({});
  std::vector<SubscriptionId> matches{99};
  matcher.Match(Event::Create({{0, 1}}).value(), &matches);
  EXPECT_TRUE(matches.empty());
}

TEST(PcmTest, EmptyBatch) {
  const auto workload = workload::Generate(GnarlySpec(96)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch({}, &results);
  EXPECT_TRUE(results.empty());
}

TEST(PcmTest, StatsAccumulateAcrossBatches) {
  const auto workload = workload::Generate(GnarlySpec(97)).value();
  PcmMatcher matcher(BaseOptions());
  matcher.Build(workload.subscriptions);
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch(workload.events, &results);
  const uint64_t events_after_one = matcher.stats().events_matched;
  matcher.MatchBatch(workload.events, &results);
  EXPECT_EQ(matcher.stats().events_matched, 2 * events_after_one);
}

TEST(PcmTest, DeterministicAcrossRuns) {
  const auto workload = workload::Generate(GnarlySpec(98)).value();
  auto run = [&] {
    PcmOptions options = BaseOptions();
    options.mode = PcmMode::kAdaptive;
    PcmMatcher matcher(options);
    matcher.Build(workload.subscriptions);
    std::vector<std::vector<SubscriptionId>> results;
    matcher.MatchBatch(workload.events, &results);
    matcher.MatchBatch(workload.events, &results);
    return results;
  };
  EXPECT_EQ(run(), run());
}

TEST(PcmTest, SharedAbsencePhaseWithIdenticalSignatureRuns) {
  // A stream of events with identical attribute sets (values differ):
  // sharing must not change results and must reduce work.
  workload::WorkloadSpec spec = GnarlySpec(99);
  spec.event_locality = 1.0;  // every event reuses the first attribute set
  spec.seeded_event_fraction = 0.0;
  const auto workload = workload::Generate(spec).value();

  auto run = [&](bool share) {
    PcmOptions options = BaseOptions();
    options.share_absence_phase = share;
    // Full 64-subscription clusters: a cluster of at most 16 subscriptions
    // skips phase 1's coverage counting, leaving no phase-1 work to share.
    options.clustering.strategy = ClusterStrategy::kSignature;
    PcmMatcher matcher(options);
    matcher.Build(workload.subscriptions);
    std::vector<std::vector<SubscriptionId>> results;
    matcher.MatchBatch(workload.events, &results);
    return std::make_pair(results, matcher.stats().bitmap_words);
  };
  const auto [shared_results, shared_words] = run(true);
  const auto [plain_results, plain_words] = run(false);
  EXPECT_EQ(shared_results, plain_results);
  EXPECT_LT(shared_words, plain_words);
}

// ---------------------------------------------------------------------------
// Dispatch differential: the attribute -> cluster dispatch index must send
// every event to exactly the clusters whose required attributes it carries,
// through every path that replaces or extends the clusters (Build, delta
// clusters + pending tail + tombstones, Compact, LoadIndex), at every batch
// size and thread count — judged against a SCAN over the live set.

using DispatchParam = std::tuple<PcmMode, int, ClusterStrategy>;

class PcmDispatchTest : public ::testing::TestWithParam<DispatchParam> {};

/// SCAN over the live subscriptions, one sorted id list per event.
std::vector<std::vector<SubscriptionId>> ScanLive(
    const std::map<SubscriptionId, BooleanExpression>& live,
    const std::vector<Event>& events) {
  std::vector<std::vector<SubscriptionId>> expected(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    for (const auto& [id, sub] : live) {
      if (sub.Matches(events[i])) expected[i].push_back(id);
    }
  }
  return expected;
}

/// Matches `events` through MatchBatch in consecutive batches of `batch`.
std::vector<std::vector<SubscriptionId>> MatchInBatches(
    PcmMatcher& matcher, const std::vector<Event>& events, size_t batch) {
  std::vector<std::vector<SubscriptionId>> all;
  std::vector<std::vector<SubscriptionId>> results;
  for (size_t begin = 0; begin < events.size(); begin += batch) {
    const std::vector<Event> slice(
        events.begin() + static_cast<ptrdiff_t>(begin),
        events.begin() +
            static_cast<ptrdiff_t>(std::min(events.size(), begin + batch)));
    matcher.MatchBatch(slice, &results);
    all.insert(all.end(), results.begin(), results.end());
  }
  return all;
}

/// Main-cluster visits the dispatch index owes `events`: one per (cluster,
/// event) pair where the event carries every required attribute.
uint64_t ExpectedVisits(const PcmMatcher& matcher,
                        const std::vector<Event>& events) {
  uint64_t visits = 0;
  for (const Event& event : events) {
    for (const CompressedCluster& cluster : matcher.clusters()) {
      if (cluster.HasRequiredAttributes(event)) ++visits;
    }
  }
  return visits;
}

void ExpectAgreesWithLive(
    PcmMatcher& matcher, const std::vector<Event>& events,
    const std::map<SubscriptionId, BooleanExpression>& live,
    const std::string& phase) {
  const auto expected = ScanLive(live, events);
  for (const size_t batch : {size_t{1}, size_t{2}, size_t{256}}) {
    const auto actual = MatchInBatches(matcher, events, batch);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i])
          << matcher.Name() << " " << phase << " batch=" << batch
          << " event " << i << ": " << events[i].ToString();
    }
  }
}

TEST_P(PcmDispatchTest, AgreesWithScanThroughEveryIndexPath) {
  const auto [mode, threads, strategy] = GetParam();
  workload::Workload workload = workload::Generate(GnarlySpec(131)).value();
  // Match-all subscriptions: their clusters have no required attribute and
  // must be visited by every event.
  SubscriptionId next_id =
      static_cast<SubscriptionId>(workload.subscriptions.size());
  for (int i = 0; i < 3; ++i) {
    workload.subscriptions.push_back(
        BooleanExpression::Create(next_id++, {}).value());
  }
  PcmOptions options;
  options.mode = mode;
  options.num_threads = threads;
  options.clustering.cluster_size = 32;
  options.clustering.strategy = strategy;
  options.delta_cluster_size = 16;
  PcmMatcher matcher(options);
  matcher.Build(workload.subscriptions);

  // Events missing every required attribute of every cluster (so every
  // pivot), the empty event, and attributes beyond any indexed one: only
  // the always-visit clusters can be reached.
  std::set<AttributeId> required;
  for (const CompressedCluster& cluster : matcher.clusters()) {
    required.insert(cluster.required_attributes().begin(),
                    cluster.required_attributes().end());
  }
  std::vector<Event> events = workload.events;
  std::vector<Event> pivotless;
  for (size_t i = 0; i < 20; ++i) {
    std::vector<Event::Entry> kept;
    for (const Event::Entry& entry : workload.events[i].entries()) {
      if (!required.contains(entry.attr)) kept.push_back(entry);
    }
    pivotless.push_back(Event::Create(std::move(kept)).value());
  }
  pivotless.push_back(Event());
  pivotless.push_back(Event::Create({{1000, 5}, {5000, 1}}).value());
  events.insert(events.end(), pivotless.begin(), pivotless.end());

  std::map<SubscriptionId, BooleanExpression> live;
  for (const BooleanExpression& sub : workload.subscriptions) {
    live.emplace(sub.id(), sub);
  }
  ExpectAgreesWithLive(matcher, events, live, "build");

  // The index reaches exactly the clusters an event can match in.
  const uint64_t visits_before = matcher.stats().clusters_visited;
  std::vector<std::vector<SubscriptionId>> results;
  matcher.MatchBatch(events, &results);
  EXPECT_EQ(matcher.stats().clusters_visited - visits_before,
            ExpectedVisits(matcher, events));
  const uint64_t pivotless_before = matcher.stats().clusters_visited;
  matcher.MatchBatch(pivotless, &results);
  const auto always_visit = static_cast<uint64_t>(std::count_if(
      matcher.clusters().begin(), matcher.clusters().end(),
      [](const CompressedCluster& c) {
        return c.required_attributes().empty();
      }));
  EXPECT_GT(always_visit, 0u);  // the match-all subscriptions' clusters
  EXPECT_EQ(matcher.stats().clusters_visited - pivotless_before,
            always_visit * pivotless.size());

  // Delta clusters + pending tail + tombstones: 40 adds at a delta cluster
  // size of 16 leave two delta clusters and an 8-subscription tail.
  const workload::Workload extra =
      workload::Generate(GnarlySpec(132)).value();
  for (size_t i = 0; i < 40; ++i) {
    BooleanExpression sub = extra.subscriptions[i];
    sub = BooleanExpression::Create(next_id++, sub.predicates()).value();
    live.emplace(sub.id(), sub);
    matcher.AddIncremental(std::move(sub));
  }
  for (const SubscriptionId id :
       {SubscriptionId{0}, SubscriptionId{7}, SubscriptionId{150},
        static_cast<SubscriptionId>(workload.subscriptions.size()),
        next_id - 1, next_id - 30}) {
    ASSERT_TRUE(matcher.RemoveIncremental(id).ok()) << id;
    live.erase(id);
  }
  ExpectAgreesWithLive(matcher, events, live, "delta");

  matcher.Compact();
  EXPECT_EQ(matcher.DeltaFraction(), 0.0);
  ExpectAgreesWithLive(matcher, events, live, "compact");
  const uint64_t compacted_before = matcher.stats().clusters_visited;
  matcher.MatchBatch(events, &results);
  EXPECT_EQ(matcher.stats().clusters_visited - compacted_before,
            ExpectedVisits(matcher, events));

  // Round trip through an index image into a fresh matcher.
  std::stringstream image;
  ASSERT_TRUE(matcher.SaveIndex(image).ok());
  std::vector<BooleanExpression> live_subs;
  for (const auto& [id, sub] : live) live_subs.push_back(sub);
  PcmMatcher loaded(options);
  ASSERT_TRUE(loaded.LoadIndex(live_subs, image).ok());
  ExpectAgreesWithLive(loaded, events, live, "load");
}

INSTANTIATE_TEST_SUITE_P(
    Paths, PcmDispatchTest,
    ::testing::Combine(::testing::Values(PcmMode::kCompressed, PcmMode::kLazy,
                                         PcmMode::kAdaptive),
                       ::testing::Values(1, 4),
                       ::testing::Values(ClusterStrategy::kPivot,
                                         ClusterStrategy::kSignature,
                                         ClusterStrategy::kInsertionOrder)));

TEST(PcmTest, Names) {
  PcmOptions options;
  options.mode = PcmMode::kCompressed;
  EXPECT_EQ(PcmMatcher(options).Name(), "pcm");
  options.mode = PcmMode::kLazy;
  EXPECT_EQ(PcmMatcher(options).Name(), "pcm-lazy");
  options.mode = PcmMode::kAdaptive;
  EXPECT_EQ(PcmMatcher(options).Name(), "a-pcm");
}

}  // namespace
}  // namespace apcm::core
