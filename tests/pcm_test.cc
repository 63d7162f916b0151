#include "src/core/pcm.h"

#include <gtest/gtest.h>

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
