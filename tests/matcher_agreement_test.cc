// The keystone property test of the repository: every matching algorithm —
// the four baselines and every PCM configuration — must produce *identical*
// match sets on randomized workloads sweeping all generator knobs. SCAN is
// the executable specification.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "src/bitmap/kernels.h"
#include "src/engine/engine.h"
#include "src/engine/matcher_factory.h"
#include "tests/matcher_test_util.h"

namespace apcm {
namespace {

using engine::CreateMatcher;
using engine::MatcherConfig;
using engine::MatcherKind;

struct AgreementCase {
  const char* name;
  workload::WorkloadSpec spec;
};

workload::WorkloadSpec BaseSpec(uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_subscriptions = 300;
  spec.num_events = 100;
  spec.num_attributes = 25;
  spec.domain_min = 0;
  spec.domain_max = 1000;
  spec.min_predicates = 1;
  spec.max_predicates = 6;
  spec.min_event_attrs = 2;
  spec.max_event_attrs = 10;
  spec.seeded_event_fraction = 0.5;
  return spec;
}

std::vector<AgreementCase> MakeCases() {
  std::vector<AgreementCase> cases;
  cases.push_back({"default", BaseSpec(1)});

  auto spec = BaseSpec(2);
  spec.equality_fraction = 1.0;
  spec.in_fraction = spec.ne_fraction = spec.inequality_fraction = 0;
  cases.push_back({"equality_only", spec});

  spec = BaseSpec(3);
  spec.equality_fraction = 0;
  spec.in_fraction = 0;
  spec.ne_fraction = 0;
  spec.inequality_fraction = 0;  // all between
  cases.push_back({"ranges_only", spec});

  spec = BaseSpec(4);
  spec.ne_fraction = 0.5;
  spec.in_fraction = 0.3;
  spec.equality_fraction = 0.1;
  spec.inequality_fraction = 0.1;
  cases.push_back({"ne_and_in_heavy", spec});

  spec = BaseSpec(5);
  spec.attribute_zipf = 2.0;
  cases.push_back({"zipf_attributes", spec});

  spec = BaseSpec(6);
  spec.value_zipf = 1.2;
  cases.push_back({"zipf_values", spec});

  spec = BaseSpec(7);
  spec.domain_min = -500;
  spec.domain_max = 500;
  cases.push_back({"negative_domain", spec});

  spec = BaseSpec(8);
  spec.domain_min = 0;
  spec.domain_max = 1;  // tiny domain: heavy predicate collisions
  spec.equality_fraction = 0.6;
  spec.in_fraction = 0;
  cases.push_back({"binary_domain", spec});

  spec = BaseSpec(9);
  spec.seeded_event_fraction = 1.0;  // high match probability
  cases.push_back({"all_seeded", spec});

  spec = BaseSpec(10);
  spec.seeded_event_fraction = 0.0;  // near-zero match probability
  cases.push_back({"none_seeded", spec});

  spec = BaseSpec(11);
  spec.min_predicates = 1;
  spec.max_predicates = 1;  // single-predicate subscriptions
  cases.push_back({"single_predicate", spec});

  spec = BaseSpec(12);
  spec.num_attributes = 8;
  spec.min_predicates = 6;
  spec.max_predicates = 8;
  spec.min_event_attrs = 6;
  spec.max_event_attrs = 8;  // dense: most attrs in both
  cases.push_back({"dense_overlap", spec});

  spec = BaseSpec(13);
  spec.event_locality = 0.9;  // bursty stream (exercises phase sharing)
  cases.push_back({"bursty_stream", spec});

  spec = BaseSpec(14);
  spec.predicate_width = 0.9;  // very wide predicates, many matches
  cases.push_back({"wide_predicates", spec});

  return cases;
}

class AgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AgreementTest, AllMatchersAgree) {
  const AgreementCase test_case = MakeCases()[GetParam()];
  SCOPED_TRACE(test_case.name);
  const auto workload = workload::Generate(test_case.spec).value();

  MatcherConfig config;
  config.domain = {test_case.spec.domain_min, test_case.spec.domain_max};
  config.pcm.clustering.cluster_size = 64;
  config.pcm.num_threads = 2;

  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  for (MatcherKind kind :
       {MatcherKind::kCounting, MatcherKind::kKIndex, MatcherKind::kBETree,
        MatcherKind::kPcm, MatcherKind::kPcmLazy, MatcherKind::kAPcm}) {
    std::unique_ptr<Matcher> matcher = CreateMatcher(kind, config);
    const auto actual = RunMatcher(*matcher, workload);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << matcher->Name() << " disagrees with scan on event " << i
          << " of case '" << test_case.name
          << "': " << workload.events[i].ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AgreementTest, ::testing::Range<size_t>(0, MakeCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return MakeCases()[info.param].name;
    });

// The engine facade (batched processing + OSR reordering + top-k delivery)
// must agree with the plain single-event matchers on the same randomized
// workloads. Subscriptions are added in workload order, so engine-assigned
// subscription ids and event ids coincide with workload indices.
class EngineAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineAgreementTest, EngineFacadeAgreesWithPlainMatchers) {
  const AgreementCase test_case = MakeCases()[GetParam()];
  SCOPED_TRACE(test_case.name);
  const auto workload = workload::Generate(test_case.spec).value();

  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  for (MatcherKind kind :
       {MatcherKind::kCounting, MatcherKind::kBETree, MatcherKind::kAPcm}) {
    engine::EngineOptions options;
    options.kind = kind;
    options.matcher.domain = {test_case.spec.domain_min,
                              test_case.spec.domain_max};
    options.matcher.pcm.clustering.cluster_size = 64;
    options.batch_size = 16;
    options.osr.window_size = 32;
    options.buffer_capacity = 48;

    std::map<uint64_t, std::vector<SubscriptionId>> by_event;
    engine::StreamEngine engine(
        options, [&](uint64_t event_id,
                     const std::vector<SubscriptionId>& matches) {
          by_event[event_id] = matches;
        });
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    for (const Event& event : workload.events) engine.Publish(event);
    engine.Flush();

    ASSERT_EQ(by_event.size(), workload.events.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(by_event.at(i), expected[i])
          << MatcherKindName(kind) << " engine disagrees with scan on event "
          << i << " of case '" << test_case.name << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EngineAgreementTest,
    ::testing::Range<size_t>(0, MakeCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return MakeCases()[info.param].name;
    });

// Top-k truncation through the engine must equal truncating the scan ground
// truth by (priority desc, id asc) — on a workload with real priorities.
TEST(EngineAgreementTest, TopKDeliveryEqualsTruncatedGroundTruth) {
  const auto workload = workload::Generate(BaseSpec(77)).value();
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  engine::EngineOptions options;
  options.kind = engine::MatcherKind::kAPcm;
  options.matcher.pcm.clustering.cluster_size = 64;
  options.batch_size = 16;
  options.osr.window_size = 32;
  options.buffer_capacity = 48;
  options.top_k = 3;

  std::map<uint64_t, std::vector<SubscriptionId>> by_event;
  engine::StreamEngine engine(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        by_event[event_id] = matches;
      });
  std::vector<double> priorities(workload.subscriptions.size(), 0.0);
  for (size_t s = 0; s < workload.subscriptions.size(); ++s) {
    ASSERT_TRUE(
        engine.AddSubscription(workload.subscriptions[s].predicates()).ok());
    priorities[s] = static_cast<double>((s * 7) % 11);
    ASSERT_TRUE(engine.SetPriority(s, priorities[s]).ok());
  }
  for (const Event& event : workload.events) engine.Publish(event);
  engine.Flush();

  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<SubscriptionId> want = expected[i];
    std::stable_sort(want.begin(), want.end(),
                     [&](SubscriptionId a, SubscriptionId b) {
                       if (priorities[a] != priorities[b]) {
                         return priorities[a] > priorities[b];
                       }
                       return a < b;
                     });
    if (want.size() > 3) want.resize(3);
    std::sort(want.begin(), want.end());
    std::vector<SubscriptionId> got = by_event.at(i);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, want) << "event " << i;
  }
}

// The engine facade over a multi-threaded matcher must agree with scan on
// every workload spec — batching, OSR, and the per-thread result merge all
// composed.
class ThreadedEngineAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadedEngineAgreementTest, ThreadedEngineAgreesWithScan) {
  const AgreementCase test_case = MakeCases()[GetParam()];
  SCOPED_TRACE(test_case.name);
  const auto workload = workload::Generate(test_case.spec).value();

  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  struct Variant {
    MatcherKind kind;
    int num_threads;
  };
  for (const Variant v :
       {Variant{MatcherKind::kAPcm, 4}, Variant{MatcherKind::kPcm, 2}}) {
    engine::EngineOptions options;
    options.kind = v.kind;
    options.matcher.pcm.num_threads = v.num_threads;
    options.matcher.domain = {test_case.spec.domain_min,
                              test_case.spec.domain_max};
    options.matcher.pcm.clustering.cluster_size = 64;
    options.batch_size = 16;
    options.osr.window_size = 32;
    options.buffer_capacity = 48;

    std::map<uint64_t, std::vector<SubscriptionId>> by_event;
    engine::StreamEngine engine(
        options, [&](uint64_t event_id,
                     const std::vector<SubscriptionId>& matches) {
          by_event[event_id] = matches;
        });
    for (const auto& sub : workload.subscriptions) {
      ASSERT_TRUE(engine.AddSubscription(sub.predicates()).ok());
    }
    for (const Event& event : workload.events) engine.Publish(event);
    engine.Flush();

    ASSERT_EQ(by_event.size(), workload.events.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(by_event.at(i), expected[i])
          << MatcherKindName(v.kind) << " engine with " << v.num_threads
          << " threads disagrees with scan on event " << i << " of case '"
          << test_case.name << "'";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ThreadedEngineAgreementTest,
    ::testing::Range<size_t>(0, MakeCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return MakeCases()[info.param].name;
    });

// Top-k truncation must be thread-oblivious: the per-thread merge feeds the
// same full match set into the top-k stage as the sequential matcher would.
TEST(ThreadedEngineAgreementTest, TopKDeliveryWithThreadsEqualsGroundTruth) {
  const auto workload = workload::Generate(BaseSpec(78)).value();
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);

  engine::EngineOptions options;
  options.kind = engine::MatcherKind::kAPcm;
  options.matcher.pcm.num_threads = 4;
  options.matcher.pcm.clustering.cluster_size = 64;
  options.batch_size = 16;
  options.osr.window_size = 32;
  options.buffer_capacity = 48;
  options.top_k = 3;

  std::map<uint64_t, std::vector<SubscriptionId>> by_event;
  engine::StreamEngine engine(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        by_event[event_id] = matches;
      });
  std::vector<double> priorities(workload.subscriptions.size(), 0.0);
  for (size_t s = 0; s < workload.subscriptions.size(); ++s) {
    ASSERT_TRUE(
        engine.AddSubscription(workload.subscriptions[s].predicates()).ok());
    priorities[s] = static_cast<double>((s * 5) % 13);
    ASSERT_TRUE(engine.SetPriority(s, priorities[s]).ok());
  }
  for (const Event& event : workload.events) engine.Publish(event);
  engine.Flush();

  for (size_t i = 0; i < expected.size(); ++i) {
    std::vector<SubscriptionId> want = expected[i];
    std::stable_sort(want.begin(), want.end(),
                     [&](SubscriptionId a, SubscriptionId b) {
                       if (priorities[a] != priorities[b]) {
                         return priorities[a] > priorities[b];
                       }
                       return a < b;
                     });
    if (want.size() > 3) want.resize(3);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(by_event.at(i), want) << "event " << i;
  }
}

// SIMD-forced agreement: the same workload through A-PCM (sequential and
// on 4 threads) and SCAN under every supported kernel level must produce
// byte-identical match sets — and identical FNV-1a digests, the same
// fingerprint the golden replay uses, so a cross-level divergence is
// directly comparable against the pinned goldens.
uint64_t DigestRows(const std::vector<std::vector<SubscriptionId>>& rows) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& row : rows) {
    mix(row.size());
    for (SubscriptionId id : row) mix(id);
  }
  return h;
}

class SimdAgreementTest : public ::testing::TestWithParam<size_t> {
 protected:
  void TearDown() override {
    ASSERT_TRUE(
        bitmap::SetActiveSimdLevel(bitmap::BestSupportedSimdLevel()).ok());
  }
};

TEST_P(SimdAgreementTest, MatchDigestsIdenticalUnderEveryKernelLevel) {
  const AgreementCase test_case = MakeCases()[GetParam()];
  SCOPED_TRACE(test_case.name);
  const auto workload = workload::Generate(test_case.spec).value();

  MatcherConfig config;
  config.domain = {test_case.spec.domain_min, test_case.spec.domain_max};
  config.pcm.clustering.cluster_size = 64;

  // Ground truth under the scalar reference kernels.
  ASSERT_TRUE(bitmap::SetActiveSimdLevel(bitmap::SimdLevel::kScalar).ok());
  index::ScanMatcher scan;
  const auto expected = RunMatcher(scan, workload);
  const uint64_t expected_digest = DigestRows(expected);

  for (const bitmap::SimdLevel level : bitmap::SupportedSimdLevels()) {
    ASSERT_TRUE(bitmap::SetActiveSimdLevel(level).ok());
    for (MatcherKind kind :
         {MatcherKind::kPcm, MatcherKind::kPcmLazy, MatcherKind::kAPcm}) {
      auto matcher = CreateMatcher(kind, config);
      const auto actual = RunMatcher(*matcher, workload);
      ASSERT_EQ(DigestRows(actual), expected_digest)
          << matcher->Name() << " digest diverges under "
          << bitmap::SimdLevelName(level) << " kernels on case '"
          << test_case.name << "'";
      ASSERT_EQ(actual, expected);
    }
    MatcherConfig threaded = config;
    threaded.pcm.num_threads = 4;
    auto matcher = CreateMatcher(MatcherKind::kAPcm, threaded);
    const auto actual = RunMatcher(*matcher, workload);
    ASSERT_EQ(DigestRows(actual), expected_digest)
        << "4-thread a-pcm digest diverges under "
        << bitmap::SimdLevelName(level) << " kernels on case '"
        << test_case.name << "'";
    // SCAN calls no bitmap code, so its digest must not move with the
    // kernel level either: a control for the checks above.
    index::ScanMatcher rescan;
    ASSERT_EQ(DigestRows(RunMatcher(rescan, workload)), expected_digest)
        << "scan digest diverges under " << bitmap::SimdLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimdAgreementTest,
    ::testing::Range<size_t>(0, MakeCases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return MakeCases()[info.param].name;
    });

// Batch-API agreement for the PCM family, which overrides MatchBatch.
TEST(AgreementBatchTest, BatchEqualsSingleForAllPcmKinds) {
  const auto workload = workload::Generate(BaseSpec(42)).value();
  MatcherConfig config;
  config.pcm.clustering.cluster_size = 32;
  for (MatcherKind kind :
       {MatcherKind::kPcm, MatcherKind::kPcmLazy, MatcherKind::kAPcm}) {
    auto batch_matcher = CreateMatcher(kind, config);
    batch_matcher->Build(workload.subscriptions);
    std::vector<std::vector<SubscriptionId>> batch_results;
    batch_matcher->MatchBatch(workload.events, &batch_results);

    auto single_matcher = CreateMatcher(kind, config);
    const auto single_results = RunMatcher(*single_matcher, workload);
    EXPECT_EQ(batch_results, single_results) << MatcherKindName(kind);
  }
}

}  // namespace
}  // namespace apcm
