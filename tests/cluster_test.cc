#include "src/core/cluster.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/bitmap/bitmap.h"
#include "tests/matcher_test_util.h"

namespace apcm::core {
namespace {

std::vector<const BooleanExpression*> Pointers(
    const std::vector<BooleanExpression>& subs) {
  std::vector<const BooleanExpression*> ptrs;
  for (const auto& sub : subs) ptrs.push_back(&sub);
  return ptrs;
}

std::vector<SubscriptionId> CompressedMatches(const CompressedCluster& cluster,
                                              const Event& event) {
  std::vector<uint64_t> result(cluster.words(), 0);
  MatcherStats stats;
  std::vector<SubscriptionId> matches;
  if (cluster.MatchCompressed(event, result.data(), &stats)) {
    cluster.CollectMatches(result.data(), &matches);
  }
  return matches;
}

std::vector<SubscriptionId> LazyMatches(const CompressedCluster& cluster,
                                        const Event& event) {
  std::vector<uint64_t> result(cluster.words(), 0);
  MatcherStats stats;
  std::vector<SubscriptionId> matches;
  if (cluster.MatchLazy(event, result.data(), &stats)) {
    cluster.CollectMatches(result.data(), &matches);
  }
  return matches;
}

std::vector<SubscriptionId> ScanMatches(
    const std::vector<BooleanExpression>& subs, const Event& event) {
  std::vector<SubscriptionId> matches;
  for (const auto& sub : subs) {
    if (sub.Matches(event)) matches.push_back(sub.id());
  }
  return matches;
}

TEST(ClusterTest, BasicCompressedMatching) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(
      10, {Predicate(0, Op::kLe, 50), Predicate(1, Op::kEq, 1)}).value());
  subs.push_back(BooleanExpression::Create(
      11, {Predicate(0, Op::kLe, 50), Predicate(1, Op::kEq, 2)}).value());
  subs.push_back(BooleanExpression::Create(
      12, {Predicate(0, Op::kGt, 50)}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));

  EXPECT_EQ(CompressedMatches(cluster,
                              Event::Create({{0, 40}, {1, 1}}).value()),
            (std::vector<SubscriptionId>{10}));
  EXPECT_EQ(CompressedMatches(cluster,
                              Event::Create({{0, 40}, {1, 2}}).value()),
            (std::vector<SubscriptionId>{11}));
  EXPECT_EQ(CompressedMatches(cluster, Event::Create({{0, 60}}).value()),
            (std::vector<SubscriptionId>{12}));
  // attr 1 absent: subs 10, 11 fail via the absence mask.
  EXPECT_EQ(CompressedMatches(cluster, Event::Create({{0, 40}}).value()),
            (std::vector<SubscriptionId>{}));
}

TEST(ClusterTest, SharedPredicateEvaluatedOnce) {
  // 64 subscriptions all sharing one predicate on attr 0, each with a unique
  // predicate on attr 1.
  std::vector<BooleanExpression> subs;
  for (SubscriptionId i = 0; i < 64; ++i) {
    subs.push_back(BooleanExpression::Create(
        i, {Predicate(0, 10, 20), Predicate(1, Op::kEq, i)}).value());
  }
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.total_predicates(), 128u);
  EXPECT_EQ(cluster.distinct_predicates(), 65u);  // 1 shared + 64 unique

  std::vector<uint64_t> result(cluster.words());
  MatcherStats stats;
  const Event event = Event::Create({{0, 15}, {1, 7}}).value();
  ASSERT_TRUE(cluster.MatchCompressed(event, result.data(), &stats));
  // Compressed evaluation touches each distinct predicate at most once.
  EXPECT_LE(stats.predicate_evals, 65u);
  std::vector<SubscriptionId> matches;
  cluster.CollectMatches(result.data(), &matches);
  EXPECT_EQ(matches, (std::vector<SubscriptionId>{7}));
}

TEST(ClusterTest, CompressedLazyAndScanAgree) {
  for (uint64_t seed : {71, 72, 73, 74}) {
    const auto spec = GnarlySpec(seed);
    const auto workload = workload::Generate(spec).value();
    const auto cluster =
        CompressedCluster::Build(Pointers(workload.subscriptions));
    for (const Event& event : workload.events) {
      const auto expected = ScanMatches(workload.subscriptions, event);
      EXPECT_EQ(CompressedMatches(cluster, event), expected)
          << event.ToString();
      EXPECT_EQ(LazyMatches(cluster, event), expected) << event.ToString();
    }
  }
}

TEST(ClusterTest, SparseThresholdDoesNotChangeResults) {
  const auto spec = GnarlySpec(75);
  const auto workload = workload::Generate(spec).value();
  const auto ptrs = Pointers(workload.subscriptions);
  CompressedCluster::Options all_dense;
  all_dense.sparse_threshold = 0;
  CompressedCluster::Options all_sparse;
  all_sparse.sparse_threshold = 1'000'000;
  const auto dense = CompressedCluster::Build(ptrs, all_dense);
  const auto sparse = CompressedCluster::Build(ptrs, all_sparse);
  const auto defaults = CompressedCluster::Build(ptrs);
  for (const Event& event : workload.events) {
    const auto expected = ScanMatches(workload.subscriptions, event);
    EXPECT_EQ(CompressedMatches(dense, event), expected);
    EXPECT_EQ(CompressedMatches(sparse, event), expected);
    EXPECT_EQ(CompressedMatches(defaults, event), expected);
  }
  // Sparse slot lists use far less memory than width-sized masks here.
  EXPECT_LT(sparse.MemoryBytes(), dense.MemoryBytes());
}

TEST(ClusterTest, AbsencePhaseSplitMatchesOneShot) {
  const auto spec = GnarlySpec(76);
  const auto workload = workload::Generate(spec).value();
  const auto cluster =
      CompressedCluster::Build(Pointers(workload.subscriptions));
  std::vector<uint64_t> split(cluster.words());
  std::vector<uint64_t> oneshot(cluster.words());
  for (const Event& event : workload.events) {
    MatcherStats s1;
    MatcherStats s2;
    const bool alive_split =
        cluster.ComputeAbsence(event, split.data(), &s1) &&
        cluster.MatchPresent(event, split.data(), &s1);
    const bool alive_oneshot =
        cluster.MatchCompressed(event, oneshot.data(), &s2);
    EXPECT_EQ(alive_split, alive_oneshot);
    if (alive_split) {
      std::vector<SubscriptionId> m1;
      std::vector<SubscriptionId> m2;
      cluster.CollectMatches(split.data(), &m1);
      cluster.CollectMatches(oneshot.data(), &m2);
      EXPECT_EQ(m1, m2);
    }
  }
}

TEST(ClusterTest, EmptyExpressionMatchesEverything) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(5, {}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(CompressedMatches(cluster, Event()),
            (std::vector<SubscriptionId>{5}));
  EXPECT_EQ(CompressedMatches(cluster, Event::Create({{9, 9}}).value()),
            (std::vector<SubscriptionId>{5}));
}

TEST(ClusterTest, SingleSubscriptionCluster) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(
      0, {Predicate(2, Op::kEq, 3)}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.size(), 1u);
  // Result width is padded to the kernel block (8 words) even for one slot.
  EXPECT_EQ(cluster.words(), bitmap::kWordBlock);
  EXPECT_EQ(CompressedMatches(cluster, Event::Create({{2, 3}}).value()),
            (std::vector<SubscriptionId>{0}));
  EXPECT_TRUE(CompressedMatches(cluster, Event::Create({{2, 4}}).value())
                  .empty());
}

TEST(ClusterTest, NonContiguousSubscriptionIds) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(
      1000, {Predicate(0, Op::kGe, 5)}).value());
  subs.push_back(BooleanExpression::Create(
      5, {Predicate(0, Op::kLt, 5)}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.SubIdAt(0), 1000u);
  EXPECT_EQ(cluster.SubIdAt(1), 5u);
  EXPECT_EQ(CompressedMatches(cluster, Event::Create({{0, 9}}).value()),
            (std::vector<SubscriptionId>{1000}));
}

TEST(ClusterTest, WideClusterCrossesWordBoundaries) {
  // 200 subscriptions -> 4 words, padded to one kernel block; matches on
  // both sides of word boundaries.
  std::vector<BooleanExpression> subs;
  for (SubscriptionId i = 0; i < 200; ++i) {
    subs.push_back(BooleanExpression::Create(
        i, {Predicate(0, Op::kEq, static_cast<Value>(i % 2))}).value());
  }
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.words(), PaddedWords(200));
  const auto even = CompressedMatches(cluster, Event::Create({{0, 0}}).value());
  EXPECT_EQ(even.size(), 100u);
  for (SubscriptionId id : even) EXPECT_EQ(id % 2, 0u);
}

TEST(ClusterTest, RequiredAttributesComputed) {
  std::vector<BooleanExpression> subs;
  // attr 3 constrained by all, attr 5 by only one, attr 7 by both.
  subs.push_back(BooleanExpression::Create(
      0, {Predicate(3, Op::kGe, 1), Predicate(7, Op::kLe, 9)}).value());
  subs.push_back(BooleanExpression::Create(
      1, {Predicate(3, Op::kLt, 5), Predicate(5, Op::kEq, 2),
          Predicate(7, Op::kGt, 0)}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.required_attributes(), (std::vector<AttributeId>{3, 7}));
  // An event missing attr 3 is rejected by the fast path, with zeroed
  // output, in both modes.
  std::vector<uint64_t> result(cluster.words(), ~0ULL);
  MatcherStats stats;
  EXPECT_FALSE(cluster.ComputeAbsence(Event::Create({{5, 2}, {7, 1}}).value(),
                                      result.data(), &stats));
  EXPECT_TRUE(IsZeroWords(result.data(), cluster.words()));
  EXPECT_FALSE(cluster.MatchLazy(Event::Create({{5, 2}, {7, 1}}).value(),
                                 result.data(), &stats));
}

TEST(ClusterTest, MatchAllSubscriptionDisablesRequiredAttrs) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(
      0, {Predicate(3, Op::kGe, 1)}).value());
  subs.push_back(BooleanExpression::Create(1, {}).value());  // matches all
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_TRUE(cluster.required_attributes().empty());
  EXPECT_EQ(CompressedMatches(cluster, Event()),
            (std::vector<SubscriptionId>{1}));
}

// Word-boundary sweep: cluster widths straddling 64-bit word edges must not
// leak tail bits or drop slots in any evaluation path.
class ClusterWidthTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClusterWidthTest, AllPathsAgreeAtBoundaryWidths) {
  const uint32_t width = GetParam();
  workload::WorkloadSpec spec = GnarlySpec(width * 7 + 1);
  spec.num_subscriptions = width;
  spec.num_events = 60;
  const auto workload = workload::Generate(spec).value();
  const auto cluster =
      CompressedCluster::Build(Pointers(workload.subscriptions));
  ASSERT_EQ(cluster.size(), width);
  for (const Event& event : workload.events) {
    const auto expected = ScanMatches(workload.subscriptions, event);
    EXPECT_EQ(CompressedMatches(cluster, event), expected)
        << "width " << width << " " << event.ToString();
    EXPECT_EQ(LazyMatches(cluster, event), expected)
        << "width " << width << " " << event.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ClusterWidthTest,
                         ::testing::Values(1u, 2u, 63u, 64u, 65u, 127u, 128u,
                                           129u, 192u, 255u, 256u));

// The cluster's SlotSet is the one hybrid container in the codebase: a
// hand-built cluster whose distinct predicates land in all three forms must
// still match exactly like lazy and per-subscription evaluation. Runs start
// and end mid-word, so this is the cluster-level check of the run form's
// ClearBitRange path.
TEST(ClusterTest, SlotSetFormsAllMatchLazyAndScan) {
  // 8 words wide, so a slot set of at most 4 runs takes the run form.
  constexpr SubscriptionId kSubs = 512;
  std::vector<BooleanExpression> subs;
  for (SubscriptionId i = 0; i < kSubs; ++i) {
    // attr 0: three contiguous slot ranges, one predicate each -> run form.
    const Predicate range = i < 100   ? Predicate(0, 0, 9)
                            : i < 300 ? Predicate(0, 5, 14)
                                      : Predicate(0, 10, 19);
    // attr 1: every third slot shares a value -> too many runs -> dense.
    std::vector<Predicate> preds = {
        range, Predicate(1, Op::kEq, static_cast<Value>(i % 3))};
    // attr 2: pairs of slots among the first eight -> sparse slot lists.
    if (i < 8) {
      preds.push_back(Predicate(2, Op::kLe, static_cast<Value>(i / 2)));
    }
    subs.push_back(BooleanExpression::Create(i, preds).value());
  }
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  const auto forms = cluster.slot_set_stats();
  EXPECT_GT(forms.sparse, 0u);
  EXPECT_GT(forms.dense, 0u);
  EXPECT_GT(forms.run, 0u);

  Rng rng(4242);
  uint64_t total_matches = 0;
  for (int e = 0; e < 300; ++e) {
    std::vector<Event::Entry> entries = {
        {0, static_cast<Value>(rng.Uniform(20))}};
    if (rng.Uniform(8) != 0) {
      entries.push_back({1, static_cast<Value>(rng.Uniform(3))});
    }
    if (rng.Uniform(2) != 0) {
      entries.push_back({2, static_cast<Value>(rng.Uniform(5))});
    }
    const Event event = Event::Create(entries).value();
    const auto expected = ScanMatches(subs, event);
    total_matches += expected.size();
    EXPECT_EQ(CompressedMatches(cluster, event), expected) << event.ToString();
    EXPECT_EQ(LazyMatches(cluster, event), expected) << event.ToString();
  }
  EXPECT_GT(total_matches, 0u);
}

TEST(ClusterTest, AttributesAccessorSorted) {
  std::vector<BooleanExpression> subs;
  subs.push_back(BooleanExpression::Create(
      0, {Predicate(9, Op::kEq, 1), Predicate(2, Op::kEq, 1)}).value());
  subs.push_back(BooleanExpression::Create(
      1, {Predicate(5, Op::kEq, 1)}).value());
  const auto cluster = CompressedCluster::Build(Pointers(subs));
  EXPECT_EQ(cluster.Attributes(), (std::vector<AttributeId>{2, 5, 9}));
}

}  // namespace
}  // namespace apcm::core
