// Deterministic robustness fuzzing: random and mutated inputs must produce
// Status errors (or valid results), never crashes, hangs, or invariant
// violations. Complements the structured unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/file_io.h"
#include "src/base/rng.h"
#include "src/be/parser.h"
#include "src/bitmap/kernels.h"
#include "src/engine/engine.h"
#include "src/index/scan.h"
#include "src/store/checkpoint.h"
#include "src/store/durable_store.h"
#include "src/store/wal.h"
#include "src/workload/generator.h"
#include "src/workload/trace.h"

namespace apcm {
namespace {

std::string RandomString(Rng& rng, size_t max_len) {
  // Biased toward the grammar's alphabet so parsing gets past the first
  // character often enough to explore deep paths.
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 _=<>!{}[],-and or between in";
  const size_t len = rng.Uniform(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng.Bernoulli(0.02)) {
      s += static_cast<char>(rng.Uniform(256));  // occasional raw byte
    } else {
      s += kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
    }
  }
  return s;
}

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomInputNeverCrashes) {
  Rng rng(GetParam());
  Catalog catalog;
  Parser parser(&catalog);
  for (int i = 0; i < 2000; ++i) {
    const std::string input = RandomString(rng, 80);
    // Any of ok / error is fine; the process must survive and any parsed
    // artifact must be internally consistent.
    auto pred = parser.ParsePredicate(input);
    auto expr = parser.ParseExpression(1, input);
    if (expr.ok()) {
      for (size_t p = 1; p < expr->predicates().size(); ++p) {
        ASSERT_LT(expr->predicates()[p - 1].attribute(),
                  expr->predicates()[p].attribute());
      }
    }
    auto event = parser.ParseEvent(input);
    if (event.ok()) {
      for (size_t e = 1; e < event->entries().size(); ++e) {
        ASSERT_LT(event->entries()[e - 1].attr, event->entries()[e].attr);
      }
    }
    auto dnf = parser.ParseDisjunction(input);
    (void)pred;
    (void)dnf;
  }
}

TEST_P(ParserFuzzTest, MutatedValidInputNeverCrashes) {
  Rng rng(GetParam() ^ 0xF00D);
  Catalog catalog;
  Parser parser(&catalog);
  const std::string valid =
      "price <= 100 and category in {1, 2, 3} and age between [20, 30]";
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // flip
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // duplicate
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
      if (mutated.empty()) break;
    }
    (void)parser.ParseExpression(0, mutated);
    (void)parser.ParseEvent(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Values(1001, 1002, 1003, 1004));

// ---------------------------------------------------------------------------
// Differential soak: seeded random subscribe / unsubscribe / match
// interleavings, with SCAN over the live subscription set as the oracle.
// Runs a short budget by default; scale it up with APCM_SOAK_OPS (the ctest
// label "soak" marks this binary for long runs). Every assertion carries the
// seed, so a failure reproduces with a single-value --gtest_filter run.

size_t SoakOps() {
  if (const char* env = std::getenv("APCM_SOAK_OPS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 250;  // short default: keeps the tier-1 suite fast
}

workload::WorkloadSpec SoakPoolSpec(uint64_t seed) {
  workload::WorkloadSpec spec;
  spec.seed = seed;
  spec.num_subscriptions = 500;
  spec.num_events = 200;
  spec.num_attributes = 16;
  spec.domain_min = 0;
  spec.domain_max = 400;
  spec.min_predicates = 1;
  spec.max_predicates = 5;
  spec.min_event_attrs = 2;
  spec.max_event_attrs = 8;
  spec.seeded_event_fraction = 0.6;
  return spec;
}

class DifferentialSoakTest : public ::testing::TestWithParam<uint64_t> {};

// Engine-level soak: random mutation bursts interleaved with event batches.
// Each batch is published against a quiesced subscription set, so SCAN over
// the model's live set is an exact per-event oracle; the mutation bursts in
// between still drive the delta path, rebuilds, and compactions.
TEST_P(DifferentialSoakTest, EngineAgreesWithScanUnderChurn) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("reproduce with: --gtest_filter='*EngineAgreesWithScan*' "
               "(failing seed = " +
               std::to_string(seed) + ", ops = " + std::to_string(SoakOps()) +
               ")");
  Rng rng(seed);
  const auto pool = workload::Generate(SoakPoolSpec(seed)).value();

  engine::EngineOptions options;
  options.kind = engine::MatcherKind::kAPcm;
  // Vary the engine shape per seed: matcher threads and whether the
  // incremental path is enabled at all.
  const int thread_choices[] = {1, 2, 4};
  options.matcher.pcm.num_threads = thread_choices[rng.Uniform(3)];
  options.matcher.pcm.clustering.cluster_size = 32;
  options.batch_size = 8;
  options.osr.window_size = rng.Bernoulli(0.5) ? 16 : 0;
  options.buffer_capacity = 32;
  options.incremental_rebuild_threshold = rng.Bernoulli(0.25) ? 0.0 : 0.25;

  std::map<uint64_t, std::vector<SubscriptionId>> by_event;
  engine::StreamEngine engine(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        by_event[event_id] = matches;
      });

  // The model: live subscriptions by engine-assigned id.
  std::map<SubscriptionId, BooleanExpression> live;
  std::vector<SubscriptionId> live_ids;
  size_t next_pool_sub = 0;
  uint64_t published = 0;
  auto subscribe = [&] {
    const auto& sub =
        pool.subscriptions[next_pool_sub++ % pool.subscriptions.size()];
    auto id = engine.AddSubscription(sub.predicates());
    ASSERT_TRUE(id.ok());
    live.emplace(*id, BooleanExpression::Create(*id, sub.predicates()).value());
    live_ids.push_back(*id);
  };
  for (int i = 0; i < 30; ++i) subscribe();

  const size_t ops = SoakOps();
  for (size_t op = 0; op < ops; ++op) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 45) {
      subscribe();
    } else if (dice < 70 && !live_ids.empty()) {
      const size_t pick = rng.Uniform(live_ids.size());
      const SubscriptionId id = live_ids[pick];
      live_ids.erase(live_ids.begin() + static_cast<ptrdiff_t>(pick));
      live.erase(id);
      ASSERT_TRUE(engine.RemoveSubscription(id).ok()) << "id " << id;
    } else {
      // Match burst: quiesce, then publish a small batch with no
      // interleaved mutations and check it exactly against scan.
      engine.Flush();
      std::vector<BooleanExpression> subs;
      subs.reserve(live.size());
      for (const auto& [id, sub] : live) subs.push_back(sub);
      index::ScanMatcher scan;
      scan.Build(subs);
      const size_t burst = 1 + rng.Uniform(8);
      std::vector<uint64_t> ids;
      std::vector<const Event*> events;
      for (size_t e = 0; e < burst; ++e) {
        const Event& event =
            pool.events[rng.Uniform(pool.events.size())];
        events.push_back(&event);
        ids.push_back(engine.Publish(event));
        ++published;
      }
      engine.Flush();
      std::vector<SubscriptionId> expected;
      for (size_t e = 0; e < burst; ++e) {
        scan.Match(*events[e], &expected);
        ASSERT_EQ(by_event.at(ids[e]), expected)
            << "event " << ids[e] << " (" << events[e]->ToString() << ") with "
            << options.matcher.pcm.num_threads << " threads, threshold "
            << options.incremental_rebuild_threshold;
      }
    }
  }
  engine.Flush();
  // Exactly-once delivery across the whole interleaving.
  EXPECT_EQ(by_event.size(), published);
  EXPECT_EQ(engine.stats().events_processed, published);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSoakTest,
                         ::testing::Values(2001, 2002, 2003, 2004));

// ---------------------------------------------------------------------------
// Kernel fuzz: random word spans through every supported SIMD variant, with
// the scalar table as the oracle. Complements the exhaustive alignment/tail
// sweep in bitmap_kernel_test.cc with long random spans and random lengths;
// scales with APCM_SOAK_OPS like the other soak tests.

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelFuzzTest, AllVariantsAgreeOnRandomSpans) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("failing seed = " + std::to_string(seed));
  Rng rng(seed);
  const auto& oracle = bitmap::ScalarKernels();
  const auto levels = bitmap::SupportedSimdLevels();
  const size_t rounds = SoakOps();
  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t words = rng.Uniform(300);
    const uint64_t offset = rng.Uniform(8);
    std::vector<uint64_t> a(words + offset);
    std::vector<uint64_t> b(words + offset);
    for (auto& w : a) w = rng.Bernoulli(0.2) ? 0 : rng();
    for (auto& w : b) w = rng.Bernoulli(0.2) ? ~0ULL : rng();
    const uint64_t* pa = a.data() + offset;
    const uint64_t* pb = b.data() + offset;

    for (const bitmap::SimdLevel level : levels) {
      const auto& table = bitmap::KernelsFor(level);
      std::vector<uint64_t> want(pa, pa + words);
      std::vector<uint64_t> got(pa, pa + words);
      oracle.and_not_words(want.data(), pb, words);
      table.and_not_words(got.data(), pb, words);
      ASSERT_EQ(got, want) << "and_not level " << bitmap::SimdLevelName(level)
                           << " words " << words << " offset " << offset;
      ASSERT_EQ(table.popcount_words(pa, words),
                oracle.popcount_words(pa, words));
      ASSERT_EQ(table.is_zero_words(pa, words),
                oracle.is_zero_words(pa, words));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest,
                         ::testing::Values(3001, 3002, 3003, 3004));

TEST(TraceFuzzTest, CorruptBinaryNeverCrashes) {
  // Serialize a valid workload, then flip bytes and reload: every outcome
  // must be a Status or a structurally valid workload (the loader validates
  // expressions), never a crash or unbounded allocation.
  workload::WorkloadSpec spec;
  spec.num_subscriptions = 50;
  spec.num_events = 20;
  spec.num_attributes = 10;
  spec.max_predicates = 4;
  spec.min_predicates = 1;
  spec.min_event_attrs = 1;
  spec.max_event_attrs = 5;
  const auto workload = workload::Generate(spec).value();
  const std::string path = "/tmp/apcm_fuzz_trace.bin";
  ASSERT_TRUE(workload::SaveBinary(workload, path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  Rng rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < flips; ++i) {
      corrupted[rng.Uniform(corrupted.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    const std::string corrupt_path = "/tmp/apcm_fuzz_trace_corrupt.bin";
    std::FILE* out = std::fopen(corrupt_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(corrupted.data(), 1, corrupted.size(), out);
    std::fclose(out);
    auto loaded = workload::LoadBinary(corrupt_path);
    (void)loaded;  // either outcome is acceptable
  }
  std::remove(path.c_str());
  std::remove("/tmp/apcm_fuzz_trace_corrupt.bin");
}

// ---------------------------------------------------------------------------
// Durable-store codecs: the WAL frame and checkpoint formats must absorb
// torn tails and arbitrary corruption without crashing, and checksums must
// never let a damaged record through as valid.

/// A small WAL stream exercising every record kind, with the cumulative
/// frame boundary after each record (boundaries[0] == 0).
struct WalSample {
  std::vector<store::WalRecord> records;
  std::vector<size_t> boundaries;
  std::string bytes;
};

WalSample MakeWalSample() {
  WalSample sample;
  sample.boundaries.push_back(0);
  uint64_t seq = 0;
  auto push = [&sample, &seq](store::WalRecord record) {
    record.seq = ++seq;
    store::EncodeWalRecord(record, &sample.bytes);
    sample.boundaries.push_back(sample.bytes.size());
    sample.records.push_back(std::move(record));
  };
  store::WalRecord add;
  add.kind = store::WalRecord::Kind::kAdd;
  add.id = 0;
  add.disjuncts.push_back({Predicate(0, Op::kGe, 5), Predicate(3, -7, 12),
                           Predicate(5, std::vector<Value>{1, 9, 4})});
  push(add);
  store::WalRecord dnf;
  dnf.kind = store::WalRecord::Kind::kAddDnf;
  dnf.id = 1;
  dnf.disjuncts.push_back({Predicate(1, Op::kLt, 3)});
  dnf.disjuncts.push_back({Predicate(2, Op::kNe, -1)});
  push(dnf);
  store::WalRecord prio;
  prio.kind = store::WalRecord::Kind::kPriority;
  prio.id = 1;
  prio.priority = 2.5;
  push(prio);
  store::WalRecord remove;
  remove.kind = store::WalRecord::Kind::kRemove;
  remove.id = 0;
  push(remove);
  store::WalRecord wide;
  wide.kind = store::WalRecord::Kind::kAdd;
  wide.id = 3;
  std::vector<Predicate> conj;
  for (AttributeId attr = 0; attr < 12; ++attr) {
    conj.push_back(Predicate(attr, Op::kLe, static_cast<Value>(attr) * 7));
  }
  wide.disjuncts.push_back(std::move(conj));
  push(wide);
  return sample;
}

std::string EncodeOne(const store::WalRecord& record) {
  std::string out;
  store::EncodeWalRecord(record, &out);
  return out;
}

TEST(WalFuzzTest, TruncationAtEveryByteOffsetDecodesAnExactPrefix) {
  const WalSample sample = MakeWalSample();
  for (size_t len = 0; len <= sample.bytes.size(); ++len) {
    const auto result =
        store::DecodeWalBuffer(std::string_view(sample.bytes).substr(0, len));
    // Expected: every record whose frame ends at or before the cut.
    size_t expect = 0;
    while (expect + 1 < sample.boundaries.size() &&
           sample.boundaries[expect + 1] <= len) {
      ++expect;
    }
    ASSERT_EQ(result.records.size(), expect) << "cut at " << len;
    ASSERT_EQ(result.valid_bytes, sample.boundaries[expect]);
    ASSERT_EQ(result.torn, len != sample.boundaries[expect]);
    for (size_t i = 0; i < expect; ++i) {
      ASSERT_EQ(EncodeOne(result.records[i]), EncodeOne(sample.records[i]));
    }
  }
}

TEST(WalFuzzTest, EverySingleBitFlipIsDetected) {
  const WalSample sample = MakeWalSample();
  for (size_t bit = 0; bit < sample.bytes.size() * 8; ++bit) {
    std::string corrupted = sample.bytes;
    corrupted[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    const auto result = store::DecodeWalBuffer(corrupted);
    // The flipped frame must not survive; everything before it must.
    ASSERT_LT(result.records.size(), sample.records.size()) << "bit " << bit;
    ASSERT_TRUE(result.torn);
    for (size_t i = 0; i < result.records.size(); ++i) {
      ASSERT_EQ(EncodeOne(result.records[i]), EncodeOne(sample.records[i]));
    }
  }
}

TEST(WalFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    std::string garbage(rng.Uniform(512), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    const auto result = store::DecodeWalBuffer(garbage);
    ASSERT_LE(result.valid_bytes, garbage.size());
  }
}

/// Torn tails at the store level: truncate a segment at every byte offset
/// and recover. Recovery must never crash, must replay the exact frame
/// prefix, and must count the torn tail.
TEST(WalFuzzTest, StoreRecoversFromTruncationAtEveryByteOffset) {
  const WalSample sample = MakeWalSample();
  const std::string dir = "/tmp/apcm_fuzz_wal_store";
  store::StoreOptions options;
  options.dir = dir;
  for (size_t len = 0; len <= sample.bytes.size(); ++len) {
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(CreateDirIfMissing(dir).ok());
    ASSERT_TRUE(AtomicWriteFile(dir + "/" + store::WalSegmentName(0),
                                sample.bytes.substr(0, len))
                    .ok());
    store::RecoveryInfo info;
    auto opened = store::DurableStore::Open(options, &info);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    size_t expect = 0;
    while (expect + 1 < sample.boundaries.size() &&
           sample.boundaries[expect + 1] <= len) {
      ++expect;
    }
    ASSERT_EQ(info.records.size(), expect) << "cut at " << len;
    ASSERT_EQ(info.torn_tails, len == sample.boundaries[expect] ? 0u : 1u);
    ASSERT_EQ((*opened)->last_seq(), expect);
  }
  std::filesystem::remove_all(dir);
}

store::CheckpointState SampleCheckpoint() {
  store::CheckpointState state;
  state.wal_seq = 42;
  state.next_sub_id = 7;
  state.subscriptions.push_back(
      {0, {Predicate(0, Op::kGe, 5), Predicate(2, -3, 3)}});
  state.subscriptions.push_back({2, {Predicate(1, Op::kEq, 9)}});
  state.subscriptions.push_back(
      {5, {Predicate(4, std::vector<Value>{2, 4, 8})}});
  state.priorities.push_back({2, 1.5});
  state.dnf_groups.push_back({3, {3, 4}});
  state.index_kind = "a-pcm";
  state.index_image = std::string("\x01\x02pretend-index\x00\x7f", 17);
  return state;
}

TEST(CheckpointFuzzTest, TruncationsAndBitFlipsAreAlwaysRejected) {
  const std::string bytes = store::EncodeCheckpoint(SampleCheckpoint());
  ASSERT_TRUE(store::DecodeCheckpoint(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_FALSE(
        store::DecodeCheckpoint(std::string_view(bytes).substr(0, len)).ok())
        << "truncation at " << len;
  }
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string corrupted = bytes;
    corrupted[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    ASSERT_FALSE(store::DecodeCheckpoint(corrupted).ok()) << "bit " << bit;
  }
}

TEST(CheckpointFuzzTest, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(88);
  for (int trial = 0; trial < 400; ++trial) {
    std::string garbage(rng.Uniform(768), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
    (void)store::DecodeCheckpoint(garbage);
  }
  // Valid magic with a garbage body exercises the structural validators
  // behind the magic check.
  for (int trial = 0; trial < 400; ++trial) {
    std::string garbage = "APCMCKP1";
    const size_t body = rng.Uniform(256);
    for (size_t i = 0; i < body; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    (void)store::DecodeCheckpoint(garbage);
  }
}

}  // namespace
}  // namespace apcm
