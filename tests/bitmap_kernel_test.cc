// Differential kernel-oracle suite: every SIMD kernel variant the host can
// run must be bit-for-bit identical to the scalar reference on every word
// alignment, tail length, and adversarial bit pattern — plus the bitmap.h
// wrappers and range helper against plain loops, and the dispatch machinery
// itself (APCM_SIMD startup override, runtime level switching). The ctest registrations run this binary once per APCM_SIMD
// value so the wrapper fast paths are exercised under every forced level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/base/rng.h"
#include "src/bitmap/bitmap.h"
#include "src/bitmap/kernels.h"

namespace apcm::bitmap {
namespace {

/// Word counts covering empty spans, sub-block tails 1..7, exact blocks,
/// and every tail length around one and two blocks.
std::vector<uint64_t> OracleWordCounts() {
  std::vector<uint64_t> counts;
  for (uint64_t w = 0; w <= 40; ++w) counts.push_back(w);
  counts.insert(counts.end(), {63, 64, 65, 127, 128, 129});
  return counts;
}

/// Deterministic adversarial patterns plus seeded random fill.
enum class Pattern { kZeros, kOnes, kAlternating, kSingleBit, kRandom };

std::vector<uint64_t> MakeWords(uint64_t words, Pattern pattern,
                                uint64_t seed) {
  std::vector<uint64_t> data(words, 0);
  Rng rng(seed);
  for (uint64_t i = 0; i < words; ++i) {
    switch (pattern) {
      case Pattern::kZeros:
        data[i] = 0;
        break;
      case Pattern::kOnes:
        data[i] = ~0ULL;
        break;
      case Pattern::kAlternating:
        data[i] = 0xAAAAAAAAAAAAAAAAULL;
        break;
      case Pattern::kSingleBit:
        data[i] = 0;
        break;
      case Pattern::kRandom:
        data[i] = rng();
        break;
    }
  }
  if (pattern == Pattern::kSingleBit && words > 0) {
    const uint64_t bit = rng.Uniform(words * 64);
    data[bit / 64] |= 1ULL << (bit % 64);
  }
  return data;
}

constexpr Pattern kPatterns[] = {Pattern::kZeros, Pattern::kOnes,
                                 Pattern::kAlternating, Pattern::kSingleBit,
                                 Pattern::kRandom};

/// Runs `check(table, a, b)` for every supported non-scalar level against
/// every (word count, offset, pattern pair) combination. Offsets shift the
/// span start within an 8-word slack region so every vector-load alignment
/// is hit.
template <typename Check>
void ForEachOracleCase(const Check& check) {
  constexpr uint64_t kMaxOffset = 8;
  uint64_t seed = 1;
  for (SimdLevel level : SupportedSimdLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const KernelTable& table = KernelsFor(level);
    for (uint64_t words : OracleWordCounts()) {
      for (uint64_t offset = 0; offset < kMaxOffset; ++offset) {
        for (Pattern pa : kPatterns) {
          for (Pattern pb : kPatterns) {
            std::vector<uint64_t> a =
                MakeWords(words + kMaxOffset, pa, ++seed);
            std::vector<uint64_t> b =
                MakeWords(words + kMaxOffset, pb, ++seed);
            check(table, a.data() + offset, b.data() + offset, words);
          }
        }
      }
    }
  }
}

TEST(KernelOracleTest, BinaryOpsMatchScalar) {
  const KernelTable& oracle = ScalarKernels();
  ForEachOracleCase([&](const KernelTable& table, const uint64_t* a,
                        const uint64_t* b, uint64_t words) {
    std::vector<uint64_t> expect(a, a + words);
    std::vector<uint64_t> got(a, a + words);
    oracle.and_not_words(expect.data(), b, words);
    table.and_not_words(got.data(), b, words);
    ASSERT_EQ(got, expect) << "and_not_words level "
                           << SimdLevelName(table.level) << " words " << words;
  });
}

TEST(KernelOracleTest, ReductionsMatchScalar) {
  const KernelTable& oracle = ScalarKernels();
  ForEachOracleCase([&](const KernelTable& table, const uint64_t* a,
                        const uint64_t* /*b*/, uint64_t words) {
    ASSERT_EQ(table.popcount_words(a, words), oracle.popcount_words(a, words))
        << "popcount level " << SimdLevelName(table.level) << " words "
        << words;
    ASSERT_EQ(table.is_zero_words(a, words), oracle.is_zero_words(a, words))
        << "is_zero level " << SimdLevelName(table.level) << " words "
        << words;
  });
}

TEST(KernelOracleTest, WrapperFunctionsAgreeWithActiveTable) {
  // The bitmap.h wrappers take an inline scalar path below the dispatch
  // threshold; both sides of that branch must agree with the active table.
  Rng rng(7);
  for (uint64_t words :
       {uint64_t{0}, uint64_t{1}, kInlineSpanWords, kInlineSpanWords + 1,
        uint64_t{16}, uint64_t{40}}) {
    std::vector<uint64_t> a(words);
    std::vector<uint64_t> b(words);
    for (auto& w : a) w = rng();
    for (auto& w : b) w = rng();
    std::vector<uint64_t> expect = a;
    ActiveKernels().and_not_words(expect.data(), b.data(), words);
    std::vector<uint64_t> got = a;
    AndNotWords(got.data(), b.data(), words);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(PopCountWords(a.data(), words),
              ActiveKernels().popcount_words(a.data(), words));
    EXPECT_EQ(IsZeroWords(a.data(), words),
              ActiveKernels().is_zero_words(a.data(), words));
  }
}

TEST(KernelOracleTest, BitRangeHelpersMatchBitLoops) {
  for (uint64_t bits : {1u, 63u, 64u, 65u, 200u, 512u}) {
    const uint64_t words = WordsForBits(bits);
    for (uint64_t start = 0; start < bits; start += 7) {
      for (uint64_t len : {uint64_t{0}, uint64_t{1}, uint64_t{13},
                           uint64_t{64}, bits - start}) {
        if (start + len > bits) continue;
        // The first `bits` bits set, the tail of the last word clear.
        std::vector<uint64_t> expect(words, 0);
        for (uint64_t i = 0; i < bits; ++i) expect[i / 64] |= 1ULL << (i % 64);
        std::vector<uint64_t> got = expect;
        for (uint64_t i = start; i < start + len; ++i) {
          expect[i / 64] &= ~(1ULL << (i % 64));
        }
        ClearBitRange(got.data(), start, len);
        ASSERT_EQ(got, expect)
            << "clear bits=" << bits << " start=" << start << " len=" << len;
      }
    }
  }
}

TEST(SimdDispatchTest, SupportedLevelsAscendingAndScalarAlways) {
  const auto levels = SupportedSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  EXPECT_EQ(BestSupportedSimdLevel(), levels.back());
}

TEST(SimdDispatchTest, StartupLevelHonorsEnvironment) {
  // The ctest registrations run this binary once per APCM_SIMD value; when
  // the variable names a supported level, first-use dispatch must have
  // picked exactly that level (unsupported values fall back to best).
  const char* env = std::getenv("APCM_SIMD");
  if (env == nullptr || std::string(env).empty() ||
      std::string(env) == "auto") {
    EXPECT_EQ(StartupSimdLevel(), BestSupportedSimdLevel());
    return;
  }
  auto requested = ParseSimdLevel(env);
  ASSERT_TRUE(requested.ok()) << "unparseable APCM_SIMD for test: " << env;
  const auto levels = SupportedSimdLevels();
  if (std::find(levels.begin(), levels.end(), *requested) != levels.end()) {
    EXPECT_EQ(StartupSimdLevel(), *requested);
  } else {
    EXPECT_EQ(StartupSimdLevel(), BestSupportedSimdLevel());
  }
}

TEST(SimdDispatchTest, SetActiveSimdLevelRoundTrips) {
  const SimdLevel original = ActiveSimdLevel();
  for (SimdLevel level : SupportedSimdLevels()) {
    ASSERT_TRUE(SetActiveSimdLevel(level).ok());
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_EQ(ActiveKernels().level, level);
  }
  ASSERT_TRUE(SetActiveSimdLevel(original).ok());
}

TEST(SimdDispatchTest, UnsupportedLevelRejected) {
  const auto levels = SupportedSimdLevels();
  if (std::find(levels.begin(), levels.end(), SimdLevel::kAvx512) !=
      levels.end()) {
    GTEST_SKIP() << "every compiled level is supported on this host";
  }
  const Status status = SetActiveSimdLevel(SimdLevel::kAvx512);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SimdDispatchTest, ParseRejectsUnknownNames) {
  EXPECT_FALSE(ParseSimdLevel("sse2").ok());
  EXPECT_FALSE(ParseSimdLevel("").ok());
  EXPECT_FALSE(ParseSimdLevel("AVX2").ok());
  EXPECT_EQ(*ParseSimdLevel("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(*ParseSimdLevel("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(*ParseSimdLevel("avx512"), SimdLevel::kAvx512);
}

}  // namespace
}  // namespace apcm::bitmap
