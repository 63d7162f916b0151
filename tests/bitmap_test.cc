#include "src/bitmap/bitmap.h"

#include <gtest/gtest.h>

#include <vector>

namespace apcm {
namespace {

TEST(BitmapTest, ForEachSetBitOrdered) {
  const std::vector<uint64_t> indices = {0, 5, 63, 64, 65, 128, 199};
  std::vector<uint64_t> words(WordsForBits(200), 0);
  for (uint64_t i : indices) words[i / 64] |= 1ULL << (i % 64);
  std::vector<uint64_t> visited;
  ForEachSetBit(words.data(), words.size(),
                [&](uint64_t i) { visited.push_back(i); });
  EXPECT_EQ(visited, indices);
}

TEST(BitmapWordsTest, WordsForBits) {
  EXPECT_EQ(WordsForBits(0), 0u);
  EXPECT_EQ(WordsForBits(1), 1u);
  EXPECT_EQ(WordsForBits(64), 1u);
  EXPECT_EQ(WordsForBits(65), 2u);
}

}  // namespace
}  // namespace apcm
