#ifndef APCM_BITMAP_BITMAP_H_
#define APCM_BITMAP_BITMAP_H_

#include <cstdint>

#include "src/base/bit_ops.h"
#include "src/bitmap/kernels.h"

namespace apcm {

/// \file
/// Word-span bitmap helpers for compressed cluster matching. A cluster keeps
/// its survivor bitmap and its dense slot-set masks in one flat arena, so
/// these are free functions over raw uint64 word spans; the only hybrid
/// container is the cluster's own SlotSet (src/core/cluster.h), whose sparse,
/// dense and run forms clear survivors through AndNotWords, per-bit clears
/// and ClearBitRange.
///
/// The three kernel-backed functions (AndNotWords, IsZeroWords,
/// PopCountWords) dispatch to the runtime-selected SIMD kernel table
/// (src/bitmap/kernels.h) above a small-span threshold; below it an inline
/// scalar loop avoids the indirect call. Either path computes identical
/// results — the kernel-oracle suite enforces bit-for-bit equivalence.

/// Number of 64-bit words needed to hold `bits` bits.
inline uint64_t WordsForBits(uint64_t bits) { return CeilDiv(bits, 64); }

/// Words for `bits` bits rounded up to a multiple of bitmap::kWordBlock, the
/// vector kernels' blocking granularity. Cluster bitmaps are allocated at
/// this width so the kernels stream whole blocks with no tail loop.
inline uint64_t PaddedWords(uint64_t bits) {
  const uint64_t words = WordsForBits(bits);
  return CeilDiv(words, bitmap::kWordBlock) * bitmap::kWordBlock;
}

/// Spans at or below this many words run an inline scalar loop instead of
/// dispatching through the kernel table: the indirect call costs more than
/// the work itself. Padded cluster spans (>= kWordBlock words) dispatch.
inline constexpr uint64_t kInlineSpanWords = 4;

/// dst[i] &= ~src[i] over `words` words. The core compressed-matching step:
/// clear the subscriptions that a failed predicate participates in.
inline void AndNotWords(uint64_t* dst, const uint64_t* src, uint64_t words) {
  if (words <= kInlineSpanWords) {
    for (uint64_t i = 0; i < words; ++i) dst[i] &= ~src[i];
    return;
  }
  bitmap::ActiveKernels().and_not_words(dst, src, words);
}

/// True iff all `words` words are zero.
inline bool IsZeroWords(const uint64_t* words_ptr, uint64_t words) {
  if (words <= kInlineSpanWords) {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < words; ++i) acc |= words_ptr[i];
    return acc == 0;
  }
  return bitmap::ActiveKernels().is_zero_words(words_ptr, words);
}

/// Total set bits across `words` words.
inline uint64_t PopCountWords(const uint64_t* words_ptr, uint64_t words) {
  if (words <= kInlineSpanWords) {
    uint64_t total = 0;
    for (uint64_t i = 0; i < words; ++i) {
      total += static_cast<uint64_t>(PopCount(words_ptr[i]));
    }
    return total;
  }
  return bitmap::ActiveKernels().popcount_words(words_ptr, words);
}

/// Clears bits [start, start + len) of the span. The run-length slot-set
/// representation clears one contiguous range per run with this.
inline void ClearBitRange(uint64_t* words, uint64_t start, uint64_t len) {
  if (len == 0) return;
  const uint64_t last = start + len - 1;
  const uint64_t w0 = start / 64;
  const uint64_t w1 = last / 64;
  const uint64_t first_mask = ~0ULL << (start % 64);
  const uint64_t last_mask = ~0ULL >> (63 - last % 64);
  if (w0 == w1) {
    words[w0] &= ~(first_mask & last_mask);
    return;
  }
  words[w0] &= ~first_mask;
  for (uint64_t w = w0 + 1; w < w1; ++w) words[w] = 0;
  words[w1] &= ~last_mask;
}

/// Invokes fn(bit_index) for every set bit, in increasing order. bit_index is
/// relative to the start of the span.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words_ptr, uint64_t words, Fn fn) {
  for (uint64_t w = 0; w < words; ++w) {
    uint64_t word = words_ptr[w];
    while (word != 0) {
      const int bit = CountTrailingZeros(word);
      fn(w * 64 + static_cast<uint64_t>(bit));
      word &= word - 1;
    }
  }
}

}  // namespace apcm

#endif  // APCM_BITMAP_BITMAP_H_
