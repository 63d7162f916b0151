#include "src/bitmap/kernels_internal.h"

#if APCM_BITMAP_HAVE_AVX2

#include <immintrin.h>

#include "src/base/bit_ops.h"

// AVX2 bitmap kernels: 4 words (256 bits) per step, per-function target
// attributes so the rest of the binary stays baseline-ISA. All loads/stores
// are unaligned (penalty-free on every AVX2 part when the data happens to be
// aligned); spans padded to kWordBlock just skip the scalar tails.

namespace apcm::bitmap {
namespace {

#define APCM_TARGET_AVX2 __attribute__((target("avx2")))

APCM_TARGET_AVX2 void Avx2AndNot(uint64_t* dst, const uint64_t* src,
                                 uint64_t words) {
  uint64_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot computes ~a & b, so the mask goes in the first operand.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(s, d));
  }
  for (; i < words; ++i) dst[i] &= ~src[i];
}

/// Mula's nibble-LUT popcount: per-byte counts via two pshufb lookups, then
/// horizontal sums with psadbw into four 64-bit lanes.
APCM_TARGET_AVX2 uint64_t Avx2PopCount(const uint64_t* words_ptr,
                                       uint64_t words) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i acc = _mm256_setzero_si256();
  uint64_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words_ptr + i));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                           _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc,
                           _mm256_sad_epu8(counts, _mm256_setzero_si256()));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < words; ++i) {
    total += static_cast<uint64_t>(PopCount(words_ptr[i]));
  }
  return total;
}

APCM_TARGET_AVX2 bool Avx2IsZero(const uint64_t* words_ptr, uint64_t words) {
  uint64_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words_ptr + i));
    if (!_mm256_testz_si256(v, v)) return false;
  }
  uint64_t acc = 0;
  for (; i < words; ++i) acc |= words_ptr[i];
  return acc == 0;
}

#undef APCM_TARGET_AVX2

constexpr KernelTable kAvx2Table = {
    Avx2AndNot,
    Avx2PopCount,
    Avx2IsZero,
    SimdLevel::kAvx2,
};

}  // namespace

bool Avx2KernelsUsable() {
  // __builtin_cpu_supports folds in the OSXSAVE/YMM-state check.
  return __builtin_cpu_supports("avx2") != 0;
}

const KernelTable& Avx2Kernels() { return kAvx2Table; }

}  // namespace apcm::bitmap

#endif  // APCM_BITMAP_HAVE_AVX2
