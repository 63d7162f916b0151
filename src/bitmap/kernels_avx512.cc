#include "src/bitmap/kernels_internal.h"

#if APCM_BITMAP_HAVE_AVX512

#include <immintrin.h>

#include "src/base/bit_ops.h"

// GCC implements the unmasked 512-bit logic intrinsics via their masked
// builtins seeded with _mm512_undefined_epi32(), which -Wmaybe-uninitialized
// flags under -Werror (GCC bug 105593). The intrinsic semantics are fine;
// silence the false positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

// AVX-512 bitmap kernels: 8 words (512 bits, one cache line) per step. Only
// the F and BW extensions are used — popcount is the nibble-LUT algorithm on
// 512-bit shuffles rather than VPOPCNTDQ, so Skylake-SP-era parts run these
// too. Padded spans (kWordBlock == 8) execute with no tail loop at all.

namespace apcm::bitmap {
namespace {

#define APCM_TARGET_AVX512 __attribute__((target("avx512f,avx512bw")))

APCM_TARGET_AVX512 void Avx512AndNot(uint64_t* dst, const uint64_t* src,
                                     uint64_t words) {
  uint64_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i d = _mm512_loadu_si512(dst + i);
    const __m512i s = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_andnot_epi64(s, d));
  }
  for (; i < words; ++i) dst[i] &= ~src[i];
}

APCM_TARGET_AVX512 uint64_t Avx512PopCount(const uint64_t* words_ptr,
                                           uint64_t words) {
  const __m512i lut = _mm512_set4_epi32(0x04030302, 0x03020201, 0x03020201,
                                        0x02010100);
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  __m512i acc = _mm512_setzero_si512();
  uint64_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i v = _mm512_loadu_si512(words_ptr + i);
    const __m512i lo = _mm512_and_si512(v, low_mask);
    const __m512i hi = _mm512_and_si512(_mm512_srli_epi32(v, 4), low_mask);
    const __m512i counts = _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                                           _mm512_shuffle_epi8(lut, hi));
    acc = _mm512_add_epi64(acc,
                           _mm512_sad_epu8(counts, _mm512_setzero_si512()));
  }
  uint64_t total = _mm512_reduce_add_epi64(acc);
  for (; i < words; ++i) {
    total += static_cast<uint64_t>(PopCount(words_ptr[i]));
  }
  return total;
}

APCM_TARGET_AVX512 bool Avx512IsZero(const uint64_t* words_ptr,
                                     uint64_t words) {
  uint64_t i = 0;
  for (; i + 8 <= words; i += 8) {
    const __m512i v = _mm512_loadu_si512(words_ptr + i);
    if (_mm512_test_epi64_mask(v, v) != 0) return false;
  }
  uint64_t acc = 0;
  for (; i < words; ++i) acc |= words_ptr[i];
  return acc == 0;
}

#undef APCM_TARGET_AVX512

constexpr KernelTable kAvx512Table = {
    Avx512AndNot,
    Avx512PopCount,
    Avx512IsZero,
    SimdLevel::kAvx512,
};

}  // namespace

bool Avx512KernelsUsable() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
}

const KernelTable& Avx512Kernels() { return kAvx512Table; }

}  // namespace apcm::bitmap

#endif  // APCM_BITMAP_HAVE_AVX512
