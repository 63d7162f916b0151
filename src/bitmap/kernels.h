#ifndef APCM_BITMAP_KERNELS_H_
#define APCM_BITMAP_KERNELS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"

namespace apcm::bitmap {

/// \file
/// Vectorized bitmap kernels with runtime dispatch.
///
/// The three word-span operations compressed matching runs (and-not, which
/// clears a failing predicate's dense slot mask out of the survivor bitmap;
/// popcount; and the all-zero test) are implemented once per instruction-set
/// level and selected at runtime: the best level the CPU supports wins,
/// overridable with the APCM_SIMD environment variable ("scalar", "avx2",
/// "avx512", or "auto") for testing and benchmarking. Every variant is
/// bit-for-bit equivalent to the scalar reference — the differential suite
/// in tests/bitmap_kernel_test.cc enforces this across alignments, tail
/// lengths, and adversarial bit patterns.
///
/// Spans are raw uint64 word arrays (cluster masks live in flat arenas).
/// Kernels accept any alignment and any length, including zero; lengths
/// that are a multiple of kWordBlock words hit the no-tail fast path, which
/// is why the cluster layout pads its bitmaps (see PaddedWords in bitmap.h).

/// Instruction-set levels, in increasing order of capability. The numeric
/// values are stable (exposed as the apcm_simd_level metric).
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Printable name: "scalar" / "avx2" / "avx512".
const char* SimdLevelName(SimdLevel level);

/// Parses "scalar" / "avx2" / "avx512". InvalidArgument on anything else
/// ("auto" is handled by the dispatch layer, not here).
StatusOr<SimdLevel> ParseSimdLevel(const std::string& name);

/// Word granularity the vector kernels are blocked on (8 words = 512 bits =
/// one cache line). Spans padded to a multiple of this never execute a
/// scalar tail loop.
inline constexpr uint64_t kWordBlock = 8;

/// One implementation of every kernel operation. All operate on `words`
/// 64-bit words; all tolerate words == 0 and arbitrary alignment.
struct KernelTable {
  /// dst[i] &= ~src[i].
  void (*and_not_words)(uint64_t* dst, const uint64_t* src, uint64_t words);
  /// Total set bits.
  uint64_t (*popcount_words)(const uint64_t* words_ptr, uint64_t words);
  /// True iff every word is zero.
  bool (*is_zero_words)(const uint64_t* words_ptr, uint64_t words);
  SimdLevel level;
};

/// The scalar reference implementation — the oracle every vector variant is
/// tested against.
const KernelTable& ScalarKernels();

/// Levels this binary can run on this host: the intersection of what was
/// compiled in and what CPUID reports. Always contains kScalar; ascending.
std::vector<SimdLevel> SupportedSimdLevels();

/// The highest entry of SupportedSimdLevels().
SimdLevel BestSupportedSimdLevel();

/// The table for `level`. CHECK-fails if the level is not supported on this
/// host (guard with SupportedSimdLevels).
const KernelTable& KernelsFor(SimdLevel level);

/// Switches the process-wide active kernel table. InvalidArgument if the
/// level is not supported. Not synchronized with in-flight matching — call
/// at startup or between test cases, not while batches are running (every
/// level computes identical results, so the race is benign for correctness
/// of individual calls, but perf counters would blend levels).
Status SetActiveSimdLevel(SimdLevel level);

/// The level selected at first use: APCM_SIMD if set (and supported — an
/// unsupported or unknown request warns on stderr and falls back), else the
/// best supported level. Unaffected by later SetActiveSimdLevel calls; lets
/// tests verify the environment override took effect.
SimdLevel StartupSimdLevel();

namespace internal {
extern std::atomic<const KernelTable*> active_table;
/// Slow path of ActiveKernels: applies APCM_SIMD, publishes the table.
const KernelTable* InitActiveTable();
}  // namespace internal

/// The process-wide active table. One relaxed load on the fast path.
inline const KernelTable& ActiveKernels() {
  const KernelTable* table =
      internal::active_table.load(std::memory_order_acquire);
  return table != nullptr ? *table : *internal::InitActiveTable();
}

/// Level of the active table.
inline SimdLevel ActiveSimdLevel() { return ActiveKernels().level; }

}  // namespace apcm::bitmap

#endif  // APCM_BITMAP_KERNELS_H_
