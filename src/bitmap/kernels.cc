#include "src/bitmap/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/base/bit_ops.h"
#include "src/bitmap/kernels_internal.h"
#include "src/base/macros.h"

namespace apcm::bitmap {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. Deliberately plain loops: this is the oracle the
// vector variants are differentially tested against, so clarity beats
// cleverness here (the compiler auto-vectorizes them anyway).

void ScalarAndNot(uint64_t* dst, const uint64_t* src, uint64_t words) {
  for (uint64_t i = 0; i < words; ++i) dst[i] &= ~src[i];
}

uint64_t ScalarPopCount(const uint64_t* words_ptr, uint64_t words) {
  uint64_t total = 0;
  for (uint64_t i = 0; i < words; ++i) {
    total += static_cast<uint64_t>(PopCount(words_ptr[i]));
  }
  return total;
}

bool ScalarIsZero(const uint64_t* words_ptr, uint64_t words) {
  uint64_t acc = 0;
  for (uint64_t i = 0; i < words; ++i) acc |= words_ptr[i];
  return acc == 0;
}

constexpr KernelTable kScalarTable = {
    ScalarAndNot,
    ScalarPopCount,
    ScalarIsZero,
    SimdLevel::kScalar,
};

SimdLevel g_startup_level = SimdLevel::kScalar;

}  // namespace

const KernelTable& ScalarKernels() { return kScalarTable; }

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

StatusOr<SimdLevel> ParseSimdLevel(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "avx512") return SimdLevel::kAvx512;
  return Status::InvalidArgument("unknown SIMD level '" + name +
                                 "' (expected scalar, avx2, or avx512)");
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
#if APCM_BITMAP_HAVE_AVX2
  if (Avx2KernelsUsable()) levels.push_back(SimdLevel::kAvx2);
#endif
#if APCM_BITMAP_HAVE_AVX512
  if (Avx512KernelsUsable()) levels.push_back(SimdLevel::kAvx512);
#endif
  return levels;
}

SimdLevel BestSupportedSimdLevel() { return SupportedSimdLevels().back(); }

const KernelTable& KernelsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return kScalarTable;
    case SimdLevel::kAvx2:
#if APCM_BITMAP_HAVE_AVX2
      APCM_CHECK(Avx2KernelsUsable());
      return Avx2Kernels();
#else
      break;
#endif
    case SimdLevel::kAvx512:
#if APCM_BITMAP_HAVE_AVX512
      APCM_CHECK(Avx512KernelsUsable());
      return Avx512Kernels();
#else
      break;
#endif
  }
  APCM_CHECK(false);  // level not compiled in — guard with SupportedSimdLevels
  return kScalarTable;
}

Status SetActiveSimdLevel(SimdLevel level) {
  for (SimdLevel supported : SupportedSimdLevels()) {
    if (supported == level) {
      ActiveKernels();  // ensure startup init happened first
      internal::active_table.store(&KernelsFor(level),
                                   std::memory_order_release);
      return Status::OK();
    }
  }
  return Status::InvalidArgument(std::string("SIMD level '") +
                                 SimdLevelName(level) +
                                 "' is not supported on this host");
}

SimdLevel StartupSimdLevel() {
  ActiveKernels();  // force init
  return g_startup_level;
}

namespace internal {

std::atomic<const KernelTable*> active_table{nullptr};

const KernelTable* InitActiveTable() {
  static std::once_flag once;
  std::call_once(once, [] {
    SimdLevel level = BestSupportedSimdLevel();
    if (const char* env = std::getenv("APCM_SIMD")) {
      const std::string requested = env;
      if (!requested.empty() && requested != "auto") {
        auto parsed = ParseSimdLevel(requested);
        bool usable = false;
        if (parsed.ok()) {
          for (SimdLevel supported : SupportedSimdLevels()) {
            if (supported == *parsed) usable = true;
          }
        }
        if (usable) {
          level = *parsed;
        } else {
          std::fprintf(stderr,
                       "APCM_SIMD=%s is not available on this host; using "
                       "%s kernels\n",
                       requested.c_str(), SimdLevelName(level));
        }
      }
    }
    g_startup_level = level;
    active_table.store(&KernelsFor(level), std::memory_order_release);
  });
  return active_table.load(std::memory_order_acquire);
}

}  // namespace internal
}  // namespace apcm::bitmap
