#ifndef APCM_ENGINE_MATCHER_FACTORY_H_
#define APCM_ENGINE_MATCHER_FACTORY_H_

#include <memory>
#include <string_view>

#include "src/base/status.h"
#include "src/be/value.h"
#include "src/core/pcm.h"
#include "src/index/matcher.h"

namespace apcm::engine {

/// Every matching algorithm in the repository, selectable by name.
enum class MatcherKind {
  kScan,
  kCounting,
  kKIndex,
  kBETree,
  kPcm,      ///< compressed, static
  kPcmLazy,  ///< lazy, static (ablation)
  kAPcm,     ///< adaptive (the paper's A-PCM)
};

/// Canonical name ("scan", "counting", "k-index", "be-tree", "pcm",
/// "pcm-lazy", "a-pcm").
std::string_view MatcherKindName(MatcherKind kind);

/// Parses a canonical name; InvalidArgument for unknown names.
StatusOr<MatcherKind> ParseMatcherKind(std::string_view name);

/// Everything a matcher construction can need.
struct MatcherConfig {
  /// Value domain, required by counting / k-index decomposition.
  ValueInterval domain{0, 1'000'000};
  /// PCM family options (threads, clustering, adaptivity).
  core::PcmOptions pcm;
};

/// Constructs an unbuilt matcher of `kind`; call Build() on it before
/// matching. For the PCM family, `config.pcm.mode` is overridden to match
/// `kind`.
std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind,
                                       const MatcherConfig& config);

}  // namespace apcm::engine

#endif  // APCM_ENGINE_MATCHER_FACTORY_H_
