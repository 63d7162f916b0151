#include "src/engine/matcher_factory.h"

#include "src/index/betree.h"
#include "src/index/counting.h"
#include "src/index/kindex.h"
#include "src/index/scan.h"

namespace apcm::engine {

std::string_view MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kScan:
      return "scan";
    case MatcherKind::kCounting:
      return "counting";
    case MatcherKind::kKIndex:
      return "k-index";
    case MatcherKind::kBETree:
      return "be-tree";
    case MatcherKind::kPcm:
      return "pcm";
    case MatcherKind::kPcmLazy:
      return "pcm-lazy";
    case MatcherKind::kAPcm:
      return "a-pcm";
  }
  return "?";
}

StatusOr<MatcherKind> ParseMatcherKind(std::string_view name) {
  static constexpr MatcherKind kAll[] = {
      MatcherKind::kScan,   MatcherKind::kCounting, MatcherKind::kKIndex,
      MatcherKind::kBETree, MatcherKind::kPcm,      MatcherKind::kPcmLazy,
      MatcherKind::kAPcm,
  };
  for (MatcherKind kind : kAll) {
    if (MatcherKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument("unknown matcher '" + std::string(name) +
                                 "'");
}

std::unique_ptr<Matcher> CreateMatcher(MatcherKind kind,
                                       const MatcherConfig& config) {
  switch (kind) {
    case MatcherKind::kScan:
      return std::make_unique<index::ScanMatcher>();
    case MatcherKind::kCounting:
      return std::make_unique<index::CountingMatcher>(config.domain);
    case MatcherKind::kKIndex:
      return std::make_unique<index::KIndexMatcher>(config.domain);
    case MatcherKind::kBETree:
      return std::make_unique<index::BETreeMatcher>();
    case MatcherKind::kPcm: {
      core::PcmOptions options = config.pcm;
      options.mode = core::PcmMode::kCompressed;
      return std::make_unique<core::PcmMatcher>(options);
    }
    case MatcherKind::kPcmLazy: {
      core::PcmOptions options = config.pcm;
      options.mode = core::PcmMode::kLazy;
      return std::make_unique<core::PcmMatcher>(options);
    }
    case MatcherKind::kAPcm: {
      core::PcmOptions options = config.pcm;
      options.mode = core::PcmMode::kAdaptive;
      return std::make_unique<core::PcmMatcher>(options);
    }
  }
  return nullptr;
}

}  // namespace apcm::engine
