// Traced replay: drives each layer's public functions in-process on the same
// book and events the wire run used, recording a span around every call.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/be/event.h"
#include "src/be/expression.h"

namespace perfbench {

struct ReplayInput {
  const std::vector<apcm::BooleanExpression>* book = nullptr;
  const std::vector<std::string>* book_texts = nullptr;
  const std::vector<apcm::BooleanExpression>* churn_pool = nullptr;
  const std::vector<apcm::Event>* pool = nullptr;
  const std::vector<uint32_t>* order = nullptr;
  /// Stable-book ids the oracle matches per pool event (MATCH payloads).
  const std::vector<std::vector<uint64_t>>* expected = nullptr;
  std::string tmp_dir;  ///< temporary directory for the store replay
};

/// Runs every replay and adds its per-layer metrics (names as in
/// BENCHMARK.json) to `*metrics`.
void ReplayLayers(const ReplayInput& input, SpanRecorder* spans,
                  std::map<std::string, double>* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
