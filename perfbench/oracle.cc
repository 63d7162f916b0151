#include "perfbench/oracle.h"

#include <algorithm>

#include "src/index/betree.h"
#include "src/index/scan.h"

namespace perfbench {

std::vector<std::vector<uint64_t>> ExpectedMatches(
    const std::vector<apcm::BooleanExpression>& expressions,
    const std::vector<apcm::Event>& pool) {
  apcm::index::ScanMatcher scan;
  apcm::index::BETreeMatcher betree;
  apcm::Matcher& oracle =
      expressions.size() * pool.size() <= kScanBudget
          ? static_cast<apcm::Matcher&>(scan)
          : static_cast<apcm::Matcher&>(betree);
  oracle.Build(expressions);
  std::vector<std::vector<uint64_t>> out(pool.size());
  std::vector<apcm::SubscriptionId> ids;
  for (size_t p = 0; p < pool.size(); ++p) {
    oracle.Match(pool[p], &ids);
    out[p].assign(ids.begin(), ids.end());
  }
  return out;
}

OracleReport JoinOracle(
    const std::vector<EventRecord>& events,
    const std::vector<SetDigest>& expected_stable,
    const std::vector<std::vector<uint32_t>>& churn_expected,
    const std::vector<ChurnLife>& lives,
    const std::vector<ChurnMatch>& churn_matches) {
  OracleReport report;
  for (const EventRecord& e : events) {
    ++report.events_checked;
    if (e.progress_ns == 0) {
      ++report.missing_progress;
      continue;
    }
    if (e.ack_ns == 0 || !e.ack_ok) ++report.bad_acks;
    if (!(e.stable == expected_stable[e.pool_index])) {
      ++report.stable_mismatches;
    }
  }
  for (const ChurnMatch& m : churn_matches) {
    if (m.life >= lives.size() || m.event_index >= events.size()) {
      ++report.churn_wrong;
      continue;
    }
    const ChurnLife& life = lives[m.life];
    const std::vector<uint32_t>& allowed =
        churn_expected[events[m.event_index].pool_index];
    const bool expression_matches =
        std::binary_search(allowed.begin(), allowed.end(), life.pool_index);
    if (!expression_matches || m.event_index < life.sub_sent_done ||
        m.event_index >= life.unsub_acked_events) {
      ++report.churn_wrong;
    }
  }
  return report;
}

}  // namespace perfbench
