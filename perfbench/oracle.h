// Correctness oracle: expected match sets from an independent matcher (SCAN,
// or BE-Tree where SCAN would be too slow; never the matcher under test) and
// the join of what the server delivered against them.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "perfbench/stats.h"
#include "src/be/event.h"
#include "src/be/expression.h"

namespace perfbench {

/// Expression-event pairs above which the oracle uses BE-Tree, not SCAN.
inline constexpr uint64_t kScanBudget = 16'000'000;

/// Per pool event, the ids (as `expressions[i].id()`) the oracle matches.
std::vector<std::vector<uint64_t>> ExpectedMatches(
    const std::vector<apcm::BooleanExpression>& expressions,
    const std::vector<apcm::Event>& pool);

/// What the client saw for one published event.
struct EventRecord {
  int64_t due_ns = 0;       ///< open loop: schedule; closed loop: send time
  int64_t sent_ns = 0;      ///< when the frame was handed to the socket
  int64_t ack_ns = 0;       ///< PUBLISH ACK arrival (0 = none)
  int64_t match_ns = 0;     ///< first MATCH frame arrival (0 = none)
  int64_t progress_ns = 0;  ///< PROGRESS watermark passed it (0 = never)
  uint32_t pool_index = 0;
  bool ack_ok = true;       ///< ACK carried the expected event id
  SetDigest stable;         ///< stable-book ids received
};

/// One life of a churned subscription: subscribed once under a fresh client
/// id, unsubscribed once. An event index < sub_sent_done had its PROGRESS
/// before the SUBSCRIBE was sent; an event index >= unsub_acked_events was
/// sent after the UNSUBSCRIBE was acknowledged.
struct ChurnLife {
  uint32_t pool_index = 0;  ///< index into the churn pool
  int64_t sub_sent_ns = 0, sub_ack_ns = 0;
  int64_t unsub_sent_ns = 0, unsub_ack_ns = 0;
  uint64_t sub_sent_done = 0;  ///< events completed when SUBSCRIBE was sent
  uint64_t unsub_acked_events = UINT64_MAX;  ///< events sent at its ACK
};

/// A churned id delivered for an event.
struct ChurnMatch {
  uint64_t event_index = 0;
  uint64_t life = 0;  ///< churned id minus the book size; may be any value
};

struct OracleReport {
  uint64_t events_checked = 0;
  uint64_t stable_mismatches = 0;  ///< stable-book set differs from SCAN
  uint64_t missing_progress = 0;   ///< no PROGRESS ever covered the event
  uint64_t bad_acks = 0;           ///< ACK missing or carrying a wrong id
  uint64_t churn_wrong = 0;        ///< churned id that must not have matched
  uint64_t Mismatches() const {
    return stable_mismatches + missing_progress + bad_acks + churn_wrong;
  }
};

/// Joins the delivered records against the expected sets.
/// `expected_stable[p]` is the digest of the stable ids matching pool event p;
/// `churn_expected[p]` lists (ascending) the churn-pool indices matching it.
/// The stable book is checked exactly; a churned id is wrong when it was
/// never subscribed (no life in `lives`), its expression does not match the
/// event, the event was complete before the id's SUBSCRIBE was sent, or the
/// event was sent after the id's UNSUBSCRIBE was acknowledged.
OracleReport JoinOracle(
    const std::vector<EventRecord>& events,
    const std::vector<SetDigest>& expected_stable,
    const std::vector<std::vector<uint32_t>>& churn_expected,
    const std::vector<ChurnLife>& lives,
    const std::vector<ChurnMatch>& churn_matches);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
