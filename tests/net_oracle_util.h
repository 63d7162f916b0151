#ifndef APCM_TESTS_NET_ORACLE_UTIL_H_
#define APCM_TESTS_NET_ORACLE_UTIL_H_

// Direct-engine oracle for the network suites: the subscriptions (as text)
// and the events a test sends over the wire, run instead through a local
// StreamEngine. A front-end is correct when its delivered match sets equal
// this oracle's, with client-chosen sub ids standing in for the oracle's
// registration order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/be/catalog.h"
#include "src/be/event.h"
#include "src/be/parser.h"
#include "src/be/string_dictionary.h"
#include "src/engine/engine.h"

namespace apcm {

/// Deterministic network workload: random boolean expressions over
/// attributes a0..a7 (1-3 distinct-attribute comparisons joined by "and",
/// with a second disjunct on ~30% of them) and random events over the same
/// attributes.
struct NetWorkload {
  std::vector<std::string> expressions;
  std::vector<Event> events;
};

inline NetWorkload MakeNetWorkload(uint64_t seed, int num_subs,
                                   int num_events) {
  Rng rng(seed);
  auto make_conjunction = [&rng]() {
    static const char* kOps[] = {">=", "<=", ">", "<", "=", "!="};
    std::string text;
    std::set<uint64_t> used;
    const int preds = 1 + static_cast<int>(rng.Uniform(3));
    for (int p = 0; p < preds; ++p) {
      uint64_t attr = rng.Uniform(8);
      if (!used.insert(attr).second) continue;
      if (!text.empty()) text += " and ";
      text += "a" + std::to_string(attr) + " " + kOps[rng.Uniform(6)] + " " +
              std::to_string(rng.Uniform(100));
    }
    return text;
  };
  NetWorkload w;
  for (int i = 0; i < num_subs; ++i) {
    std::string text = make_conjunction();
    if (rng.Bernoulli(0.3)) text += " or " + make_conjunction();
    w.expressions.push_back(std::move(text));
  }
  for (int i = 0; i < num_events; ++i) {
    std::vector<Event::Entry> entries;
    uint64_t attr = rng.Uniform(3);
    while (attr < 8) {
      entries.push_back({static_cast<AttributeId>(attr),
                         static_cast<int64_t>(rng.Uniform(100))});
      attr += 1 + rng.Uniform(4);
    }
    w.events.push_back(Event::FromSorted(std::move(entries)));
  }
  return w;
}

/// What a direct StreamEngine delivers for a workload.
struct DirectEngineResult {
  /// Engine-assigned event id per publish, in publish order.
  std::vector<uint64_t> event_ids;
  /// publish index -> ascending expression indices it matched (events that
  /// matched nothing are absent).
  std::map<size_t, std::vector<uint64_t>> matches;
};

/// Parses and registers `workload.expressions` in order into a fresh
/// StreamEngine built from `options`, publishes every event, and drains.
/// Attribute names are registered on first appearance, exactly as a
/// server's catalog does when the same texts arrive in the same order.
inline DirectEngineResult RunDirectEngine(const engine::EngineOptions& options,
                                          const NetWorkload& workload) {
  Catalog catalog;
  StringDictionary strings;
  Parser parser(&catalog, &strings);
  std::map<uint64_t, std::vector<uint64_t>> by_event;  // event id -> indices
  std::map<SubscriptionId, uint64_t> index_of;
  std::mutex mu;
  engine::StreamEngine oracle(
      options,
      [&](uint64_t event_id, const std::vector<SubscriptionId>& matches) {
        std::lock_guard<std::mutex> lock(mu);
        if (matches.empty()) return;
        std::vector<uint64_t>& row = by_event[event_id];
        for (SubscriptionId id : matches) row.push_back(index_of.at(id));
      });
  for (size_t i = 0; i < workload.expressions.size(); ++i) {
    auto disjuncts = parser.ParseDisjunction(workload.expressions[i]);
    EXPECT_TRUE(disjuncts.ok()) << workload.expressions[i];
    if (!disjuncts.ok()) return {};
    auto added = disjuncts->size() == 1
                     ? oracle.AddSubscription(std::move((*disjuncts)[0]))
                     : oracle.AddDisjunctiveSubscription(std::move(*disjuncts));
    EXPECT_TRUE(added.ok()) << workload.expressions[i];
    if (!added.ok()) return {};
    std::lock_guard<std::mutex> lock(mu);
    index_of[*added] = static_cast<uint64_t>(i);
  }
  DirectEngineResult result;
  for (const Event& event : workload.events) {
    result.event_ids.push_back(oracle.Publish(event));
  }
  oracle.Flush();
  std::lock_guard<std::mutex> lock(mu);
  for (size_t k = 0; k < result.event_ids.size(); ++k) {
    auto it = by_event.find(result.event_ids[k]);
    if (it == by_event.end()) continue;
    std::vector<uint64_t> row = it->second;
    std::sort(row.begin(), row.end());
    result.matches[k] = std::move(row);
  }
  return result;
}

}  // namespace apcm

#endif  // APCM_TESTS_NET_ORACLE_UTIL_H_
