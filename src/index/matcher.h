#ifndef APCM_INDEX_MATCHER_H_
#define APCM_INDEX_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/be/event.h"
#include "src/be/expression.h"

namespace apcm {

/// Instrumentation counters every matcher maintains. These feed the hot-spot
/// profiler and the benchmark reports.
/// Counters are cumulative; callers snapshot/diff.
struct MatcherStats {
  uint64_t events_matched = 0;     ///< events processed
  uint64_t predicate_evals = 0;    ///< individual predicate evaluations
  uint64_t bitmap_words = 0;       ///< 64-bit bitmap words touched
  uint64_t candidates_checked = 0; ///< expressions examined (full or partial)
  uint64_t matches_emitted = 0;    ///< total (event, subscription) matches
  /// (cluster, event) pairs a cluster-based matcher evaluated: each event
  /// counts once per cluster it reached. 0 for matchers without clusters.
  uint64_t clusters_visited = 0;

  MatcherStats& operator+=(const MatcherStats& other) {
    events_matched += other.events_matched;
    predicate_evals += other.predicate_evals;
    bitmap_words += other.bitmap_words;
    candidates_checked += other.candidates_checked;
    matches_emitted += other.matches_emitted;
    clusters_visited += other.clusters_visited;
    return *this;
  }
};

/// One profiled cluster in a matcher hot-spot ranking (see
/// Matcher::CollectHotspots): where the matching budget went, attributable
/// to a concrete group of subscriptions. Counters cover *profiled* batches
/// only (the profiler samples 1 in N batches), so entries compare against
/// each other, not against wall time.
struct HotspotEntry {
  uint32_t cluster = 0;            ///< cluster index within its matcher
  uint32_t subscriptions = 0;      ///< expressions in the cluster
  SubscriptionId example_sub = 0;  ///< one member id, for operator lookup
  uint64_t batches = 0;            ///< profiled (cluster, batch) evaluations
  uint64_t ns = 0;                 ///< accumulated wall time, nanoseconds
  uint64_t predicate_evals = 0;
  uint64_t candidates_checked = 0;
};

/// Common interface of every matching algorithm in this repository — the
/// baselines (SCAN, Counting, k-index, BE-Tree) and the contributions
/// (PCM / A-PCM). A matcher is built once over a subscription set and then
/// serves read-only Match calls. Match results are subscription ids in
/// ascending order.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Algorithm name for reports, e.g. "scan", "be-tree", "a-pcm".
  virtual std::string Name() const = 0;

  /// Builds the index over `subscriptions`. Called exactly once, before any
  /// Match call. Implementations may keep references into the vector; the
  /// caller keeps it alive for the matcher's lifetime.
  virtual void Build(const std::vector<BooleanExpression>& subscriptions) = 0;

  /// Appends the ids of all subscriptions matching `event` to `*matches`
  /// in ascending order (matches is cleared first).
  virtual void Match(const Event& event,
                     std::vector<SubscriptionId>* matches) = 0;

  /// Matches a batch of events; result i corresponds to events[i]. The
  /// default loops over Match; batch-aware matchers (PCM/A-PCM) override to
  /// exploit cluster-major processing.
  virtual void MatchBatch(const std::vector<Event>& events,
                          std::vector<std::vector<SubscriptionId>>* results) {
    results->assign(events.size(), {});
    for (size_t i = 0; i < events.size(); ++i) {
      Match(events[i], &(*results)[i]);
    }
  }

  /// Cumulative instrumentation since Build.
  virtual const MatcherStats& stats() const = 0;

  /// Appends this matcher's per-cluster hot-spot profile to `*out`
  /// (unordered; callers rank). Only profiling matchers (the PCM family
  /// with PcmOptions::hotspot_every > 0) record anything — the default is
  /// a no-op. Counters are sampled relaxed atomics, safe to read while
  /// matching runs.
  virtual void CollectHotspots(std::vector<HotspotEntry>* out) const {
    (void)out;
  }

  /// Approximate heap footprint of the index structures in bytes
  /// (excluding the subscription vector owned by the caller).
  virtual uint64_t MemoryBytes() const = 0;
};

/// A matcher that additionally supports incremental subscription
/// maintenance: absorbing adds and removes as *delta state* without a full
/// Build, plus a measure of how much delta has accumulated so callers can
/// decide when to fold it back (the StreamEngine rebuilds above
/// `EngineOptions::incremental_rebuild_threshold`). Implemented by the PCM
/// family (delta clusters + tombstones).
class IncrementalMatcher : public Matcher {
 public:
  /// Registers `subscription` without a rebuild. The id must not collide
  /// with a live subscription; it matches from the next Match call.
  virtual void AddIncremental(BooleanExpression subscription) = 0;

  /// Unregisters `id` without a rebuild; it stops matching immediately.
  /// NotFound if the id is unknown or already removed.
  virtual Status RemoveIncremental(SubscriptionId id) = 0;

  /// Fraction of the index that is delta state (incremental adds +
  /// tombstones vs. total); callers rebuild above a threshold.
  virtual double DeltaFraction() const = 0;
};

}  // namespace apcm

#endif  // APCM_INDEX_MATCHER_H_
