#ifndef APCM_CORE_PCM_H_
#define APCM_CORE_PCM_H_

#include <atomic>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/adaptive.h"
#include "src/core/cluster.h"
#include "src/core/cluster_builder.h"
#include "src/index/matcher.h"

namespace apcm::core {

/// Static vs. adaptive evaluation policy of a PcmMatcher.
enum class PcmMode {
  kCompressed,  ///< always compressed evaluation ("PCM")
  kLazy,        ///< always lazy evaluation (ablation control)
  kAdaptive,    ///< per-cluster adaptive choice ("A-PCM")
};

struct PcmOptions {
  ClusterBuilderOptions clustering;
  PcmMode mode = PcmMode::kAdaptive;
  /// Worker threads for batch matching; each owns a stride of the clusters
  /// and streams the whole batch through them. 1 = fully sequential.
  int num_threads = 1;
  /// Reuse the absence phase (phase 1) across consecutive batch events with
  /// the same attribute signature — the algorithmic payoff of OSR.
  bool share_absence_phase = true;
  /// Incrementally added subscriptions are compressed into side clusters of
  /// this size once enough accumulate; smaller pending tails are scanned.
  uint32_t delta_cluster_size = 256;
  /// Adaptive controller knobs (kAdaptive only).
  double epsilon = 0.05;
  double ewma_alpha = 0.3;
  /// Seed of the (deterministic) exploration stream.
  uint64_t seed = 1;
  /// Hot-spot profiler: on 1 in this many batches, per-cluster wall time and
  /// work counters are accumulated for CollectHotspots (each cluster has a
  /// single owning thread per batch, so the accumulators are uncontended).
  /// 0 disables profiling entirely.
  uint32_t hotspot_every = 16;
};

/// The paper's contribution: (Adaptive) Parallel Compressed Matching.
/// Subscriptions are compressed into clusters (see CompressedCluster); a
/// batch of events is matched cluster-major — each thread owns a contiguous
/// range of clusters and streams the whole batch through each cluster while
/// its masks are cache-resident. With PcmMode::kAdaptive, every cluster
/// chooses compressed vs. lazy evaluation per batch via its AdaptiveState.
class PcmMatcher : public IncrementalMatcher {
 public:
  explicit PcmMatcher(PcmOptions options = {});
  ~PcmMatcher() override;

  std::string Name() const override;

  void Build(const std::vector<BooleanExpression>& subscriptions) override;

  /// Incremental maintenance — production engines cannot afford a full
  /// rebuild per subscription change. Additions are copied into owned side
  /// storage and compressed into *delta clusters* once
  /// options().delta_cluster_size of them accumulate (smaller pending tails
  /// are short-circuit scanned). Removals tombstone the id; tombstoned
  /// subscriptions stop matching immediately and are physically dropped at
  /// the next Build. Ids must not collide with live subscriptions.
  void AddIncremental(BooleanExpression subscription) override;

  /// Tombstones `id` (base or incremental). NotFound if the id is unknown
  /// or already removed.
  Status RemoveIncremental(SubscriptionId id) override;

  /// Fraction of the index that is delta state (incremental adds +
  /// tombstones vs. total); engines rebuild above a threshold.
  double DeltaFraction() const override;

  /// Folds all delta state back into the main index: clusters containing
  /// tombstoned subscriptions are regrouped (dropping them) together with
  /// every incrementally added subscription, using the configured clustering
  /// strategy; unaffected clusters — typically the vast majority — are left
  /// untouched, keeping their adaptive-state warmup. Much cheaper than
  /// Build for small delta fractions. After Compact, DeltaFraction() == 0
  /// and removed ids may be re-registered.
  void Compact();

  /// Persists the built index (the compressed clusters) to `path`, so a
  /// restart can skip clustering and compression. The subscription set
  /// itself is NOT stored — pair the file with its subscription trace.
  /// The file is replaced atomically (tmp + fsync + rename), so a crash
  /// mid-save can never leave a half-written index behind.
  /// FailedPrecondition if the matcher holds un-compacted delta state
  /// (rebuild first) or was never built.
  Status SaveIndex(const std::string& path) const;

  /// Stream form of SaveIndex — the serialization entry point the durable
  /// checkpoint path (src/store) embeds index images through.
  Status SaveIndex(std::ostream& out) const;

  /// Replaces Build: loads an index written by SaveIndex against the same
  /// subscription set (ids are validated; `subscriptions` must outlive the
  /// matcher, exactly as with Build).
  Status LoadIndex(const std::vector<BooleanExpression>& subscriptions,
                   const std::string& path);

  /// Stream form of LoadIndex, for images embedded in checkpoint files.
  Status LoadIndex(const std::vector<BooleanExpression>& subscriptions,
                   std::istream& in);

  void Match(const Event& event,
             std::vector<SubscriptionId>* matches) override;

  void MatchBatch(const std::vector<Event>& events,
                  std::vector<std::vector<SubscriptionId>>* results) override;

  const MatcherStats& stats() const override { return stats_; }

  /// Per-cluster profile accumulated on sampled batches (see
  /// PcmOptions::hotspot_every). Safe to call while MatchBatch runs (the
  /// accumulators are relaxed atomics), but not concurrently with
  /// Build/LoadIndex/Compact, which replace the profile table — the same
  /// contract as clusters().
  void CollectHotspots(std::vector<HotspotEntry>* out) const override;

  uint64_t MemoryBytes() const override;

  /// The compressed clusters (introspection for tests and benchmarks).
  const std::vector<CompressedCluster>& clusters() const { return clusters_; }

  /// Aggregate compression ratio: total predicates / distinct predicates
  /// stored (1.0 = no sharing).
  double CompressionRatio() const;

  /// How many (cluster, batch) decisions each mode won so far.
  struct AdaptiveCounters {
    uint64_t compressed_batches = 0;
    uint64_t lazy_batches = 0;
  };
  AdaptiveCounters adaptive_counters() const;

  const PcmOptions& options() const { return options_; }

 private:
  struct ThreadState;

  /// Hot-spot accumulator for one main cluster; parallel to clusters_.
  /// Written only by the cluster's owning stripe thread on profiled batches
  /// (uncontended), read by CollectHotspots at any time — hence relaxed
  /// atomics rather than plain counters.
  struct alignas(64) ClusterProfile {
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> predicate_evals{0};
    std::atomic<uint64_t> candidates_checked{0};
  };

  /// (Re)creates the adaptive states, thread pool, and per-thread scratch
  /// for the current clusters_; shared by Build and LoadIndex.
  void InitRuntime();

  void MatchBatchImpl(const Event* events, size_t num_events,
                      std::vector<std::vector<SubscriptionId>>* results);

  PcmOptions options_;
  std::vector<CompressedCluster> clusters_;
  std::vector<AdaptiveState> adaptive_;
  /// One profile per main cluster (empty when hotspot_every == 0); atomics
  /// are not movable, so the table lives behind a unique_ptr array. Rebuilt
  /// by InitRuntime, carried per-cluster through Compact like adaptive_.
  std::unique_ptr<ClusterProfile[]> profiles_;
  size_t num_profiles_ = 0;
  /// Incremental state. delta_subs_ owns every incrementally added
  /// expression — a deque for pointer stability, since delta clusters, the
  /// pending list, AND post-Compact main clusters reference its elements.
  /// Only Build/LoadIndex (which drop all clusters) may clear it.
  std::deque<BooleanExpression> delta_subs_;
  std::vector<CompressedCluster> delta_clusters_;
  std::vector<const BooleanExpression*> delta_pending_;
  std::unordered_set<SubscriptionId> tombstones_;
  std::unordered_set<SubscriptionId> known_ids_;
  /// Adds not yet folded into the main clusters (Compact resets this
  /// without clearing delta_subs_).
  uint64_t uncompacted_adds_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<ThreadState>> thread_states_;
  uint64_t max_words_ = 0;  ///< scratch size: widest cluster
  uint64_t batch_counter_ = 0;
  MatcherStats stats_;
};

}  // namespace apcm::core

#endif  // APCM_CORE_PCM_H_
