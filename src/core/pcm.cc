#include "src/core/pcm.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/base/file_io.h"
#include "src/base/macros.h"
#include "src/base/timer.h"
#include "src/bitmap/bitmap.h"

namespace apcm::core {
namespace {

// Version 2: padded cluster bitmap widths and hybrid (sparse/dense/run)
// slot-set encoding. Version-1 images are rejected by the magic check.
constexpr char kIndexMagic[] = "APCMIDX2";

}  // namespace

namespace {

/// Hash of the event's attribute *set* (not values): events with equal
/// signatures have identical absence-phase results in every cluster.
uint64_t EventSignature(const Event& event) {
  uint64_t h = 14695981039346656037ULL;
  for (const Event::Entry& entry : event.entries()) {
    h ^= entry.attr;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

/// Per-worker scratch, cache-line aligned so threads never share lines.
struct alignas(kCacheLineSize) PcmMatcher::ThreadState {
  std::vector<uint64_t> result;
  std::vector<uint64_t> absence;  // cached phase-1 output
  uint64_t cached_signature = 0;
  bool cache_valid = false;
  bool cached_alive = false;
  std::vector<std::vector<SubscriptionId>> per_event;
  MatcherStats stats;  // this batch only
  AdaptiveCounters counters;
};

PcmMatcher::PcmMatcher(PcmOptions options) : options_(std::move(options)) {
  APCM_CHECK(options_.num_threads >= 1);
}

PcmMatcher::~PcmMatcher() = default;

std::string PcmMatcher::Name() const {
  switch (options_.mode) {
    case PcmMode::kCompressed:
      return "pcm";
    case PcmMode::kLazy:
      return "pcm-lazy";
    case PcmMode::kAdaptive:
      return "a-pcm";
  }
  return "?";
}

void PcmMatcher::InitRuntime() {
  delta_subs_.clear();
  delta_clusters_.clear();
  delta_pending_.clear();
  tombstones_.clear();
  uncompacted_adds_ = 0;
  adaptive_.clear();
  if (options_.mode == PcmMode::kAdaptive) {
    adaptive_.assign(clusters_.size(),
                     AdaptiveState(options_.epsilon, options_.ewma_alpha));
  }
  max_words_ = 0;
  for (const CompressedCluster& cluster : clusters_) {
    max_words_ = std::max(max_words_, cluster.words());
  }
  num_profiles_ = options_.hotspot_every != 0 ? clusters_.size() : 0;
  profiles_ = num_profiles_ != 0
                  ? std::make_unique<ClusterProfile[]>(num_profiles_)
                  : nullptr;
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  thread_states_.clear();
  for (int t = 0; t < options_.num_threads; ++t) {
    auto state = std::make_unique<ThreadState>();
    state->result.assign(max_words_, 0);
    state->absence.assign(max_words_, 0);
    thread_states_.push_back(std::move(state));
  }
}

void PcmMatcher::Build(const std::vector<BooleanExpression>& subscriptions) {
  clusters_ = BuildClusters(subscriptions, options_.clustering);
  known_ids_.clear();
  for (const auto& sub : subscriptions) known_ids_.insert(sub.id());
  InitRuntime();
}

void PcmMatcher::AddIncremental(BooleanExpression subscription) {
  APCM_CHECK(pool_ != nullptr);  // Build must have run (possibly empty)
  APCM_CHECK(!known_ids_.contains(subscription.id()));  // ids are never reused
  known_ids_.insert(subscription.id());
  ++uncompacted_adds_;
  delta_subs_.push_back(std::move(subscription));
  delta_pending_.push_back(&delta_subs_.back());
  if (delta_pending_.size() >= options_.delta_cluster_size) {
    CompressedCluster::Options cluster_options =
        options_.clustering.cluster_options;
    delta_clusters_.push_back(
        CompressedCluster::Build(delta_pending_, cluster_options));
    delta_pending_.clear();
    const uint64_t words = delta_clusters_.back().words();
    if (words > max_words_) {
      max_words_ = words;
      for (auto& state : thread_states_) {
        state->result.assign(max_words_, 0);
        state->absence.assign(max_words_, 0);
      }
    }
  }
}

Status PcmMatcher::RemoveIncremental(SubscriptionId id) {
  if (!known_ids_.contains(id) || tombstones_.contains(id)) {
    return Status::NotFound("subscription " + std::to_string(id) +
                            " is not live in this matcher");
  }
  tombstones_.insert(id);
  return Status::OK();
}

double PcmMatcher::DeltaFraction() const {
  if (known_ids_.empty()) return 0;
  return static_cast<double>(uncompacted_adds_ + tombstones_.size()) /
         static_cast<double>(known_ids_.size());
}

void PcmMatcher::Compact() {
  APCM_CHECK(pool_ != nullptr);  // Build must have run
  if (uncompacted_adds_ == 0 && tombstones_.empty()) return;
  const bool adaptive = options_.mode == PcmMode::kAdaptive;
  const bool profiling = profiles_ != nullptr;
  std::vector<const BooleanExpression*> regroup;
  std::vector<CompressedCluster> kept;
  std::vector<AdaptiveState> kept_adaptive;
  /// Snapshot of a surviving cluster's profile (Compact runs quiesced, so
  /// plain relaxed loads see the final values); regrouped clusters start
  /// from zero, like their adaptive state.
  struct ProfileValues {
    uint64_t batches, ns, predicate_evals, candidates_checked;
  };
  std::vector<ProfileValues> kept_profiles;
  for (size_t i = 0; i < clusters_.size(); ++i) {
    CompressedCluster& cluster = clusters_[i];
    bool affected = false;
    if (!tombstones_.empty()) {
      for (uint32_t slot = 0; slot < cluster.size(); ++slot) {
        if (tombstones_.contains(cluster.SubIdAt(slot))) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      for (uint32_t slot = 0; slot < cluster.size(); ++slot) {
        if (!tombstones_.contains(cluster.SubIdAt(slot))) {
          regroup.push_back(cluster.members()[slot]);
        }
      }
    } else {
      // Untouched: keep the compressed form, its learned adaptive state,
      // and its accumulated hot-spot profile.
      kept.push_back(std::move(cluster));
      if (adaptive) kept_adaptive.push_back(adaptive_[i]);
      if (profiling) {
        const ClusterProfile& p = profiles_[i];
        kept_profiles.push_back(
            {p.batches.load(std::memory_order_relaxed),
             p.ns.load(std::memory_order_relaxed),
             p.predicate_evals.load(std::memory_order_relaxed),
             p.candidates_checked.load(std::memory_order_relaxed)});
      }
    }
  }
  for (const CompressedCluster& delta_cluster : delta_clusters_) {
    for (uint32_t slot = 0; slot < delta_cluster.size(); ++slot) {
      if (!tombstones_.contains(delta_cluster.SubIdAt(slot))) {
        regroup.push_back(delta_cluster.members()[slot]);
      }
    }
  }
  for (const BooleanExpression* sub : delta_pending_) {
    if (!tombstones_.contains(sub->id())) regroup.push_back(sub);
  }

  std::vector<CompressedCluster> fresh =
      BuildClustersFromPointers(regroup, options_.clustering);
  for (CompressedCluster& cluster : fresh) {
    max_words_ = std::max(max_words_, cluster.words());
    kept.push_back(std::move(cluster));
    if (adaptive) {
      kept_adaptive.push_back(
          AdaptiveState(options_.epsilon, options_.ewma_alpha));
    }
    if (profiling) kept_profiles.push_back({0, 0, 0, 0});
  }
  clusters_ = std::move(kept);
  if (adaptive) adaptive_ = std::move(kept_adaptive);
  if (profiling) {
    num_profiles_ = kept_profiles.size();
    profiles_ = std::make_unique<ClusterProfile[]>(num_profiles_);
    for (size_t i = 0; i < num_profiles_; ++i) {
      profiles_[i].batches.store(kept_profiles[i].batches,
                                 std::memory_order_relaxed);
      profiles_[i].ns.store(kept_profiles[i].ns, std::memory_order_relaxed);
      profiles_[i].predicate_evals.store(kept_profiles[i].predicate_evals,
                                         std::memory_order_relaxed);
      profiles_[i].candidates_checked.store(
          kept_profiles[i].candidates_checked, std::memory_order_relaxed);
    }
  }
  for (SubscriptionId id : tombstones_) known_ids_.erase(id);
  tombstones_.clear();
  delta_clusters_.clear();
  delta_pending_.clear();
  uncompacted_adds_ = 0;
  for (auto& state : thread_states_) {
    if (state->result.size() < max_words_) {
      state->result.assign(max_words_, 0);
      state->absence.assign(max_words_, 0);
    }
  }
}

Status PcmMatcher::SaveIndex(std::ostream& out) const {
  if (pool_ == nullptr) {
    return Status::FailedPrecondition("SaveIndex before Build");
  }
  if (uncompacted_adds_ != 0 || !tombstones_.empty()) {
    return Status::FailedPrecondition(
        "index holds delta state; Compact() or rebuild before saving");
  }
  out.write(kIndexMagic, sizeof(kIndexMagic));
  const uint64_t cluster_count = clusters_.size();
  out.write(reinterpret_cast<const char*>(&cluster_count),
            sizeof(cluster_count));
  for (const CompressedCluster& cluster : clusters_) {
    APCM_RETURN_NOT_OK(cluster.Serialize(out));
  }
  if (!out) return Status::IOError("index stream write failed");
  return Status::OK();
}

Status PcmMatcher::SaveIndex(const std::string& path) const {
  std::ostringstream out(std::ios::binary);
  APCM_RETURN_NOT_OK(SaveIndex(out));
  return AtomicWriteFile(path, out.view());
}

Status PcmMatcher::LoadIndex(
    const std::vector<BooleanExpression>& subscriptions,
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return LoadIndex(subscriptions, in);
}

Status PcmMatcher::LoadIndex(
    const std::vector<BooleanExpression>& subscriptions, std::istream& in) {
  char magic[sizeof(kIndexMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::string_view(magic, sizeof(magic) - 1) !=
                 std::string_view(kIndexMagic, sizeof(kIndexMagic) - 1)) {
    return Status::InvalidArgument("stream is not an apcm index");
  }
  uint64_t cluster_count = 0;
  in.read(reinterpret_cast<char*>(&cluster_count), sizeof(cluster_count));
  if (!in || cluster_count > (1ULL << 32)) {
    return Status::InvalidArgument("corrupt index header");
  }
  std::unordered_map<SubscriptionId, const BooleanExpression*> subs_by_id;
  subs_by_id.reserve(subscriptions.size());
  for (const auto& sub : subscriptions) {
    subs_by_id.emplace(sub.id(), &sub);
  }
  std::vector<CompressedCluster> clusters;
  clusters.reserve(
      std::min<uint64_t>(cluster_count, 1u << 20));
  uint64_t covered = 0;
  for (uint64_t c = 0; c < cluster_count; ++c) {
    APCM_ASSIGN_OR_RETURN(CompressedCluster cluster,
                          CompressedCluster::Deserialize(in, subs_by_id));
    covered += cluster.size();
    clusters.push_back(std::move(cluster));
  }
  if (covered != subscriptions.size()) {
    return Status::FailedPrecondition(
        "index covers " + std::to_string(covered) + " subscriptions but " +
        std::to_string(subscriptions.size()) + " were provided");
  }
  clusters_ = std::move(clusters);
  known_ids_.clear();
  for (const auto& sub : subscriptions) known_ids_.insert(sub.id());
  InitRuntime();
  return Status::OK();
}

void PcmMatcher::Match(const Event& event,
                       std::vector<SubscriptionId>* matches) {
  std::vector<std::vector<SubscriptionId>> results;
  MatchBatchImpl(&event, 1, &results);
  *matches = std::move(results[0]);
}

void PcmMatcher::MatchBatch(
    const std::vector<Event>& events,
    std::vector<std::vector<SubscriptionId>>* results) {
  MatchBatchImpl(events.data(), events.size(), results);
}

void PcmMatcher::MatchBatchImpl(
    const Event* events, size_t num_events,
    std::vector<std::vector<SubscriptionId>>* results) {
  APCM_CHECK(pool_ != nullptr);  // Build must have run
  results->assign(num_events, {});
  if (num_events == 0) return;
  stats_.events_matched += num_events;
  if (clusters_.empty() && delta_clusters_.empty() &&
      delta_pending_.empty()) {
    return;
  }

  const bool share = options_.share_absence_phase;
  std::vector<uint64_t> signatures;
  if (share) {
    signatures.resize(num_events);
    for (size_t i = 0; i < num_events; ++i) {
      signatures[i] = EventSignature(events[i]);
    }
  }

  ++batch_counter_;
  for (auto& state : thread_states_) {
    state->stats = MatcherStats{};
    if (state->per_event.size() < num_events) {
      state->per_event.resize(num_events);
    }
    for (size_t i = 0; i < num_events; ++i) state->per_event[i].clear();
  }

  // Matches `cluster` against every event of the batch in `mode`, using
  // ts's scratch and appending matches to ts.per_event.
  auto eval_cluster = [&](const CompressedCluster& cluster, EvalMode mode,
                          ThreadState& ts) {
    ts.cache_valid = false;
    const uint64_t words = cluster.words();
    uint64_t* result = ts.result.data();
    for (size_t ei = 0; ei < num_events; ++ei) {
      const Event& event = events[ei];
      bool alive = false;
      if (mode == EvalMode::kCompressed) {
        if (share) {
          if (ts.cache_valid && signatures[ei] == ts.cached_signature) {
            if (!ts.cached_alive) continue;  // phase 1 killed everyone
            std::copy_n(ts.absence.data(), words, result);
            ts.stats.bitmap_words += words;
          } else {
            ts.cached_alive =
                cluster.ComputeAbsence(event, ts.absence.data(), &ts.stats);
            ts.cached_signature = signatures[ei];
            ts.cache_valid = true;
            if (!ts.cached_alive) continue;
            std::copy_n(ts.absence.data(), words, result);
            ts.stats.bitmap_words += words;
          }
          alive = cluster.MatchPresent(event, result, &ts.stats);
        } else {
          alive = cluster.MatchCompressed(event, result, &ts.stats);
        }
      } else {
        alive = cluster.MatchLazy(event, result, &ts.stats);
      }
      if (alive) {
        cluster.CollectMatches(result, &ts.per_event[ei]);
      }
    }
  };

  auto choose_mode = [&](size_t c, Rng& rng) {
    EvalMode mode = EvalMode::kCompressed;
    switch (options_.mode) {
      case PcmMode::kCompressed:
        break;
      case PcmMode::kLazy:
        mode = EvalMode::kLazy;
        break;
      case PcmMode::kAdaptive:
        mode = adaptive_[c].Choose(rng);
        break;
    }
    return mode;
  };

  // Cluster-parallel with *strided* assignment: thread t owns clusters
  // {t, t+T, t+2T, ...}. Pivot sorting makes heavy clusters (popular
  // pivots, rarely pruned) adjacent; contiguous ranges would hand one
  // thread most of the work, striding spreads it. Each stripe is one
  // ParallelFor item so every cluster keeps exactly one owner per batch
  // (the adaptive Record below relies on that).
  const auto num_stripes = static_cast<uint64_t>(options_.num_threads);
  // Hot-spot profiler: 1 in hotspot_every batches also attributes wall
  // time and work counters to each cluster's profile. Off the sampled
  // batches the only cost is this one bool.
  const bool profile_batch =
      profiles_ != nullptr && num_profiles_ == clusters_.size() &&
      batch_counter_ % options_.hotspot_every == 0;
  pool_->ParallelFor(
      num_stripes, [&](uint64_t stripe_begin, uint64_t stripe_end,
                       int thread) {
        ThreadState& ts = *thread_states_[static_cast<size_t>(thread)];
        Rng rng(options_.seed ^ (batch_counter_ * 0x9E3779B97F4A7C15ULL) ^
                static_cast<uint64_t>(thread));
        for (uint64_t stripe = stripe_begin; stripe < stripe_end; ++stripe) {
          for (uint64_t c = stripe; c < clusters_.size(); c += num_stripes) {
            const EvalMode mode = choose_mode(c, rng);
            if (mode == EvalMode::kCompressed) {
              ++ts.counters.compressed_batches;
            } else {
              ++ts.counters.lazy_batches;
            }
            const uint64_t evals_before = ts.stats.predicate_evals;
            const uint64_t cands_before = ts.stats.candidates_checked;
            // The adaptive controller learns from measured wall time —
            // the only cost signal that captures every real effect (cache
            // misses, branch behavior) for both modes. Timer overhead is
            // two clock reads per (cluster, batch), noise vs. the loop.
            WallTimer cluster_timer;
            eval_cluster(clusters_[c], mode, ts);
            const int64_t elapsed_ns = cluster_timer.ElapsedNanos();
            if (options_.mode == PcmMode::kAdaptive) {
              // Safe without synchronization: each cluster belongs to
              // exactly one stripe of this ParallelFor.
              adaptive_[c].Record(mode,
                                  static_cast<double>(elapsed_ns) /
                                      static_cast<double>(num_events));
            }
            if (profile_batch) {
              // Relaxed is enough: the cluster's single owner this batch
              // is the only writer; readers want counts, not ordering.
              ClusterProfile& p = profiles_[c];
              p.batches.fetch_add(1, std::memory_order_relaxed);
              p.ns.fetch_add(static_cast<uint64_t>(elapsed_ns),
                             std::memory_order_relaxed);
              p.predicate_evals.fetch_add(
                  ts.stats.predicate_evals - evals_before,
                  std::memory_order_relaxed);
              p.candidates_checked.fetch_add(
                  ts.stats.candidates_checked - cands_before,
                  std::memory_order_relaxed);
            }
          }
        }
      });

  // Incremental state is small; the caller thread handles it directly,
  // appending into worker 0's per-event lists.
  if (!delta_clusters_.empty() || !delta_pending_.empty()) {
    ThreadState& ts = *thread_states_[0];
    uint64_t* result = ts.result.data();
    for (const CompressedCluster& cluster : delta_clusters_) {
      for (size_t ei = 0; ei < num_events; ++ei) {
        if (cluster.MatchCompressed(events[ei], result, &ts.stats)) {
          cluster.CollectMatches(result, &ts.per_event[ei]);
        }
      }
    }
    uint64_t evals = 0;
    for (const BooleanExpression* sub : delta_pending_) {
      for (size_t ei = 0; ei < num_events; ++ei) {
        ++ts.stats.candidates_checked;
        if (sub->MatchesCounting(events[ei], &evals)) {
          ts.per_event[ei].push_back(sub->id());
        }
      }
    }
    ts.stats.predicate_evals += evals;
  }

  // Merge per-thread match lists, drop tombstoned ids, aggregate stats.
  for (auto& state : thread_states_) {
    stats_ += state->stats;
  }
  for (size_t ei = 0; ei < num_events; ++ei) {
    auto& out = (*results)[ei];
    for (auto& state : thread_states_) {
      if (ei < state->per_event.size()) {
        out.insert(out.end(), state->per_event[ei].begin(),
                   state->per_event[ei].end());
      }
    }
    if (!tombstones_.empty()) {
      std::erase_if(out, [this](SubscriptionId id) {
        return tombstones_.contains(id);
      });
    }
    std::sort(out.begin(), out.end());
    stats_.matches_emitted += out.size();
  }
}

void PcmMatcher::CollectHotspots(std::vector<HotspotEntry>* out) const {
  if (profiles_ == nullptr) return;
  const size_t n = std::min(num_profiles_, clusters_.size());
  for (size_t c = 0; c < n; ++c) {
    const ClusterProfile& p = profiles_[c];
    const uint64_t batches = p.batches.load(std::memory_order_relaxed);
    if (batches == 0) continue;  // never profiled; nothing to rank
    HotspotEntry entry;
    entry.cluster = static_cast<uint32_t>(c);
    entry.subscriptions = clusters_[c].size();
    entry.example_sub =
        clusters_[c].size() > 0 ? clusters_[c].SubIdAt(0) : 0;
    entry.batches = batches;
    entry.ns = p.ns.load(std::memory_order_relaxed);
    entry.predicate_evals =
        p.predicate_evals.load(std::memory_order_relaxed);
    entry.candidates_checked =
        p.candidates_checked.load(std::memory_order_relaxed);
    out->push_back(entry);
  }
}

uint64_t PcmMatcher::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const CompressedCluster& cluster : clusters_) {
    bytes += cluster.MemoryBytes();
  }
  for (const CompressedCluster& cluster : delta_clusters_) {
    bytes += cluster.MemoryBytes();
  }
  bytes += delta_subs_.size() * sizeof(BooleanExpression) +
           (tombstones_.size() + known_ids_.size()) *
               (sizeof(SubscriptionId) + 8);
  for (const auto& state : thread_states_) {
    bytes += (state->result.capacity() + state->absence.capacity()) *
             sizeof(uint64_t);
  }
  return bytes;
}

double PcmMatcher::CompressionRatio() const {
  uint64_t total = 0;
  uint64_t distinct = 0;
  for (const CompressedCluster& cluster : clusters_) {
    total += cluster.total_predicates();
    distinct += cluster.distinct_predicates();
  }
  return distinct == 0 ? 1.0
                       : static_cast<double>(total) /
                             static_cast<double>(distinct);
}

PcmMatcher::AdaptiveCounters PcmMatcher::adaptive_counters() const {
  AdaptiveCounters counters;
  for (const auto& state : thread_states_) {
    counters.compressed_batches += state->counters.compressed_batches;
    counters.lazy_batches += state->counters.lazy_batches;
  }
  return counters;
}

}  // namespace apcm::core
