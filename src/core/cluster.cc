#include "src/core/cluster.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "src/base/macros.h"
#include "src/bitmap/bitmap.h"
#include "src/be/predicate.h"

namespace apcm::core {
namespace {

/// How many bitmap operations between early-exit zero checks. Checking costs
/// a scan of the result words, so it is amortized over several and-nots.
constexpr uint32_t kZeroCheckInterval = 8;

/// At or below this many phase-1 survivors, MatchPresent short-circuits the
/// surviving subscriptions individually instead of streaming the cluster's
/// distinct predicates. A cluster this small skips phase 1's counting.
constexpr uint64_t kLazySurvivorThreshold = 16;
static_assert(kLazySurvivorThreshold < 64, "tiny clusters fit in one word");

/// Per-thread counter scratch for the counting-based absence phase. Sized to
/// the largest cluster seen by this thread. Each entry packs
/// (epoch << 32) | count so one load/store per increment suffices; epoch
/// stamping avoids clearing between events.
struct AbsenceScratch {
  std::vector<uint64_t> stamped_counters;
  uint32_t epoch = 0;

  void Prepare(uint32_t slots) {
    if (stamped_counters.size() < slots) {
      stamped_counters.resize(slots, 0);
    }
    if (++epoch == 0) {  // wrapped: stamp space is stale, reset it
      std::fill(stamped_counters.begin(), stamped_counters.end(), 0);
      epoch = 1;
    }
  }
};

AbsenceScratch& TlsAbsenceScratch() {
  thread_local AbsenceScratch scratch;
  return scratch;
}

}  // namespace

CompressedCluster CompressedCluster::Build(
    const std::vector<const BooleanExpression*>& exprs,
    const Options& options) {
  CompressedCluster cluster;
  cluster.num_subs_ = static_cast<uint32_t>(exprs.size());
  // Pad the bitmap width to the kernel block so every span op streams whole
  // 512-bit blocks; tail bits stay zero by construction.
  cluster.words_ = PaddedWords(cluster.num_subs_);
  cluster.subs_ = exprs;
  cluster.sub_ids_.reserve(exprs.size());
  for (const BooleanExpression* expr : exprs) {
    cluster.sub_ids_.push_back(expr->id());
  }

  // Dedup predicates per attribute and record which slots contain each.
  // std::map keeps attributes sorted, which the merge-join in matching needs.
  struct DistinctPred {
    std::vector<uint32_t> slots;
  };
  std::map<AttributeId,
           std::unordered_map<Predicate, DistinctPred, PredicateHash>>
      by_attr;
  std::map<AttributeId, std::vector<uint32_t>> attr_slots;
  for (uint32_t slot = 0; slot < exprs.size(); ++slot) {
    for (const Predicate& pred : exprs[slot]->predicates()) {
      ++cluster.total_predicates_;
      by_attr[pred.attribute()][pred].slots.push_back(slot);
      attr_slots[pred.attribute()].push_back(slot);
    }
  }

  // Lay out groups, distinct predicates, and masks.
  auto append_dense_mask = [&cluster](const std::vector<uint32_t>& slots) {
    const auto offset = static_cast<uint32_t>(cluster.mask_words_.size());
    cluster.mask_words_.resize(cluster.mask_words_.size() + cluster.words_, 0);
    uint64_t* words = cluster.mask_words_.data() + offset;
    for (uint32_t slot : slots) words[slot / 64] |= 1ULL << (slot % 64);
    return offset;
  };

  for (uint32_t slot = 0; slot < exprs.size(); ++slot) {
    cluster.attr_counts_.push_back(
        static_cast<uint16_t>(exprs[slot]->size()));
    if (exprs[slot]->size() == 0) cluster.always_alive_.push_back(slot);
  }

  for (auto& [attr, distinct] : by_attr) {
    Group group;
    group.attr = attr;
    group.pred_begin = static_cast<uint32_t>(cluster.preds_.size());
    // Deterministic order within a group: sort distinct predicates by their
    // textual identity via hash+operands (map iteration of unordered_map is
    // nondeterministic across libstdc++ versions; sort by content instead).
    std::vector<const Predicate*> ordered;
    ordered.reserve(distinct.size());
    for (const auto& [pred, info] : distinct) ordered.push_back(&pred);
    std::sort(ordered.begin(), ordered.end(),
              [](const Predicate* a, const Predicate* b) {
                if (a->op() != b->op()) return a->op() < b->op();
                if (a->v1() != b->v1()) return a->v1() < b->v1();
                if (a->v2() != b->v2()) return a->v2() < b->v2();
                return a->values() < b->values();
              });
    for (const Predicate* pred : ordered) {
      auto& info = distinct.at(*pred);
      std::sort(info.slots.begin(), info.slots.end());
      cluster.preds_.push_back(*pred);
      // Hybrid representation choice: explicit list while tiny, then runs
      // when the slots form few contiguous ranges (8 bytes per run vs
      // 8 bytes per word dense), else the dense mask.
      uint32_t runs = 0;
      for (size_t i = 0; i < info.slots.size(); ++i) {
        if (i == 0 || info.slots[i] != info.slots[i - 1] + 1) ++runs;
      }
      SlotSet set;
      if (info.slots.size() <= options.sparse_threshold) {
        set.offset = static_cast<uint32_t>(cluster.sparse_slots_.size());
        set.count = static_cast<uint32_t>(info.slots.size());
        set.kind = SlotSet::Kind::kSparse;
        cluster.sparse_slots_.insert(cluster.sparse_slots_.end(),
                                     info.slots.begin(), info.slots.end());
      } else if (2ULL * runs <= cluster.words_) {
        set.offset = static_cast<uint32_t>(cluster.run_arena_.size());
        set.count = runs;
        set.kind = SlotSet::Kind::kRun;
        for (size_t i = 0; i < info.slots.size(); ++i) {
          if (i == 0 || info.slots[i] != info.slots[i - 1] + 1) {
            cluster.run_arena_.push_back(info.slots[i]);
            cluster.run_arena_.push_back(1);
          } else {
            ++cluster.run_arena_.back();
          }
        }
      } else {
        set.offset = append_dense_mask(info.slots);
        set.kind = SlotSet::Kind::kDense;
      }
      cluster.pred_slots_.push_back(set);
    }
    group.pred_end = static_cast<uint32_t>(cluster.preds_.size());
    std::vector<uint32_t>& slots = attr_slots.at(attr);
    std::sort(slots.begin(), slots.end());
    group.attr_slots_begin = static_cast<uint32_t>(
        cluster.attr_slot_arena_.size());
    cluster.attr_slot_arena_.insert(cluster.attr_slot_arena_.end(),
                                    slots.begin(), slots.end());
    group.attr_slots_end = static_cast<uint32_t>(
        cluster.attr_slot_arena_.size());
    cluster.groups_.push_back(group);
    // An attribute constrained by every subscription (expressions carry at
    // most one predicate per attribute, so slot count == subscriber count)
    // is required: its absence rejects the whole cluster.
    if (slots.size() == cluster.num_subs_) {
      cluster.required_attrs_.push_back(attr);
    }
  }
  cluster.mask_words_.shrink_to_fit();
  cluster.sparse_slots_.shrink_to_fit();
  cluster.run_arena_.shrink_to_fit();
  return cluster;
}

void CompressedCluster::ClearSlots(const SlotSet& set, uint64_t* result,
                                   MatcherStats* stats) const {
  switch (set.kind) {
    case SlotSet::Kind::kSparse: {
      const uint32_t* slots = sparse_slots_.data() + set.offset;
      for (uint32_t i = 0; i < set.count; ++i) {
        result[slots[i] / 64] &= ~(1ULL << (slots[i] % 64));
      }
      stats->bitmap_words += set.count;
      return;
    }
    case SlotSet::Kind::kDense:
      AndNotWords(result, mask_words_.data() + set.offset, words_);
      stats->bitmap_words += words_;
      return;
    case SlotSet::Kind::kRun: {
      const uint32_t* runs = run_arena_.data() + set.offset;
      for (uint32_t i = 0; i < set.count; ++i) {
        ClearBitRange(result, runs[2 * i], runs[2 * i + 1]);
      }
      stats->bitmap_words += 2ULL * set.count;
      return;
    }
  }
}

CompressedCluster::SlotSetStats CompressedCluster::slot_set_stats() const {
  SlotSetStats stats;
  for (const SlotSet& set : pred_slots_) {
    switch (set.kind) {
      case SlotSet::Kind::kSparse:
        ++stats.sparse;
        break;
      case SlotSet::Kind::kDense:
        ++stats.dense;
        break;
      case SlotSet::Kind::kRun:
        ++stats.run;
        break;
    }
  }
  return stats;
}

bool CompressedCluster::HasRequiredAttributes(const Event& event) const {
  // Binary-search each (sorted) required attribute in the rest of the
  // sorted entries: required lists are short and often hold rare attributes
  // near the end of the event, where a linear merge would walk every entry.
  const auto& entries = event.entries();
  auto it = entries.begin();
  for (const AttributeId attr : required_attrs_) {
    it = std::lower_bound(it, entries.end(), attr,
                          [](const Event::Entry& entry, AttributeId a) {
                            return entry.attr < a;
                          });
    if (it == entries.end() || it->attr != attr) return false;
  }
  return true;
}

bool CompressedCluster::ComputeAbsence(const Event& event, uint64_t* result,
                                       MatcherStats* stats) const {
  if (!HasRequiredAttributes(event)) return false;
  std::fill(result, result + words_, 0);
  if (num_subs_ <= kLazySurvivorThreshold) {
    // MatchPresent short-circuits this few survivors one by one, and that
    // evaluation checks each subscription's attributes itself: counting
    // coverage first would only repeat the work, so every slot survives.
    result[0] = (1ULL << num_subs_) - 1;
    return num_subs_ != 0;
  }
  bool any = false;
  for (const uint32_t slot : always_alive_) {
    result[slot / 64] |= 1ULL << (slot % 64);
    any = true;
  }
  // Counting formulation: a subscription survives iff the event covers all
  // of its attributes. Tally coverage per slot over the event's *present*
  // attributes only.
  AbsenceScratch& scratch = TlsAbsenceScratch();
  scratch.Prepare(num_subs_);
  const uint64_t epoch_tag = static_cast<uint64_t>(scratch.epoch) << 32;
  uint64_t* counters = scratch.stamped_counters.data();
  const auto& entries = event.entries();
  size_t e = 0;
  uint64_t increments = 0;
  for (const Group& group : groups_) {
    while (e < entries.size() && entries[e].attr < group.attr) ++e;
    if (e == entries.size()) break;
    if (entries[e].attr != group.attr) continue;
    for (uint32_t i = group.attr_slots_begin; i < group.attr_slots_end; ++i) {
      const uint32_t slot = attr_slot_arena_[i];
      const uint64_t stamped = counters[slot];
      const uint64_t count =
          ((stamped & ~0xFFFFFFFFULL) == epoch_tag ? (stamped & 0xFFFFFFFF)
                                                   : 0) +
          1;
      counters[slot] = epoch_tag | count;
      ++increments;
      if (count == attr_counts_[slot]) {
        result[slot / 64] |= 1ULL << (slot % 64);
        any = true;
      }
    }
  }
  stats->bitmap_words += increments;  // one counter bump ~ one word op
  return any;
}

bool CompressedCluster::MatchPresent(const Event& event, uint64_t* result,
                                     MatcherStats* stats) const {
  // Hybrid fast path: when phase 1 leaves only a handful of survivors, it is
  // cheaper to short-circuit-evaluate those few subscriptions directly than
  // to stream every distinct predicate of the cluster.
  const uint64_t survivors = PopCountWords(result, words_);
  stats->bitmap_words += words_;
  if (survivors == 0) return false;
  if (survivors <= kLazySurvivorThreshold) {
    bool any = false;
    uint64_t evals = 0;
    ForEachSetBit(result, words_, [&](uint64_t slot) {
      ++stats->candidates_checked;
      if (subs_[slot]->MatchesCounting(event, &evals)) {
        any = true;
      } else {
        result[slot / 64] &= ~(1ULL << (slot % 64));
      }
    });
    stats->predicate_evals += evals;
    return any;
  }
  const auto& entries = event.entries();
  size_t e = 0;
  uint32_t ops_since_check = 0;
  for (const Group& group : groups_) {
    while (e < entries.size() && entries[e].attr < group.attr) ++e;
    if (e == entries.size() || entries[e].attr != group.attr) continue;
    const Value value = entries[e].value;
    // Each *distinct* predicate on this attribute is evaluated exactly once;
    // a failing predicate knocks out every subscription sharing it.
    for (uint32_t p = group.pred_begin; p < group.pred_end; ++p) {
      ++stats->predicate_evals;
      if (preds_[p].Eval(value)) continue;
      ClearSlots(pred_slots_[p], result, stats);
      if (++ops_since_check >= kZeroCheckInterval) {
        ops_since_check = 0;
        if (IsZeroWords(result, words_)) return false;
      }
    }
  }
  return !IsZeroWords(result, words_);
}

bool CompressedCluster::MatchLazy(const Event& event, uint64_t* result,
                                  MatcherStats* stats) const {
  if (!HasRequiredAttributes(event)) return false;
  std::fill(result, result + words_, 0);
  stats->bitmap_words += words_;
  uint64_t evals = 0;
  bool any = false;
  for (uint32_t slot = 0; slot < num_subs_; ++slot) {
    ++stats->candidates_checked;
    if (subs_[slot]->MatchesCounting(event, &evals)) {
      result[slot / 64] |= 1ULL << (slot % 64);
      any = true;
    }
  }
  stats->predicate_evals += evals;
  return any;
}

void CompressedCluster::CollectMatches(
    const uint64_t* result, std::vector<SubscriptionId>* matches) const {
  ForEachSetBit(result, words_, [&](uint64_t slot) {
    matches->push_back(sub_ids_[slot]);
  });
}

std::vector<AttributeId> CompressedCluster::Attributes() const {
  std::vector<AttributeId> attrs;
  attrs.reserve(groups_.size());
  for (const Group& group : groups_) attrs.push_back(group.attr);
  return attrs;
}

std::vector<uint32_t> CompressedCluster::AttributeSubscribers() const {
  std::vector<uint32_t> counts;
  counts.reserve(groups_.size());
  for (const Group& group : groups_) {
    counts.push_back(group.attr_slots_end - group.attr_slots_begin);
  }
  return counts;
}

uint64_t CompressedCluster::MemoryBytes() const {
  uint64_t bytes = sub_ids_.capacity() * sizeof(SubscriptionId) +
                   subs_.capacity() * sizeof(const BooleanExpression*) +
                   groups_.capacity() * sizeof(Group) +
                   preds_.capacity() * sizeof(Predicate) +
                   pred_slots_.capacity() * sizeof(SlotSet) +
                   mask_words_.capacity() * sizeof(uint64_t) +
                   sparse_slots_.capacity() * sizeof(uint32_t) +
                   run_arena_.capacity() * sizeof(uint32_t) +
                   attr_slot_arena_.capacity() * sizeof(uint32_t) +
                   attr_counts_.capacity() * sizeof(uint16_t) +
                   always_alive_.capacity() * sizeof(uint32_t);
  for (const Predicate& pred : preds_) {
    bytes += pred.values().capacity() * sizeof(Value);
  }
  return bytes;
}

}  // namespace apcm::core
