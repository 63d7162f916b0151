#ifndef APCM_BE_EXPRESSION_H_
#define APCM_BE_EXPRESSION_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/be/event.h"
#include "src/be/predicate.h"
#include "src/be/value.h"

namespace apcm {

/// A subscription: a conjunction of predicates over distinct attributes,
/// stored sorted by attribute id. Semantics follow content-based pub/sub
/// (and BE-Tree): the expression matches an event iff every predicate's
/// attribute is present in the event AND the carried value satisfies the
/// predicate. An expression with zero predicates matches every event.
class BooleanExpression {
 public:
  BooleanExpression() = default;

  /// Builds an expression; predicates are sorted by attribute. Fails with
  /// InvalidArgument if two predicates constrain the same attribute (the
  /// conjunction would either be redundant or contradictory; BE-Tree's model
  /// — and our compressed masks — assume one predicate per attribute).
  static StatusOr<BooleanExpression> Create(SubscriptionId id,
                                            std::vector<Predicate> predicates);

  /// Unchecked fast path for the generator: predicates must already be
  /// sorted by attribute and attribute-distinct (checked in debug builds).
  static BooleanExpression FromSorted(SubscriptionId id,
                                      std::vector<Predicate> predicates);

  SubscriptionId id() const { return id_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  size_t size() const { return predicates_.size(); }

  /// Full evaluation with short-circuit: merge-joins the attribute-sorted
  /// predicate list against the attribute-sorted event entries.
  bool Matches(const Event& event) const;

  /// Like Matches but also counts evaluated predicates into `*evals`
  /// (instrumentation for the hot-spot profiler and the benchmarks).
  bool MatchesCounting(const Event& event, uint64_t* evals) const;

  /// "id=7: a3 <= 42 and a9 between [1, 5]".
  std::string ToString(const Catalog* catalog = nullptr) const;

 private:
  SubscriptionId id_ = kInvalidSubscriptionId;
  std::vector<Predicate> predicates_;  // sorted by attribute, distinct attrs
};

}  // namespace apcm

#endif  // APCM_BE_EXPRESSION_H_
