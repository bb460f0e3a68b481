#ifndef MINERULE_SQL_AGGREGATES_H_
#define MINERULE_SQL_AGGREGATES_H_

#include "common/result.h"
#include "relational/value.h"
#include "sql/ast.h"
#include "sql/key_table.h"

namespace minerule::sql {

/// Incremental state for one aggregate function over one group.
/// SQL semantics: non-star aggregates ignore NULL inputs; empty input yields
/// 0 for COUNT and NULL for SUM/AVG/MIN/MAX.
class AggAccumulator {
 public:
  AggAccumulator(AggFunc func, bool distinct);

  /// Feeds one input value (ignored payload for COUNT(*)).
  Status Add(const Value& value);

  /// Produces the aggregate result for the rows fed so far.
  Result<Value> Finish() const;

  /// True when splitting the input into contiguous ranges, accumulating
  /// each range separately and folding the partials together in range order
  /// yields bit-identical results to one serial accumulation. Holds for
  /// COUNT/MIN/MAX (plain and DISTINCT); not for SUM/AVG, whose double
  /// accumulator (and overflow fallback) is order-sensitive — those keep
  /// the serial aggregation path (DESIGN.md §9).
  static bool MergeIsExact(AggFunc func);

  /// Folds `other` — a partial over an input range *after* this one's —
  /// into this accumulator. Only valid when MergeIsExact(func).
  Status Merge(const AggAccumulator& other);

 private:
  AggFunc func_;
  bool distinct_;
  int64_t count_ = 0;        // non-null rows seen (after DISTINCT filter)
  int64_t int_sum_ = 0;
  double double_sum_ = 0.0;
  bool all_integers_ = true;
  Value min_;
  Value max_;
  KeyTable seen_;  // DISTINCT: encodings of the values counted so far
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_AGGREGATES_H_
