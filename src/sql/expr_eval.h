#ifndef MINERULE_SQL_EXPR_EVAL_H_
#define MINERULE_SQL_EXPR_EVAL_H_

#include <map>
#include <string>

#include "common/result.h"
#include "relational/catalog.h"
#include "relational/schema.h"
#include "sql/ast.h"

namespace minerule::sql {

/// Host variables (":totg"-style) live for the duration of an engine
/// session; keys are stored lower-case.
using HostVarMap = std::map<std::string, Value>;

/// Per-query evaluation context shared by all operators in a plan.
struct ExecContext {
  Catalog* catalog = nullptr;     // for <seq>.NEXTVAL
  HostVarMap* host_vars = nullptr;

  /// Worker threads for morsel-driven execution (DESIGN.md §9): <= 0 means
  /// hardware concurrency, 1 is the exact serial path. Operators read this
  /// at Open(); the plan shape never depends on it.
  int num_threads = 1;

  /// Memory budget in bytes for operator working sets (DESIGN.md §13).
  /// < 0 (the default) disables the budget entirely. >= 0 makes the
  /// buffering operators — hash-join build, aggregation, sort — run their
  /// budgeted serial paths and spill to disk once their accounted working
  /// set exceeds the budget (0 therefore spills everything). Results are
  /// bit-identical to unbudgeted execution at every thread count; the
  /// budget governs working sets, not the delivered result set.
  int64_t memory_limit = -1;

  /// Directory for spill files; empty means $TMPDIR (or /tmp). Spill files
  /// are created with mkstemp and unlinked immediately, so they never
  /// outlive the process even on a crash.
  std::string spill_dir;

  /// Cost-based planning (DESIGN.md §14). When true the planner consults
  /// `stats` and `feedback` to choose join order, hash-join build side and
  /// the spill fan-out, and annotates EXPLAIN with estimates. Off (the
  /// default), planning is purely syntactic — plan shapes and EXPLAIN output
  /// are unchanged. Either way the delivered results are bit-identical (the
  /// fuzz oracle pins this).
  bool cost_based = false;

  /// Catalog statistics and observed-cardinality feedback, owned by the
  /// engine; may be null (planner falls back to syntactic planning).
  class StatisticsCatalog* stats = nullptr;
  class PlanFeedback* feedback = nullptr;

  /// Spill partition fan-out for the budgeted operators. The default is the
  /// historical kSpillPartitions; under cost-based planning the planner
  /// sizes it from estimated input bytes vs the budget. Any value yields
  /// bit-identical results — every spill path restores output order from
  /// recorded input indexes, independent of partitioning (DESIGN.md §13).
  size_t spill_partitions = 16;
};

/// Evaluates a *bound* expression against `row`. SQL three-valued logic:
/// comparisons and arithmetic over NULL yield NULL; AND/OR follow Kleene
/// semantics. Aggregate nodes are a hard error here — the planner rewrites
/// them to slot references before evaluation.
Result<Value> EvalExpr(const Expr& expr, const Row& row, ExecContext* ctx);

/// Evaluates a predicate: NULL and FALSE both reject the row (SQL WHERE
/// semantics). Non-boolean results are a type error.
Result<bool> EvalPredicate(const Expr& expr, const Row& row, ExecContext* ctx);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_EXPR_EVAL_H_
