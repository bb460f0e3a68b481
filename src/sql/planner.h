#ifndef MINERULE_SQL_PLANNER_H_
#define MINERULE_SQL_PLANNER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"
#include "sql/operators.h"

namespace minerule::sql {

/// A planned SELECT: an executable node tree plus its output schema.
struct PlannedSelect {
  ExecNodePtr node;
  Schema out_schema;

  /// Cost-based mode only: (fingerprint, node) pairs whose observed row
  /// counts the engine records into PlanFeedback after the plan ran to
  /// completion. Empty when the statement carries a LIMIT anywhere (early
  /// termination would record undercounts) or cost-based planning is off.
  std::vector<std::pair<std::string, const ExecNode*>> feedback;
};

/// Translates SELECT ASTs into executor trees.
///
/// Join planning is left-deep in FROM order: for each table joined in, the
/// planner harvests equality conjuncts from WHERE whose two sides bind
/// against the accumulated left side and the incoming table respectively and
/// uses them as hash-join keys; tables without usable keys fall back to a
/// nested-loop (cross) join. Every conjunct is applied as a filter at the
/// lowest level where all its columns are visible. This is what makes the
/// preprocessor's multi-way encoding joins (Q4) and the elementary-rule
/// self-join (Q8) run in roughly linear time.
///
/// Under ExecContext::cost_based (DESIGN.md §14) the planner additionally
/// estimates cardinalities from catalog statistics and plan feedback and
/// uses them to (a) push pure single-table conjuncts onto their scans,
/// (b) reorder joins when a cheaper left-deep order exists — restoring the
/// canonical output order afterwards through hidden per-table row numbers
/// and a final sort, (c) build each hash join over its smaller input, and
/// (d) fall back to row-at-a-time execution on tiny inputs and size the
/// spill fan-out. Every one of these choices is result-transparent: the
/// fuzz oracle byte-compares cost-based runs against the syntactic plan.
class Planner {
 public:
  Planner(Catalog* catalog, ExecContext* ctx)
      : catalog_(catalog), ctx_(ctx) {}

  /// Plans a select statement. The statement's expressions are bound in
  /// place, so a SelectStmt must be planned at most once.
  Result<PlannedSelect> Plan(SelectStmt* stmt);

 private:
  static constexpr int kMaxViewDepth = 16;

  Result<PlannedSelect> PlanImpl(SelectStmt* stmt, int depth);
  Result<std::pair<ExecNodePtr, BindScope>> PlanTableRef(TableRef* ref,
                                                         int depth);
  Result<std::pair<ExecNodePtr, BindScope>> PlanFromWhere(SelectStmt* stmt,
                                                          int depth);

  /// Cost-based FROM/WHERE planning; preconditions checked by the caller
  /// (every FROM entry is a base table, no conjunct contains NEXTVAL).
  Result<std::pair<ExecNodePtr, BindScope>> PlanFromWhereCostBased(
      SelectStmt* stmt, std::vector<ExecNodePtr> nodes,
      std::vector<BindScope> scopes, std::vector<ExprPtr> conjuncts);

  /// Cost-mode execution tuning decided once per top-level statement: spill
  /// fan-out sizing under a memory budget.
  void TuneExecution(SelectStmt* stmt);

  Catalog* catalog_;
  ExecContext* ctx_;
  std::vector<std::pair<std::string, const ExecNode*>> feedback_points_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_PLANNER_H_
