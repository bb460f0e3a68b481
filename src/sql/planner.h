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
/// self-join (Q8) run in roughly linear time. There are no statistics and
/// no cost model: the translator's fixed-shape Q-program already names its
/// tables in a good join order (DESIGN.md §14).
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

  Catalog* catalog_;
  ExecContext* ctx_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_PLANNER_H_
