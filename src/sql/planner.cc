#include "sql/planner.h"

#include <cstdint>

#include "common/string_util.h"
#include "sql/parser.h"
#include "sql/system_tables.h"

namespace minerule::sql {

namespace {

/// Combines conjuncts back into one AND tree; null if empty.
ExprPtr AndTogether(std::vector<ExprPtr> conjuncts) {
  ExprPtr result;
  for (ExprPtr& c : conjuncts) {
    if (result == nullptr) {
      result = std::move(c);
    } else {
      result = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(result),
                                            std::move(c));
    }
  }
  return result;
}

/// True if the tree still contains an (unrewritten) column reference;
/// used to detect non-grouped columns after aggregate rewriting.
bool ContainsColumnRef(const Expr& expr, std::string* example) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      *example = expr.ToSql();
      return true;
    case ExprKind::kUnary:
      return ContainsColumnRef(*static_cast<const UnaryExpr&>(expr).operand,
                               example);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ContainsColumnRef(*b.lhs, example) ||
             ContainsColumnRef(*b.rhs, example);
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return ContainsColumnRef(*b.operand, example) ||
             ContainsColumnRef(*b.low, example) ||
             ContainsColumnRef(*b.high, example);
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      if (ContainsColumnRef(*in.operand, example)) return true;
      for (const ExprPtr& e : in.list) {
        if (ContainsColumnRef(*e, example)) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return ContainsColumnRef(*static_cast<const IsNullExpr&>(expr).operand,
                               example);
    case ExprKind::kFunction: {
      const auto& f = static_cast<const FunctionExpr&>(expr);
      for (const ExprPtr& e : f.args) {
        if (ContainsColumnRef(*e, example)) return true;
      }
      return false;
    }
    default:
      return false;
  }
}

/// Replaces every subtree equal to one of `targets` with a slot reference
/// into the aggregate output row. `slot_of(i)` gives the slot for target i.
void RewriteMatches(ExprPtr* expr, const std::vector<const Expr*>& targets,
                    const std::vector<int>& slots,
                    const std::vector<DataType>& types) {
  for (size_t i = 0; i < targets.size(); ++i) {
    if (ExprEquals(**expr, *targets[i])) {
      *expr = std::make_unique<SlotRefExpr>(slots[i], types[i],
                                            (*expr)->ToSql());
      return;
    }
  }
  Expr* node = expr->get();
  switch (node->kind) {
    case ExprKind::kUnary:
      RewriteMatches(&static_cast<UnaryExpr*>(node)->operand, targets, slots,
                     types);
      return;
    case ExprKind::kBinary: {
      auto* b = static_cast<BinaryExpr*>(node);
      RewriteMatches(&b->lhs, targets, slots, types);
      RewriteMatches(&b->rhs, targets, slots, types);
      return;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(node);
      RewriteMatches(&b->operand, targets, slots, types);
      RewriteMatches(&b->low, targets, slots, types);
      RewriteMatches(&b->high, targets, slots, types);
      return;
    }
    case ExprKind::kInList: {
      auto* in = static_cast<InListExpr*>(node);
      RewriteMatches(&in->operand, targets, slots, types);
      for (ExprPtr& e : in->list) RewriteMatches(&e, targets, slots, types);
      return;
    }
    case ExprKind::kIsNull:
      RewriteMatches(&static_cast<IsNullExpr*>(node)->operand, targets, slots,
                     types);
      return;
    case ExprKind::kFunction: {
      auto* f = static_cast<FunctionExpr*>(node);
      for (ExprPtr& e : f->args) RewriteMatches(&e, targets, slots, types);
      return;
    }
    default:
      return;
  }
}

/// Collects the column references of a conjunct, for the ambiguity check.
void CollectColumnRefs(const Expr& expr,
                       std::vector<const ColumnRefExpr*>* out) {
  switch (expr.kind) {
    case ExprKind::kColumnRef:
      out->push_back(static_cast<const ColumnRefExpr*>(&expr));
      return;
    case ExprKind::kUnary:
      CollectColumnRefs(*static_cast<const UnaryExpr&>(expr).operand, out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectColumnRefs(*b.lhs, out);
      CollectColumnRefs(*b.rhs, out);
      return;
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      CollectColumnRefs(*b.operand, out);
      CollectColumnRefs(*b.low, out);
      CollectColumnRefs(*b.high, out);
      return;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(expr);
      CollectColumnRefs(*in.operand, out);
      for (const ExprPtr& e : in.list) CollectColumnRefs(*e, out);
      return;
    }
    case ExprKind::kIsNull:
      CollectColumnRefs(*static_cast<const IsNullExpr&>(expr).operand, out);
      return;
    case ExprKind::kFunction: {
      const auto& f = static_cast<const FunctionExpr&>(expr);
      for (const ExprPtr& e : f.args) CollectColumnRefs(*e, out);
      return;
    }
    default:
      return;
  }
}

/// A WHERE column that several FROM tables carry is ambiguous, as it is in
/// the select list, even where one table alone could bind it early.
Status CheckUnambiguous(const std::vector<ExprPtr>& conjuncts,
                        const std::vector<BindScope>& scopes) {
  std::vector<const ColumnRefExpr*> refs;
  for (const ExprPtr& c : conjuncts) CollectColumnRefs(*c, &refs);
  for (const ColumnRefExpr* ref : refs) {
    int tables = 0;
    for (const BindScope& scope : scopes) {
      tables += scope.CanResolve(ref->qualifier, ref->column) ? 1 : 0;
    }
    if (tables > 1) {
      BindScope all;
      for (const BindScope& scope : scopes) all.Append(scope);
      return all.Resolve(ref->qualifier, ref->column).status();
    }
  }
  return Status::OK();
}

/// Derives an output column name for an unaliased select expression.
std::string DeriveColumnName(const Expr& expr) {
  if (expr.kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(expr).column;
  }
  if (expr.kind == ExprKind::kSlotRef) {
    const auto& slot = static_cast<const SlotRefExpr&>(expr);
    // Strip a "t." qualifier from simple rewritten column references.
    const size_t dot = slot.display_name.rfind('.');
    if (dot != std::string::npos &&
        slot.display_name.find('(') == std::string::npos &&
        slot.display_name.find(' ') == std::string::npos) {
      return slot.display_name.substr(dot + 1);
    }
    return slot.display_name;
  }
  if (expr.kind == ExprKind::kNextVal) return "NEXTVAL";
  return expr.ToSql();
}

}  // namespace

Result<std::pair<ExecNodePtr, BindScope>> Planner::PlanTableRef(TableRef* ref,
                                                                int depth) {
  if (depth > kMaxViewDepth) {
    return Status::SemanticError("view nesting too deep (cycle?)");
  }
  if (ref->kind == TableRef::Kind::kSubquery) {
    MR_ASSIGN_OR_RETURN(PlannedSelect sub, PlanImpl(ref->subquery.get(), depth + 1));
    BindScope scope;
    for (const Column& col : sub.out_schema.columns()) {
      scope.Add(ref->alias, col.name, col.type);
    }
    return std::make_pair(std::move(sub.node), std::move(scope));
  }
  if (catalog_->HasTable(ref->name)) {
    MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                        catalog_->GetTable(ref->name));
    BindScope scope;
    for (const Column& col : table->schema().columns()) {
      scope.Add(ref->alias, col.name, col.type);
    }
    ExecNodePtr scan = std::make_unique<TableScanNode>(std::move(table));
    return std::make_pair(std::move(scan), std::move(scope));
  }
  if (catalog_->HasView(ref->name)) {
    MR_ASSIGN_OR_RETURN(ViewDef view, catalog_->GetView(ref->name));
    MR_ASSIGN_OR_RETURN(auto view_select, ParseSelectSql(view.select_sql));
    MR_ASSIGN_OR_RETURN(PlannedSelect sub,
                        PlanImpl(view_select.get(), depth + 1));
    BindScope scope;
    for (const Column& col : sub.out_schema.columns()) {
      scope.Add(ref->alias, col.name, col.type);
    }
    return std::make_pair(std::move(sub.node), std::move(scope));
  }
  // System tables (DESIGN.md §11) resolve last, so a user table or view of
  // the same name shadows them. Materialized at plan time: the scan sees a
  // consistent snapshot of the registries for the whole query.
  if (IsSystemTable(ref->name)) {
    MR_ASSIGN_OR_RETURN(auto materialized,
                        MaterializeSystemTable(ref->name));
    BindScope scope;
    for (const Column& col : materialized.first.columns()) {
      scope.Add(ref->alias, col.name, col.type);
    }
    return std::make_pair(
        ExecNodePtr(std::make_unique<SystemScanNode>(
            ToLower(ref->name), std::move(materialized.first),
            std::move(materialized.second))),
        std::move(scope));
  }
  return Status::NotFound("relation not found: " + ref->name);
}

Result<std::pair<ExecNodePtr, BindScope>> Planner::PlanFromWhere(
    SelectStmt* stmt, int depth) {
  // FROM-less SELECT: one empty row.
  if (stmt->from.empty()) {
    ExecNodePtr node = std::make_unique<RowsNode>(
        Schema{}, std::vector<Row>{Row{}});
    BindScope scope;
    if (stmt->where != nullptr) {
      MR_RETURN_IF_ERROR(BindExpr(stmt->where.get(), scope, false));
      node = std::make_unique<FilterNode>(std::move(node),
                                          std::move(stmt->where), ctx_);
    }
    return std::make_pair(std::move(node), std::move(scope));
  }

  std::vector<ExecNodePtr> nodes;
  std::vector<BindScope> scopes;
  for (TableRef& ref : stmt->from) {
    MR_ASSIGN_OR_RETURN(auto planned, PlanTableRef(&ref, depth));
    nodes.push_back(std::move(planned.first));
    scopes.push_back(std::move(planned.second));
  }

  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(std::move(stmt->where), &conjuncts);
  MR_RETURN_IF_ERROR(CheckUnambiguous(conjuncts, scopes));

  std::vector<bool> applied(conjuncts.size(), false);

  ExecNodePtr current = std::move(nodes[0]);
  BindScope scope = std::move(scopes[0]);

  auto apply_ready_filters = [&]() -> Status {
    std::vector<ExprPtr> ready;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (applied[c]) continue;
      if (ContainsAggregate(*conjuncts[c])) {
        return Status::SemanticError("aggregate not allowed in WHERE: " +
                                     conjuncts[c]->ToSql());
      }
      if (ExprBindableIn(*conjuncts[c], scope)) {
        MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scope, false));
        ready.push_back(std::move(conjuncts[c]));
        applied[c] = true;
      }
    }
    if (ExprPtr pred = AndTogether(std::move(ready))) {
      current = std::make_unique<FilterNode>(std::move(current),
                                               std::move(pred), ctx_);
    }
    return Status::OK();
  };

  MR_RETURN_IF_ERROR(apply_ready_filters());

  for (size_t i = 1; i < nodes.size(); ++i) {
    // Filter table i's input before joining it: every conjunct that binds
    // in its scope alone goes onto it (DESIGN.md §18). Rows it drops could
    // only have been rejected after the join, and a filter keeps its
    // input's order, so the join output is unchanged. NEXTVAL stays where
    // it was (pushing it changes which rows advance the sequence). A
    // conjunct that also binds on the left side belongs there, so an
    // unqualified column both sides carry keeps its left-side binding.
    std::vector<ExprPtr> local;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (applied[c] || ContainsNextVal(*conjuncts[c]) ||
          ContainsAggregate(*conjuncts[c]) ||
          !ExprBindableIn(*conjuncts[c], scopes[i]) ||
          ExprBindableIn(*conjuncts[c], scope)) {
        continue;
      }
      MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scopes[i], false));
      local.push_back(std::move(conjuncts[c]));
      applied[c] = true;
    }
    if (ExprPtr pred = AndTogether(std::move(local))) {
      nodes[i] = std::make_unique<FilterNode>(std::move(nodes[i]),
                                              std::move(pred), ctx_);
    }

    // Harvest equi-join keys between the accumulated left side and table i.
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (applied[c] || conjuncts[c]->kind != ExprKind::kBinary) continue;
      auto* bin = static_cast<BinaryExpr*>(conjuncts[c].get());
      if (bin->op != BinaryOp::kEq) continue;
      ExprPtr* left_side = nullptr;
      ExprPtr* right_side = nullptr;
      if (ExprBindableIn(*bin->lhs, scope) &&
          ExprBindableIn(*bin->rhs, scopes[i])) {
        left_side = &bin->lhs;
        right_side = &bin->rhs;
      } else if (ExprBindableIn(*bin->rhs, scope) &&
                 ExprBindableIn(*bin->lhs, scopes[i])) {
        left_side = &bin->rhs;
        right_side = &bin->lhs;
      } else {
        continue;
      }
      // A key usable on both sides (e.g. a literal) is a filter, not a join
      // key; skip it here and let apply_ready_filters handle it.
      if (ExprBindableIn(**right_side, scope) ||
          ExprBindableIn(**left_side, scopes[i])) {
        continue;
      }
      MR_RETURN_IF_ERROR(BindExpr(left_side->get(), scope, false));
      MR_RETURN_IF_ERROR(BindExpr(right_side->get(), scopes[i], false));
      left_keys.push_back(std::move(*left_side));
      right_keys.push_back(std::move(*right_side));
      applied[c] = true;
    }

    if (!left_keys.empty()) {
      current = std::make_unique<HashJoinNode>(
          std::move(current), std::move(nodes[i]), std::move(left_keys),
          std::move(right_keys), nullptr, ctx_);
    } else {
      current = std::make_unique<NestedLoopJoinNode>(
          std::move(current), std::move(nodes[i]), nullptr, ctx_);
    }
    scope.Append(scopes[i]);
    MR_RETURN_IF_ERROR(apply_ready_filters());
  }

  for (size_t c = 0; c < conjuncts.size(); ++c) {
    if (!applied[c]) {
      // Produce the precise binding error.
      MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scope, false));
      return Status::Internal("conjunct bindable but not applied: " +
                              conjuncts[c]->ToSql());
    }
  }
  return std::make_pair(std::move(current), std::move(scope));
}

Result<PlannedSelect> Planner::Plan(SelectStmt* stmt) {
  return PlanImpl(stmt, 0);
}

Result<PlannedSelect> Planner::PlanImpl(SelectStmt* stmt, int depth) {
  if (depth > kMaxViewDepth) {
    return Status::SemanticError("query nesting too deep");
  }
  if (stmt->items.empty()) {
    return Status::SemanticError("empty select list");
  }

  MR_ASSIGN_OR_RETURN(auto from_where, PlanFromWhere(stmt, depth));
  ExecNodePtr node = std::move(from_where.first);
  BindScope scope = std::move(from_where.second);

  // Decide whether this query aggregates.
  bool has_aggregates = stmt->having != nullptr && ContainsAggregate(*stmt->having);
  for (const SelectItem& item : stmt->items) {
    if (item.expr != nullptr && ContainsAggregate(*item.expr)) {
      has_aggregates = true;
    }
  }
  const bool grouping =
      !stmt->group_by.empty() || has_aggregates || stmt->having != nullptr;

  if (grouping) {
    for (const SelectItem& item : stmt->items) {
      if (item.is_star) {
        return Status::SemanticError(
            "'*' cannot be used together with GROUP BY / aggregates");
      }
    }

    // Bind grouping keys and all expressions over the pre-aggregation scope.
    for (ExprPtr& g : stmt->group_by) {
      MR_RETURN_IF_ERROR(BindExpr(g.get(), scope, false));
    }
    for (SelectItem& item : stmt->items) {
      MR_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope, true));
    }
    if (stmt->having != nullptr) {
      MR_RETURN_IF_ERROR(BindExpr(stmt->having.get(), scope, true));
    }

    // Collect distinct aggregate expressions across select list and HAVING.
    std::vector<AggregateExpr*> all_aggs;
    for (SelectItem& item : stmt->items) {
      CollectAggregates(item.expr.get(), &all_aggs);
    }
    if (stmt->having != nullptr) {
      CollectAggregates(stmt->having.get(), &all_aggs);
    }
    std::vector<const AggregateExpr*> unique_aggs;
    for (AggregateExpr* agg : all_aggs) {
      bool found = false;
      for (const AggregateExpr* u : unique_aggs) {
        if (ExprEquals(*agg, *u)) {
          found = true;
          break;
        }
      }
      if (!found) unique_aggs.push_back(agg);
    }

    // Aggregate node output: group keys, then aggregates.
    Schema agg_schema;
    // The rewrite targets must own their nodes: RewriteMatches mutates the
    // select-list and HAVING trees while later targets are still compared
    // against them, so aliasing into those trees would leave dangling
    // pointers once a shared subtree is replaced by a SlotRef.
    std::vector<ExprPtr> target_storage;
    std::vector<const Expr*> targets;
    std::vector<int> slots;
    std::vector<DataType> types;
    std::vector<ExprPtr> group_exprs;
    int slot = 0;
    for (ExprPtr& g : stmt->group_by) {
      MR_ASSIGN_OR_RETURN(DataType type, InferExprType(*g));
      std::string name = DeriveColumnName(*g);
      agg_schema.AddColumn(Column(name, type));
      target_storage.push_back(g->Clone());
      targets.push_back(target_storage.back().get());
      slots.push_back(slot++);
      types.push_back(type);
      group_exprs.push_back(std::move(g));
    }
    std::vector<AggSpec> agg_specs;
    for (const AggregateExpr* agg : unique_aggs) {
      MR_ASSIGN_OR_RETURN(DataType type, InferExprType(*agg));
      agg_schema.AddColumn(Column(agg->ToSql(), type));
      target_storage.push_back(agg->Clone());
      targets.push_back(target_storage.back().get());
      slots.push_back(slot++);
      types.push_back(type);
      AggSpec spec;
      spec.func = agg->func;
      spec.distinct = agg->distinct;
      spec.arg = agg->arg ? agg->arg->Clone() : nullptr;
      agg_specs.push_back(std::move(spec));
    }

    // Rewrite HAVING and the select list against the owned targets.
    if (stmt->having != nullptr) {
      RewriteMatches(&stmt->having, targets, slots, types);
      std::string offender;
      if (ContainsColumnRef(*stmt->having, &offender)) {
        return Status::SemanticError("HAVING references non-grouped column " +
                                     offender);
      }
    }
    for (SelectItem& item : stmt->items) {
      RewriteMatches(&item.expr, targets, slots, types);
      std::string offender;
      if (ContainsColumnRef(*item.expr, &offender)) {
        return Status::SemanticError("column " + offender +
                                     " must appear in GROUP BY");
      }
    }

    node = std::make_unique<HashAggregateNode>(
        std::move(node), std::move(group_exprs), std::move(agg_specs),
        agg_schema, ctx_);
    if (stmt->having != nullptr) {
      node = std::make_unique<FilterNode>(std::move(node),
                                          std::move(stmt->having), ctx_);
    }
    // Post-aggregation scope: the aggregate output columns.
    BindScope agg_scope;
    for (const Column& col : agg_schema.columns()) {
      agg_scope.Add("", col.name, col.type);
    }
    scope = std::move(agg_scope);
  }

  // Projection.
  std::vector<ExprPtr> project_exprs;
  Schema out_schema;
  for (SelectItem& item : stmt->items) {
    if (item.is_star) {
      bool matched = false;
      for (size_t i = 0; i < scope.size(); ++i) {
        const BoundColumn& col = scope.column(i);
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(col.qualifier, item.star_qualifier)) {
          continue;
        }
        matched = true;
        project_exprs.push_back(std::make_unique<SlotRefExpr>(
            static_cast<int>(i), col.type, col.name));
        out_schema.AddColumn(Column(col.name, col.type));
      }
      if (!matched) {
        return Status::SemanticError("no columns match " +
                                     item.star_qualifier + ".*");
      }
      continue;
    }
    if (!grouping) {
      MR_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope, false));
    }
    MR_ASSIGN_OR_RETURN(DataType type, InferExprType(*item.expr));
    std::string name =
        !item.alias.empty() ? item.alias : DeriveColumnName(*item.expr);
    out_schema.AddColumn(Column(std::move(name), type));
    project_exprs.push_back(std::move(item.expr));
  }
  // ORDER BY: keys may reference output columns (by name, qualified name,
  // or ordinal) or — when there is no grouping — input columns that are not
  // projected; those are carried through the projection as hidden trailing
  // columns and stripped again after the sort.
  std::vector<SortNode::SortKey> sort_keys;
  size_t visible_columns = out_schema.num_columns();
  if (!stmt->order_by.empty()) {
    BindScope out_scope;
    for (const Column& col : out_schema.columns()) {
      out_scope.Add("", col.name, col.type);
    }
    Schema extended_schema = out_schema;
    for (OrderItem& item : stmt->order_by) {
      SortNode::SortKey key;
      key.descending = item.descending;
      if (item.expr->kind == ExprKind::kLiteral) {
        const Value& v = static_cast<LiteralExpr*>(item.expr.get())->value;
        if (v.type() == DataType::kInteger) {
          const int64_t ordinal = v.AsInteger();
          if (ordinal < 1 || ordinal > static_cast<int64_t>(visible_columns)) {
            return Status::SemanticError("ORDER BY ordinal out of range");
          }
          const Column& col = out_schema.column(ordinal - 1);
          key.expr = std::make_unique<SlotRefExpr>(
              static_cast<int>(ordinal - 1), col.type, col.name);
          sort_keys.push_back(std::move(key));
          continue;
        }
      }
      Status bound = BindExpr(item.expr.get(), out_scope, false);
      if (!bound.ok() && item.expr->kind == ExprKind::kColumnRef) {
        // ORDER BY T.col where the projection exported plain `col`: retry
        // with the qualifier stripped (output columns are unqualified).
        auto* ref = static_cast<ColumnRefExpr*>(item.expr.get());
        if (!ref->qualifier.empty()) {
          auto copy = std::make_unique<ColumnRefExpr>("", ref->column);
          if (BindExpr(copy.get(), out_scope, false).ok()) {
            item.expr = std::move(copy);
            bound = Status::OK();
          }
        }
      }
      if (!bound.ok() && !grouping &&
          ExprBindableIn(*item.expr, scope)) {
        // Sort by a non-projected input expression: add a hidden column.
        if (stmt->distinct) {
          return Status::SemanticError(
              "ORDER BY expression must appear in the select list when "
              "DISTINCT is used: " + item.expr->ToSql());
        }
        MR_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope, false));
        MR_ASSIGN_OR_RETURN(DataType type, InferExprType(*item.expr));
        const int hidden_slot = static_cast<int>(project_exprs.size());
        const std::string name = item.expr->ToSql();
        extended_schema.AddColumn(Column(name, type));
        project_exprs.push_back(std::move(item.expr));
        key.expr = std::make_unique<SlotRefExpr>(hidden_slot, type, name);
        sort_keys.push_back(std::move(key));
        continue;
      }
      MR_RETURN_IF_ERROR(bound);
      key.expr = std::move(item.expr);
      sort_keys.push_back(std::move(key));
    }
    if (project_exprs.size() > visible_columns) {
      out_schema = extended_schema;  // temporarily widened; shrunk below
    }
  }

  node = std::make_unique<ProjectNode>(std::move(node),
                                       std::move(project_exprs), out_schema,
                                       ctx_);

  if (stmt->distinct) {
    node = std::make_unique<DistinctNode>(std::move(node), ctx_);
  }

  if (!sort_keys.empty()) {
    node = std::make_unique<SortNode>(std::move(node), std::move(sort_keys),
                                      ctx_);
  }

  // Strip hidden sort columns.
  if (out_schema.num_columns() > visible_columns) {
    Schema visible_schema;
    std::vector<ExprPtr> strip_exprs;
    for (size_t i = 0; i < visible_columns; ++i) {
      const Column& col = out_schema.column(i);
      visible_schema.AddColumn(col);
      strip_exprs.push_back(std::make_unique<SlotRefExpr>(
          static_cast<int>(i), col.type, col.name));
    }
    node = std::make_unique<ProjectNode>(
        std::move(node), std::move(strip_exprs), visible_schema, ctx_);
    out_schema = std::move(visible_schema);
  }

  if (stmt->limit.has_value()) {
    node = std::make_unique<LimitNode>(std::move(node), *stmt->limit);
  }

  PlannedSelect result;
  result.node = std::move(node);
  result.out_schema = std::move(out_schema);
  return result;
}

}  // namespace minerule::sql
