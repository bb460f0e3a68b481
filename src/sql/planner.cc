#include "sql/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/string_util.h"
#include "sql/parser.h"
#include "sql/statistics.h"
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

// ---------------------------------------------------------------------------
// Cost-based planning helpers (DESIGN.md §14). All estimates are advisory —
// they steer plan shape only; results are bit-identical regardless.
// ---------------------------------------------------------------------------

/// Selectivity of a predicate the model knows nothing about.
constexpr double kDefaultSel = 1.0 / 3.0;
/// Equality against an unknown expression.
constexpr double kEqDefaultSel = 0.1;
/// The probe side must be this many times larger than the build side before
/// a build-side swap pays for materializing the grouped matches.
constexpr double kSwapBuildRatio = 4.0;
/// Probe sides smaller than this never justify a swap.
constexpr double kSwapMinProbeRows = 1024.0;
/// A reordered join must beat the canonical order by this factor to cover
/// the hidden-rowid restore sort it requires.
constexpr double kReorderMargin = 1.2;
/// Estimates never collapse to zero — a zero would erase every downstream
/// product.
constexpr double kMinEstRows = 0.05;

double NumericOrNan(const Value& v) {
  if (v.type() == DataType::kInteger || v.type() == DataType::kDouble) {
    return v.AsDouble();
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Column statistics for a bare column reference resolvable in `scope`
/// (whose slots are the table's column positions); null otherwise.
const ColumnStats* FindColumnStats(const Expr& e, const BindScope& scope,
                                   const TableStats& stats) {
  if (e.kind != ExprKind::kColumnRef) return nullptr;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  Result<int> slot = scope.Resolve(ref.qualifier, ref.column);
  if (!slot.ok()) return nullptr;
  const size_t index = static_cast<size_t>(*slot);
  if (index >= stats.columns.size()) return nullptr;
  return &stats.columns[index];
}

/// Fraction of `cs` values below `lit`, interpolated over [min, max].
double FractionBelow(const ColumnStats& cs, const Value& lit) {
  const double v = NumericOrNan(lit);
  const double lo = NumericOrNan(cs.min_value);
  const double hi = NumericOrNan(cs.max_value);
  if (std::isnan(v) || std::isnan(lo) || std::isnan(hi)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (hi <= lo) return v >= lo ? 1.0 : 0.0;
  return std::clamp((v - lo) / (hi - lo), 0.0, 1.0);
}

/// Selectivity of one WHERE conjunct over one table. `scope` is the table's
/// own scope, so column references resolve to column positions.
double ConjunctSelectivity(const Expr& e, const BindScope& scope,
                           const TableStats& stats) {
  double sel = kDefaultSel;
  switch (e.kind) {
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      const Expr* col = nullptr;
      const Expr* other = nullptr;
      BinaryOp op = b.op;
      if (b.lhs->kind == ExprKind::kColumnRef) {
        col = b.lhs.get();
        other = b.rhs.get();
      } else if (b.rhs->kind == ExprKind::kColumnRef) {
        col = b.rhs.get();
        other = b.lhs.get();
        // Mirror the comparison so `col` reads as the left operand.
        switch (op) {
          case BinaryOp::kLess: op = BinaryOp::kGreater; break;
          case BinaryOp::kLessEq: op = BinaryOp::kGreaterEq; break;
          case BinaryOp::kGreater: op = BinaryOp::kLess; break;
          case BinaryOp::kGreaterEq: op = BinaryOp::kLessEq; break;
          default: break;
        }
      }
      const ColumnStats* cs =
          col != nullptr ? FindColumnStats(*col, scope, stats) : nullptr;
      switch (op) {
        case BinaryOp::kEq:
          sel = cs != nullptr ? 1.0 / std::max(1.0, cs->Ndv()) : kEqDefaultSel;
          break;
        case BinaryOp::kNotEq:
          sel = cs != nullptr ? 1.0 - 1.0 / std::max(1.0, cs->Ndv())
                              : 1.0 - kEqDefaultSel;
          break;
        case BinaryOp::kLess:
        case BinaryOp::kLessEq:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEq: {
          if (cs != nullptr && other != nullptr &&
              other->kind == ExprKind::kLiteral) {
            const double below = FractionBelow(
                *cs, static_cast<const LiteralExpr&>(*other).value);
            if (!std::isnan(below)) {
              sel = (op == BinaryOp::kLess || op == BinaryOp::kLessEq)
                        ? below
                        : 1.0 - below;
            }
          }
          break;
        }
        default:
          break;
      }
      break;
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      double p = 0.25;
      const ColumnStats* cs = FindColumnStats(*bt.operand, scope, stats);
      if (cs != nullptr && bt.low->kind == ExprKind::kLiteral &&
          bt.high->kind == ExprKind::kLiteral) {
        const double lo = FractionBelow(
            *cs, static_cast<const LiteralExpr&>(*bt.low).value);
        const double hi = FractionBelow(
            *cs, static_cast<const LiteralExpr&>(*bt.high).value);
        if (!std::isnan(lo) && !std::isnan(hi)) p = std::max(hi - lo, 0.0);
      }
      sel = bt.negated ? 1.0 - p : p;
      break;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      double p = kDefaultSel;
      const ColumnStats* cs = FindColumnStats(*in.operand, scope, stats);
      if (cs != nullptr) {
        p = std::min(1.0, static_cast<double>(in.list.size()) /
                              std::max(1.0, cs->Ndv()));
      }
      sel = in.negated ? 1.0 - p : p;
      break;
    }
    case ExprKind::kIsNull: {
      const auto& isn = static_cast<const IsNullExpr&>(e);
      double p = 0.5;
      const ColumnStats* cs = FindColumnStats(*isn.operand, scope, stats);
      if (cs != nullptr) p = cs->NullFraction();
      sel = isn.negated ? 1.0 - p : p;
      break;
    }
    default:
      break;
  }
  if (std::isnan(sel)) sel = kDefaultSel;
  return std::clamp(sel, 0.0005, 1.0);
}

/// Collects the column references of a conjunct, for the table-set masks.
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
                        MaterializeSystemTable(ref->name, ctx_->stats));
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

  // Cost-based FROM/WHERE planning (DESIGN.md §14): only over plain base
  // tables with NEXTVAL-free predicates; anything else — views, subqueries,
  // system tables, sequence-advancing filters — keeps the purely syntactic
  // path below.
  if (ctx_->cost_based && ctx_->stats != nullptr && nodes.size() <= 64) {
    bool eligible = true;
    for (const TableRef& ref : stmt->from) {
      if (ref.kind != TableRef::Kind::kBase || !catalog_->HasTable(ref.name)) {
        eligible = false;
        break;
      }
    }
    for (const ExprPtr& c : conjuncts) {
      if (!eligible) break;
      if (ContainsNextVal(*c)) eligible = false;
    }
    if (eligible) {
      return PlanFromWhereCostBased(stmt, std::move(nodes), std::move(scopes),
                                    std::move(conjuncts));
    }
  }

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

Result<std::pair<ExecNodePtr, BindScope>> Planner::PlanFromWhereCostBased(
    SelectStmt* stmt, std::vector<ExecNodePtr> nodes,
    std::vector<BindScope> scopes, std::vector<ExprPtr> conjuncts) {
  const size_t n = nodes.size();
  StatisticsCatalog& stats_catalog = *ctx_->stats;
  PlanFeedback* feedback = ctx_->feedback;

  // Aggregates in WHERE are a semantic error regardless of plan shape; the
  // syntactic path reports them from apply_ready_filters, so check up front
  // here before any conjunct is pushed down.
  for (const ExprPtr& c : conjuncts) {
    if (ContainsAggregate(*c)) {
      return Status::SemanticError("aggregate not allowed in WHERE: " +
                                   c->ToSql());
    }
  }

  // --- Per-table statistics ------------------------------------------------
  std::vector<std::shared_ptr<Table>> tables(n);
  std::vector<const TableStats*> table_stats(n);
  for (size_t i = 0; i < n; ++i) {
    MR_ASSIGN_OR_RETURN(tables[i], catalog_->GetTable(stmt->from[i].name));
    table_stats[i] = stats_catalog.GetOrCollect(*tables[i]);
  }

  // --- Conjunct classification ---------------------------------------------
  // kLocal: bindable against a single table — pushed onto its scan.
  // kJoin: equality whose sides bind against exactly one table each — an
  // equi-join edge. kOther: everything else (cross-table range filters,
  // three-table expressions); applied once all referenced tables joined.
  struct ConjInfo {
    enum class Use { kLocal, kJoin, kOther };
    Use use = Use::kOther;
    size_t local_table = 0;
    size_t table_a = 0;
    size_t table_b = 0;
    double join_ndv = 1.0;
    uint64_t mask = 0;  // tables whose columns the conjunct references
    std::string sql;    // pre-binding snapshot, for fingerprints
  };
  std::vector<ConjInfo> info(conjuncts.size());
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    ConjInfo& ci = info[c];
    ci.sql = conjuncts[c]->ToSql();
    std::vector<const ColumnRefExpr*> refs;
    CollectColumnRefs(*conjuncts[c], &refs);
    for (const ColumnRefExpr* ref : refs) {
      for (size_t i = 0; i < n; ++i) {
        if (scopes[i].CanResolve(ref->qualifier, ref->column)) {
          ci.mask |= uint64_t{1} << i;
        }
      }
    }
    std::vector<size_t> bindable;
    for (size_t i = 0; i < n; ++i) {
      if (ExprBindableIn(*conjuncts[c], scopes[i])) bindable.push_back(i);
    }
    if (!bindable.empty()) {
      ci.use = ConjInfo::Use::kLocal;
      ci.local_table = bindable.front();
      continue;
    }
    if (conjuncts[c]->kind == ExprKind::kBinary) {
      auto* bin = static_cast<BinaryExpr*>(conjuncts[c].get());
      if (bin->op == BinaryOp::kEq) {
        auto side_table = [&](const Expr& side) -> int {
          int found = -1;
          for (size_t i = 0; i < n; ++i) {
            if (ExprBindableIn(side, scopes[i])) {
              if (found >= 0) return -2;  // ambiguous: treated as kOther
              found = static_cast<int>(i);
            }
          }
          return found;
        };
        const int ta = side_table(*bin->lhs);
        const int tb = side_table(*bin->rhs);
        if (ta >= 0 && tb >= 0 && ta != tb) {
          ci.use = ConjInfo::Use::kJoin;
          ci.table_a = static_cast<size_t>(ta);
          ci.table_b = static_cast<size_t>(tb);
          double ndv = 0.0;
          const ColumnStats* ca =
              FindColumnStats(*bin->lhs, scopes[ta], *table_stats[ta]);
          const ColumnStats* cb =
              FindColumnStats(*bin->rhs, scopes[tb], *table_stats[tb]);
          if (ca != nullptr) ndv = std::max(ndv, ca->Ndv());
          if (cb != nullptr) ndv = std::max(ndv, cb->Ndv());
          if (ndv <= 0.0) {
            // Expression keys: assume key-like behavior on the larger side.
            ndv = std::max(
                {1.0, static_cast<double>(table_stats[ta]->row_count),
                 static_cast<double>(table_stats[tb]->row_count)});
          }
          ci.join_ndv = std::max(ndv, 1.0);
        }
      }
    }
  }

  // --- Effective per-table estimates (after pushdown, feedback wins) ------
  std::vector<std::vector<size_t>> local(n);
  for (size_t c = 0; c < conjuncts.size(); ++c) {
    if (info[c].use == ConjInfo::Use::kLocal) {
      local[info[c].local_table].push_back(c);
    }
  }
  std::vector<double> raw_rows(n);
  std::vector<double> eff_rows(n);
  std::vector<std::string> scan_fp(n);
  for (size_t i = 0; i < n; ++i) {
    raw_rows[i] = static_cast<double>(table_stats[i]->row_count);
    double sel = 1.0;
    std::vector<std::string> filter_sqls;
    for (size_t c : local[i]) {
      sel *= ConjunctSelectivity(*conjuncts[c], scopes[i], *table_stats[i]);
      filter_sqls.push_back(info[c].sql);
    }
    std::sort(filter_sqls.begin(), filter_sqls.end());
    // The table version embedded in the fingerprint invalidates feedback on
    // any DML automatically.
    std::string fp = "s|" + ToLower(tables[i]->name()) + "@v" +
                     std::to_string(tables[i]->version()) + "|f=";
    for (const std::string& s : filter_sqls) {
      fp += s;
      fp += '&';
    }
    scan_fp[i] = std::move(fp);
    double est = raw_rows[i] * sel;
    if (feedback != nullptr) {
      const int64_t observed = feedback->Lookup(scan_fp[i]);
      if (observed >= 0) est = static_cast<double>(observed);
    }
    eff_rows[i] = std::max(est, kMinEstRows);
  }

  // Order-independent fingerprint of an intermediate: the member scans plus
  // every non-local predicate applied so far, both name-sorted.
  auto set_fingerprint = [&](uint64_t members,
                             std::vector<std::string> preds) -> std::string {
    std::vector<std::string> fps;
    for (size_t i = 0; i < n; ++i) {
      if (members & (uint64_t{1} << i)) fps.push_back(scan_fp[i]);
    }
    std::sort(fps.begin(), fps.end());
    std::sort(preds.begin(), preds.end());
    std::string fp = "J|m=";
    for (const std::string& f : fps) {
      fp += f;
      fp += ';';
    }
    fp += "|p=";
    for (const std::string& p : preds) {
      fp += p;
      fp += '&';
    }
    return fp;
  };

  // --- Order search --------------------------------------------------------
  // preview() estimates joining table t into the member set; advance()
  // commits the step, consuming edges, applying newly-bindable cross-table
  // filters and folding in observed cardinalities.
  struct StepState {
    uint64_t members = 0;
    double est = 0.0;
    double cost = 0.0;
    std::vector<bool> used;
    std::vector<std::string> preds;
  };
  auto edge_product = [&](const StepState& st, size_t t, bool commit,
                          StepState* out_st) -> std::pair<double, bool> {
    double ndv_prod = 1.0;
    bool has_edge = false;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (st.used[c] || info[c].use != ConjInfo::Use::kJoin) continue;
      const uint64_t m =
          (uint64_t{1} << info[c].table_a) | (uint64_t{1} << info[c].table_b);
      if ((m & (uint64_t{1} << t)) != 0 &&
          (m & st.members & ~(uint64_t{1} << t)) != 0) {
        has_edge = true;
        ndv_prod *= info[c].join_ndv;
        if (commit) {
          out_st->used[c] = true;
          out_st->preds.push_back(info[c].sql);
        }
      }
    }
    return {ndv_prod, has_edge};
  };
  auto preview = [&](const StepState& st, size_t t) -> std::pair<double, bool> {
    auto [ndv_prod, has_edge] = edge_product(st, t, false, nullptr);
    const double out = has_edge ? st.est * eff_rows[t] / ndv_prod
                                : st.est * eff_rows[t];
    return {std::max(out, kMinEstRows), has_edge};
  };
  auto advance = [&](StepState* st, size_t t) {
    const double left = st->est;
    auto [ndv_prod, has_edge] = edge_product(*st, t, true, st);
    double out = has_edge ? left * eff_rows[t] / ndv_prod
                          : left * eff_rows[t];
    // Step cost: read both inputs and write the output; a cross join pays
    // its full product.
    st->cost += has_edge ? left + eff_rows[t] + out
                         : left * eff_rows[t] + out;
    st->members |= uint64_t{1} << t;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (st->used[c] || info[c].use != ConjInfo::Use::kOther) continue;
      if (info[c].mask != 0 && (info[c].mask & ~st->members) == 0) {
        st->used[c] = true;
        st->preds.push_back(info[c].sql);
        out *= kDefaultSel;
      }
    }
    out = std::max(out, kMinEstRows);
    if (feedback != nullptr) {
      const int64_t observed =
          feedback->Lookup(set_fingerprint(st->members, st->preds));
      if (observed >= 0) {
        out = std::max(static_cast<double>(observed), kMinEstRows);
      }
    }
    st->est = out;
  };
  auto init_state = [&](size_t start) {
    StepState st;
    st.members = uint64_t{1} << start;
    st.est = eff_rows[start];
    st.used.assign(conjuncts.size(), false);
    return st;
  };

  std::vector<size_t> canonical(n);
  for (size_t i = 0; i < n; ++i) canonical[i] = i;
  std::vector<size_t> order = canonical;
  bool reorder = false;
  if (n >= 3) {
    StepState canonical_sim = init_state(0);
    for (size_t k = 1; k < n; ++k) advance(&canonical_sim, canonical[k]);
    std::vector<size_t> best_order;
    double best_cost = std::numeric_limits<double>::infinity();
    double best_rows = 0.0;
    for (size_t start = 0; start < n; ++start) {
      StepState st = init_state(start);
      std::vector<size_t> ord{start};
      while (ord.size() < n) {
        size_t pick = n;
        double pick_out = 0.0;
        bool pick_edge = false;
        for (size_t t = 0; t < n; ++t) {
          if (st.members & (uint64_t{1} << t)) continue;
          auto [out, edge] = preview(st, t);
          const bool better = (edge && !pick_edge) ||
                              (edge == pick_edge && out < pick_out);
          if (pick == n || better) {
            pick = t;
            pick_out = out;
            pick_edge = edge;
          }
        }
        advance(&st, pick);
        ord.push_back(pick);
      }
      if (st.cost < best_cost) {
        best_cost = st.cost;
        best_order = std::move(ord);
        best_rows = st.est;
      }
    }
    // The hidden-rowid restore sort re-materializes the output, so a
    // reorder must clear that bar with margin before it is adopted.
    if (best_order != canonical &&
        (best_cost + 2.0 * best_rows) * kReorderMargin < canonical_sim.cost) {
      order = std::move(best_order);
      reorder = true;
    }
  }

  // --- Physical build ------------------------------------------------------
  // Per-table pipeline: scan, pushed-down local filters and — when the join
  // order deviates from FROM order — a hidden ascending row number. The
  // canonical left-deep plan emits rows in lexicographic source-row-index
  // order (joins stream the left side and emit right matches in input
  // order), so sorting the reordered output by the hidden row numbers in
  // canonical table order reproduces the canonical row order exactly.
  std::vector<bool> applied(conjuncts.size(), false);
  std::vector<BindScope> pipe_scopes = scopes;
  std::vector<ExecNodePtr> pipes(n);
  const bool collect_feedback = feedback != nullptr;
  for (size_t i = 0; i < n; ++i) {
    ExecNodePtr node = std::move(nodes[i]);
    if (reorder) {
      // Number the raw scan rows (below any pushed filter — the filter is
      // not 1:1 with its input, the scan is). Surviving rows keep their
      // source index, and the canonical order is source-index order, so
      // numbering before filtering restores it just the same.
      const std::string rid = "#rid" + std::to_string(i);
      pipe_scopes[i].Add("", rid, DataType::kInteger);
      node = std::make_unique<RowNumberNode>(std::move(node), rid);
    }
    std::vector<ExprPtr> ready;
    for (size_t c : local[i]) {
      // Bound against the rid-free scope: the rid is the trailing column,
      // so original slot indexes are unchanged.
      MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scopes[i], false));
      ready.push_back(std::move(conjuncts[c]));
      applied[c] = true;
    }
    if (ExprPtr pred = AndTogether(std::move(ready))) {
      node =
          std::make_unique<FilterNode>(std::move(node), std::move(pred), ctx_);
    }
    node->SetPlanEstimates(eff_rows[i], raw_rows[i]);
    if (collect_feedback) {
      feedback_points_.emplace_back(scan_fp[i], node.get());
    }
    pipes[i] = std::move(node);
  }

  StepState run = init_state(order[0]);
  ExecNodePtr current = std::move(pipes[order[0]]);
  BindScope scope = pipe_scopes[order[0]];

  auto apply_ready_filters = [&]() -> Status {
    std::vector<ExprPtr> ready;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (applied[c] || conjuncts[c] == nullptr) continue;
      if (ExprBindableIn(*conjuncts[c], scope)) {
        MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scope, false));
        ready.push_back(std::move(conjuncts[c]));
        applied[c] = true;
      }
    }
    if (ExprPtr pred = AndTogether(std::move(ready))) {
      current = std::make_unique<FilterNode>(std::move(current),
                                               std::move(pred), ctx_);
      current->SetPlanEstimates(run.est, run.est);
    }
    return Status::OK();
  };
  MR_RETURN_IF_ERROR(apply_ready_filters());

  for (size_t k = 1; k < n; ++k) {
    const size_t t = order[k];
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (applied[c] || conjuncts[c] == nullptr ||
          conjuncts[c]->kind != ExprKind::kBinary) {
        continue;
      }
      auto* bin = static_cast<BinaryExpr*>(conjuncts[c].get());
      if (bin->op != BinaryOp::kEq) continue;
      ExprPtr* left_side = nullptr;
      ExprPtr* right_side = nullptr;
      if (ExprBindableIn(*bin->lhs, scope) &&
          ExprBindableIn(*bin->rhs, pipe_scopes[t])) {
        left_side = &bin->lhs;
        right_side = &bin->rhs;
      } else if (ExprBindableIn(*bin->rhs, scope) &&
                 ExprBindableIn(*bin->lhs, pipe_scopes[t])) {
        left_side = &bin->rhs;
        right_side = &bin->lhs;
      } else {
        continue;
      }
      if (ExprBindableIn(**right_side, scope) ||
          ExprBindableIn(**left_side, pipe_scopes[t])) {
        continue;
      }
      MR_RETURN_IF_ERROR(BindExpr(left_side->get(), scope, false));
      MR_RETURN_IF_ERROR(BindExpr(right_side->get(), pipe_scopes[t], false));
      left_keys.push_back(std::move(*left_side));
      right_keys.push_back(std::move(*right_side));
      applied[c] = true;
    }

    const double left_est = run.est;
    advance(&run, t);
    if (!left_keys.empty()) {
      // Build over the smaller input: the canonical node builds over its
      // right child, so a much larger right input gets a build-side swap.
      // The swapped mode emits the canonical output order exactly and is
      // honored only on the pure unbudgeted path.
      const bool swap = ctx_->memory_limit < 0 &&
                        eff_rows[t] >= kSwapMinProbeRows &&
                        left_est * kSwapBuildRatio < eff_rows[t];
      current = std::make_unique<HashJoinNode>(
          std::move(current), std::move(pipes[t]), std::move(left_keys),
          std::move(right_keys), nullptr, ctx_, swap);
    } else {
      current = std::make_unique<NestedLoopJoinNode>(
          std::move(current), std::move(pipes[t]), nullptr, ctx_);
    }
    current->SetPlanEstimates(run.est, left_est + eff_rows[t] + run.est);
    scope.Append(pipe_scopes[t]);
    MR_RETURN_IF_ERROR(apply_ready_filters());
    if (collect_feedback) {
      feedback_points_.emplace_back(set_fingerprint(run.members, run.preds),
                                    current.get());
    }
  }

  for (size_t c = 0; c < conjuncts.size(); ++c) {
    if (!applied[c] && conjuncts[c] != nullptr) {
      // Produce the precise binding error.
      MR_RETURN_IF_ERROR(BindExpr(conjuncts[c].get(), scope, false));
      return Status::Internal("conjunct bindable but not applied: " +
                              conjuncts[c]->ToSql());
    }
  }

  if (reorder) {
    // Restore the canonical row order (sort by the hidden row numbers in
    // canonical table order — the key tuple is unique per output row) and
    // the canonical column layout.
    std::vector<size_t> offsets(n, 0);
    size_t off = 0;
    for (size_t k = 0; k < n; ++k) {
      offsets[order[k]] = off;
      off += pipe_scopes[order[k]].size();
    }
    std::vector<SortNode::SortKey> keys;
    for (size_t i = 0; i < n; ++i) {
      const size_t rid_slot = offsets[i] + pipe_scopes[i].size() - 1;
      SortNode::SortKey key;
      key.expr = std::make_unique<SlotRefExpr>(
          static_cast<int>(rid_slot), DataType::kInteger,
          "#rid" + std::to_string(i));
      keys.push_back(std::move(key));
    }
    current = std::make_unique<SortNode>(std::move(current), std::move(keys),
                                         ctx_);
    current->SetPlanEstimates(run.est, run.est);

    std::vector<ExprPtr> restore_exprs;
    Schema restore_schema;
    BindScope restore_scope;
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < scopes[i].size(); ++c) {
        const BoundColumn& col = scopes[i].column(c);
        restore_exprs.push_back(std::make_unique<SlotRefExpr>(
            static_cast<int>(offsets[i] + c), col.type, col.name));
        restore_schema.AddColumn(Column(col.name, col.type));
        restore_scope.Add(col.qualifier, col.name, col.type);
      }
    }
    current = std::make_unique<ProjectNode>(
        std::move(current), std::move(restore_exprs), restore_schema, ctx_);
    current->SetPlanEstimates(run.est, run.est);
    scope = std::move(restore_scope);
  }

  return std::make_pair(std::move(current), std::move(scope));
}

Result<PlannedSelect> Planner::Plan(SelectStmt* stmt) {
  TuneExecution(stmt);
  MR_ASSIGN_OR_RETURN(PlannedSelect planned, PlanImpl(stmt, 0));
  planned.feedback = std::move(feedback_points_);
  feedback_points_.clear();
  return planned;
}

void Planner::TuneExecution(SelectStmt* stmt) {
  if (!ctx_->cost_based || ctx_->stats == nullptr || ctx_->memory_limit < 0) {
    return;
  }
  int64_t max_bytes = 0;
  for (const TableRef& ref : stmt->from) {
    if (ref.kind != TableRef::Kind::kBase || !catalog_->HasTable(ref.name)) {
      return;  // unknown inputs: leave the execution knobs alone
    }
    Result<std::shared_ptr<Table>> table = catalog_->GetTable(ref.name);
    if (!table.ok()) return;
    const TableStats* stats = ctx_->stats->GetOrCollect(**table);
    max_bytes = std::max(max_bytes, stats->total_row_bytes);
  }
  // Spill fan-out: enough partitions that one partition of the largest
  // table fits the budget, within [16, 64]. Partitioning never affects
  // results — every spill path restores output order from recorded input
  // indexes (DESIGN.md §13).
  const int64_t budget = std::max<int64_t>(ctx_->memory_limit, 1);
  size_t fan = 16;
  while (fan < 64 && max_bytes / static_cast<int64_t>(fan) > budget) {
    fan *= 2;
  }
  ctx_->spill_partitions = fan;
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
    // LIMIT terminates execution early, so observed row counts anywhere in
    // this statement would be undercounts — record no feedback at all.
    feedback_points_.clear();
  }

  PlannedSelect result;
  result.node = std::move(node);
  result.out_schema = std::move(out_schema);
  return result;
}

}  // namespace minerule::sql
