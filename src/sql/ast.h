#ifndef MINERULE_SQL_AST_H_
#define MINERULE_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"

namespace minerule::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kSlotRef,   // resolved position in the input row (introduced by binding)
  kHostVar,   // :name — bound to an engine host variable at evaluation time
  kUnary,     // NOT, unary -
  kBinary,    // AND OR = <> < <= > >= + - * / % ||
  kBetween,
  kInList,
  kIsNull,
  kFunction,  // scalar functions: ABS, UPPER, LOWER, LENGTH, YEAR, ...
  kAggregate, // COUNT/SUM/AVG/MIN/MAX — only valid where aggregation applies
  kNextVal,   // <sequence>.NEXTVAL
  kStar,      // '*' inside COUNT(*) only
};

enum class UnaryOp { kNot, kNegate };

enum class BinaryOp {
  kAnd,
  kOr,
  kEq,
  kNotEq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kConcat,
};

const char* BinaryOpName(BinaryOp op);

enum class AggFunc { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc func);

/// Base class for expression AST nodes. Nodes are mutated in place by the
/// binder (column references get resolved indexes), so each parsed tree is
/// bound against exactly one input layout; views are re-parsed per use.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;

  ExprKind kind;

  /// Deep copy (unbound state is preserved; bound slots are copied too).
  virtual std::unique_ptr<Expr> Clone() const = 0;

  /// Unparses to SQL text (used by the MINE RULE translator when embedding
  /// user conditions into generated queries, and in error messages).
  virtual std::string ToSql() const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  Value value;
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value);
  }
  std::string ToSql() const override { return value.ToSqlLiteral(); }
};

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string qual, std::string col)
      : Expr(ExprKind::kColumnRef),
        qualifier(std::move(qual)),
        column(std::move(col)) {}
  std::string qualifier;  // table alias; empty if unqualified
  std::string column;
  // Filled by the binder.
  int bound_index = -1;
  DataType bound_type = DataType::kNull;

  ExprPtr Clone() const override {
    auto copy = std::make_unique<ColumnRefExpr>(qualifier, column);
    copy->bound_index = bound_index;
    copy->bound_type = bound_type;
    return copy;
  }
  std::string ToSql() const override {
    return qualifier.empty() ? column : qualifier + "." + column;
  }
};

/// A direct reference to a position of the input row; produced by the
/// planner when rewriting post-aggregation expressions.
struct SlotRefExpr : Expr {
  SlotRefExpr(int idx, DataType t, std::string display)
      : Expr(ExprKind::kSlotRef),
        index(idx),
        type(t),
        display_name(std::move(display)) {}
  int index;
  DataType type;
  std::string display_name;

  ExprPtr Clone() const override {
    return std::make_unique<SlotRefExpr>(index, type, display_name);
  }
  std::string ToSql() const override { return display_name; }
};

struct HostVarExpr : Expr {
  explicit HostVarExpr(std::string n)
      : Expr(ExprKind::kHostVar), name(std::move(n)) {}
  std::string name;
  ExprPtr Clone() const override {
    return std::make_unique<HostVarExpr>(name);
  }
  std::string ToSql() const override { return ":" + name; }
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  UnaryOp op;
  ExprPtr operand;
  ExprPtr Clone() const override {
    return std::make_unique<UnaryExpr>(op, operand->Clone());
  }
  std::string ToSql() const override {
    return (op == UnaryOp::kNot ? "NOT (" : "-(") + operand->ToSql() + ")";
  }
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
  ExprPtr Clone() const override {
    return std::make_unique<BinaryExpr>(op, lhs->Clone(), rhs->Clone());
  }
  std::string ToSql() const override;
};

struct BetweenExpr : Expr {
  BetweenExpr(ExprPtr e, ExprPtr l, ExprPtr h, bool neg)
      : Expr(ExprKind::kBetween),
        operand(std::move(e)),
        low(std::move(l)),
        high(std::move(h)),
        negated(neg) {}
  ExprPtr operand;
  ExprPtr low;
  ExprPtr high;
  bool negated;
  ExprPtr Clone() const override {
    return std::make_unique<BetweenExpr>(operand->Clone(), low->Clone(),
                                         high->Clone(), negated);
  }
  std::string ToSql() const override {
    return operand->ToSql() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
           low->ToSql() + " AND " + high->ToSql();
  }
};

struct InListExpr : Expr {
  InListExpr(ExprPtr e, std::vector<ExprPtr> l, bool neg)
      : Expr(ExprKind::kInList),
        operand(std::move(e)),
        list(std::move(l)),
        negated(neg) {}
  ExprPtr operand;
  std::vector<ExprPtr> list;
  bool negated;
  ExprPtr Clone() const override;
  std::string ToSql() const override;
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr e, bool neg)
      : Expr(ExprKind::kIsNull), operand(std::move(e)), negated(neg) {}
  ExprPtr operand;
  bool negated;
  ExprPtr Clone() const override {
    return std::make_unique<IsNullExpr>(operand->Clone(), negated);
  }
  std::string ToSql() const override {
    return operand->ToSql() + (negated ? " IS NOT NULL" : " IS NULL");
  }
};

struct FunctionExpr : Expr {
  FunctionExpr(std::string n, std::vector<ExprPtr> a)
      : Expr(ExprKind::kFunction), name(std::move(n)), args(std::move(a)) {}
  std::string name;  // normalized upper-case
  std::vector<ExprPtr> args;
  ExprPtr Clone() const override;
  std::string ToSql() const override;
};

struct AggregateExpr : Expr {
  AggregateExpr(AggFunc f, bool dist, ExprPtr a)
      : Expr(ExprKind::kAggregate),
        func(f),
        distinct(dist),
        arg(std::move(a)) {}
  AggFunc func;
  bool distinct;
  ExprPtr arg;  // null for COUNT(*)
  ExprPtr Clone() const override {
    return std::make_unique<AggregateExpr>(func, distinct,
                                           arg ? arg->Clone() : nullptr);
  }
  std::string ToSql() const override;
};

struct NextValExpr : Expr {
  explicit NextValExpr(std::string seq)
      : Expr(ExprKind::kNextVal), sequence(std::move(seq)) {}
  std::string sequence;
  ExprPtr Clone() const override {
    return std::make_unique<NextValExpr>(sequence);
  }
  std::string ToSql() const override { return sequence + ".NEXTVAL"; }
};

struct StarExpr : Expr {
  StarExpr() : Expr(ExprKind::kStar) {}
  ExprPtr Clone() const override { return std::make_unique<StarExpr>(); }
  std::string ToSql() const override { return "*"; }
};

/// Structural equality of expression trees (compares unbound shape: kinds,
/// operators, names case-insensitively, literal values). Used to match
/// SELECT/HAVING subexpressions against GROUP BY keys.
bool ExprEquals(const Expr& a, const Expr& b);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct SelectStmt;

/// An element of the FROM list: a base relation (table or view) or a
/// parenthesized subquery, optionally aliased.
struct TableRef {
  enum class Kind { kBase, kSubquery };
  Kind kind = Kind::kBase;
  std::string name;   // base relation name
  std::string alias;  // effective alias (defaults to name for base tables)
  std::unique_ptr<SelectStmt> subquery;
};

/// SELECT-list item: expression with optional alias, or a star ("*", "T.*").
struct SelectItem {
  ExprPtr expr;           // null when is_star
  std::string alias;      // empty = derive from expression
  bool is_star = false;
  std::string star_qualifier;  // for "T.*"
};

struct OrderItem {
  ExprPtr expr;  // may be an integer literal = output ordinal
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::string into_host_var;  // SELECT ... INTO :var (scalar results)
  std::vector<TableRef> from;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct CreateTableStmt {
  std::string name;
  std::vector<Column> columns;    // empty when created from a query
  std::unique_ptr<SelectStmt> as_select;  // CREATE TABLE ... AS SELECT
};

struct CreateViewStmt {
  std::string name;
  std::string select_sql;  // original text of the view body
};

struct CreateSequenceStmt {
  std::string name;
  int64_t start = 1;
};

struct DropStmt {
  enum class ObjectKind { kTable, kView, kSequence };
  ObjectKind object_kind = ObjectKind::kTable;
  std::string name;
  bool if_exists = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // optional explicit column list
  std::unique_ptr<SelectStmt> select;             // INSERT ... SELECT
  std::vector<std::vector<ExprPtr>> values_rows;  // INSERT ... VALUES
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // null = delete all
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // null = update all rows
};

/// A single parsed SQL statement (tagged union by unique ownership).
struct Statement;

/// EXPLAIN [ANALYZE] <statement>. Without ANALYZE the target is only
/// planned; with ANALYZE its plan is executed (side effects of INSERT /
/// CREATE TABLE AS are *not* applied — only the inner SELECT runs).
struct ExplainStmt {
  bool analyze = false;
  std::unique_ptr<Statement> target;
};

struct Statement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kCreateView,
    kCreateSequence,
    kDrop,
    kInsert,
    kDelete,
    kUpdate,
    kExplain,
  };
  Kind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<CreateSequenceStmt> create_sequence;
  std::unique_ptr<DropStmt> drop;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<ExplainStmt> explain;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_AST_H_
