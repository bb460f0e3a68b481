#include "fuzz/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "sql/statement_registry.h"
#include "sql/system_tables.h"
#include "decoupled/decoupled_miner.h"
#include "engine/data_mining_system.h"
#include "minerule/parser.h"
#include "minerule/translator.h"
#include "mining/simple_miner.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/ast.h"

namespace minerule::fuzz {

namespace {

using mr::MineRuleStatement;

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Truncate(const std::string& s, size_t limit = 500) {
  if (s.size() <= limit) return s;
  return s.substr(0, limit) + "...[" + std::to_string(s.size()) + " bytes]";
}

// ---------------------------------------------------------------------------
// Independent mini expression evaluator (reference route). Deliberately NOT
// the SQL engine's evaluator: it reimplements the three-valued logic and
// aggregate semantics straight from the SQL92 rules, so a bug in
// sql/expr_eval.cc cannot cancel itself out in the comparison. Unsupported
// constructs make the reference route skip, never silently mis-evaluate.
// ---------------------------------------------------------------------------

Result<Value> Eval(const sql::Expr& e, const Schema& schema, const Row& row,
                   const std::vector<const Row*>* group_rows);

Result<Value> EvalAggregate(const sql::AggregateExpr& agg,
                            const Schema& schema,
                            const std::vector<const Row*>& rows) {
  std::vector<Value> args;
  if (agg.arg != nullptr) {
    for (const Row* row : rows) {
      MR_ASSIGN_OR_RETURN(Value v, Eval(*agg.arg, schema, *row, nullptr));
      if (!v.is_null()) args.push_back(std::move(v));
    }
    if (agg.distinct) {
      std::sort(args.begin(), args.end(),
                [](const Value& a, const Value& b) { return a.TotalLess(b); });
      args.erase(std::unique(args.begin(), args.end(),
                             [](const Value& a, const Value& b) {
                               return a.TotalEquals(b);
                             }),
                 args.end());
    }
  }
  switch (agg.func) {
    case sql::AggFunc::kCountStar:
      return Value::Integer(static_cast<int64_t>(rows.size()));
    case sql::AggFunc::kCount:
      return Value::Integer(static_cast<int64_t>(args.size()));
    case sql::AggFunc::kSum:
    case sql::AggFunc::kAvg: {
      if (args.empty()) return Value::Null();
      bool any_double = false;
      int64_t isum = 0;
      double dsum = 0;
      for (const Value& v : args) {
        if (v.type() == DataType::kDouble) {
          any_double = true;
        } else if (v.type() != DataType::kInteger) {
          return Status::TypeError("SUM/AVG over non-numeric value");
        }
        dsum += v.AsDouble();
        if (v.type() == DataType::kInteger) isum += v.AsInteger();
      }
      if (agg.func == sql::AggFunc::kAvg) {
        return Value::Double(dsum / static_cast<double>(args.size()));
      }
      return any_double ? Value::Double(dsum) : Value::Integer(isum);
    }
    case sql::AggFunc::kMin:
    case sql::AggFunc::kMax: {
      if (args.empty()) return Value::Null();
      Value best = args[0];
      for (size_t i = 1; i < args.size(); ++i) {
        MR_ASSIGN_OR_RETURN(int cmp, args[i].SqlCompare(best));
        if ((agg.func == sql::AggFunc::kMin) ? cmp < 0 : cmp > 0) {
          best = args[i];
        }
      }
      return best;
    }
  }
  return Status::Unimplemented("aggregate");
}

/// SQL three-valued boolean from a comparison result.
Value Bool3(bool v) { return Value::Boolean(v); }

Result<Value> EvalCompare(sql::BinaryOp op, const Value& lhs,
                          const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == sql::BinaryOp::kEq || op == sql::BinaryOp::kNotEq) {
    MR_ASSIGN_OR_RETURN(bool eq, lhs.SqlEquals(rhs));
    return Bool3(op == sql::BinaryOp::kEq ? eq : !eq);
  }
  MR_ASSIGN_OR_RETURN(int cmp, lhs.SqlCompare(rhs));
  switch (op) {
    case sql::BinaryOp::kLess:
      return Bool3(cmp < 0);
    case sql::BinaryOp::kLessEq:
      return Bool3(cmp <= 0);
    case sql::BinaryOp::kGreater:
      return Bool3(cmp > 0);
    case sql::BinaryOp::kGreaterEq:
      return Bool3(cmp >= 0);
    default:
      return Status::Unimplemented("comparison");
  }
}

Result<Value> Eval(const sql::Expr& e, const Schema& schema, const Row& row,
                   const std::vector<const Row*>* group_rows) {
  switch (e.kind) {
    case sql::ExprKind::kLiteral:
      return static_cast<const sql::LiteralExpr&>(e).value;
    case sql::ExprKind::kColumnRef: {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(e);
      const int idx = schema.FindColumn(ref.column);
      if (idx < 0) {
        return Status::NotFound("mini-eval: unknown column " + ref.column);
      }
      return row[idx];
    }
    case sql::ExprKind::kUnary: {
      const auto& u = static_cast<const sql::UnaryExpr&>(e);
      MR_ASSIGN_OR_RETURN(Value v, Eval(*u.operand, schema, row, group_rows));
      if (v.is_null()) return Value::Null();
      if (u.op == sql::UnaryOp::kNot) {
        if (v.type() != DataType::kBoolean) {
          return Status::TypeError("NOT over non-boolean");
        }
        return Bool3(!v.AsBoolean());
      }
      if (v.type() == DataType::kInteger) {
        return Value::Integer(-v.AsInteger());
      }
      if (v.type() == DataType::kDouble) return Value::Double(-v.AsDouble());
      return Status::TypeError("negate over non-numeric");
    }
    case sql::ExprKind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      MR_ASSIGN_OR_RETURN(Value lhs, Eval(*b.lhs, schema, row, group_rows));
      MR_ASSIGN_OR_RETURN(Value rhs, Eval(*b.rhs, schema, row, group_rows));
      if (b.op == sql::BinaryOp::kAnd || b.op == sql::BinaryOp::kOr) {
        auto truth = [](const Value& v) -> Result<int> {  // 0/1/2=unknown
          if (v.is_null()) return 2;
          if (v.type() != DataType::kBoolean) {
            return Status::TypeError("AND/OR over non-boolean");
          }
          return v.AsBoolean() ? 1 : 0;
        };
        MR_ASSIGN_OR_RETURN(int l, truth(lhs));
        MR_ASSIGN_OR_RETURN(int r, truth(rhs));
        if (b.op == sql::BinaryOp::kAnd) {
          if (l == 0 || r == 0) return Bool3(false);
          if (l == 2 || r == 2) return Value::Null();
          return Bool3(true);
        }
        if (l == 1 || r == 1) return Bool3(true);
        if (l == 2 || r == 2) return Value::Null();
        return Bool3(false);
      }
      return EvalCompare(b.op, lhs, rhs);
    }
    case sql::ExprKind::kBetween: {
      const auto& b = static_cast<const sql::BetweenExpr&>(e);
      MR_ASSIGN_OR_RETURN(Value v, Eval(*b.operand, schema, row, group_rows));
      MR_ASSIGN_OR_RETURN(Value lo, Eval(*b.low, schema, row, group_rows));
      MR_ASSIGN_OR_RETURN(Value hi, Eval(*b.high, schema, row, group_rows));
      MR_ASSIGN_OR_RETURN(Value ge,
                          EvalCompare(sql::BinaryOp::kGreaterEq, v, lo));
      MR_ASSIGN_OR_RETURN(Value le, EvalCompare(sql::BinaryOp::kLessEq, v, hi));
      Value both;
      if ((!ge.is_null() && !ge.AsBoolean()) ||
          (!le.is_null() && !le.AsBoolean())) {
        both = Bool3(false);
      } else if (ge.is_null() || le.is_null()) {
        both = Value::Null();
      } else {
        both = Bool3(true);
      }
      if (!b.negated || both.is_null()) return both;
      return Bool3(!both.AsBoolean());
    }
    case sql::ExprKind::kInList: {
      const auto& in = static_cast<const sql::InListExpr&>(e);
      MR_ASSIGN_OR_RETURN(Value v, Eval(*in.operand, schema, row, group_rows));
      if (v.is_null()) return Value::Null();
      bool saw_null = false;
      bool found = false;
      for (const sql::ExprPtr& item : in.list) {
        MR_ASSIGN_OR_RETURN(Value c, Eval(*item, schema, row, group_rows));
        if (c.is_null()) {
          saw_null = true;
          continue;
        }
        MR_ASSIGN_OR_RETURN(bool eq, v.SqlEquals(c));
        if (eq) {
          found = true;
          break;
        }
      }
      Value base = found ? Bool3(true)
                         : (saw_null ? Value::Null() : Bool3(false));
      if (!in.negated || base.is_null()) return base;
      return Bool3(!base.AsBoolean());
    }
    case sql::ExprKind::kIsNull: {
      const auto& n = static_cast<const sql::IsNullExpr&>(e);
      MR_ASSIGN_OR_RETURN(Value v, Eval(*n.operand, schema, row, group_rows));
      return Bool3(n.negated ? !v.is_null() : v.is_null());
    }
    case sql::ExprKind::kAggregate: {
      if (group_rows == nullptr) {
        return Status::Unimplemented("aggregate outside group context");
      }
      return EvalAggregate(static_cast<const sql::AggregateExpr&>(e), schema,
                           *group_rows);
    }
    default:
      return Status::Unimplemented("mini-eval: unsupported node " + e.ToSql());
  }
}

/// WHERE/HAVING truth: only a non-null TRUE keeps the row/group.
Result<bool> EvalPredicate(const sql::Expr& e, const Schema& schema,
                           const Row& row,
                           const std::vector<const Row*>* group_rows) {
  MR_ASSIGN_OR_RETURN(Value v, Eval(e, schema, row, group_rows));
  if (v.is_null()) return false;
  if (v.type() != DataType::kBoolean) {
    return Status::TypeError("predicate is not boolean");
  }
  return v.AsBoolean();
}

// ---------------------------------------------------------------------------
// Canonical decoding of the three output tables.
// ---------------------------------------------------------------------------

std::string RuleLine(std::vector<std::string> body,
                     std::vector<std::string> head, const double* support,
                     const double* confidence) {
  std::sort(body.begin(), body.end());
  std::sort(head.begin(), head.end());
  std::string line = "{" + Join(body, "; ") + "} => {" + Join(head, "; ") +
                     "}";
  if (support != nullptr) line += " s=" + FormatDouble(*support);
  if (confidence != nullptr) line += " c=" + FormatDouble(*confidence);
  return line;
}

/// id -> sorted element strings of one side table (Bodies/Heads).
Result<std::map<int64_t, std::vector<std::string>>> LoadSide(
    Catalog* catalog, const std::string& table_name) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog->GetTable(table_name));
  std::map<int64_t, std::vector<std::string>> sides;
  for (const Row& row : table->rows()) {
    if (row.empty() || row[0].type() != DataType::kInteger) {
      return Status::Internal("side table without integer id: " + table_name);
    }
    std::vector<std::string> parts;
    for (size_t i = 1; i < row.size(); ++i) parts.push_back(row[i].ToString());
    sides[row[0].AsInteger()].push_back(Join(parts, "|"));
  }
  for (auto& [id, rows] : sides) std::sort(rows.begin(), rows.end());
  return sides;
}

/// Sorted canonical rule lines decoded from the output catalog.
Result<std::vector<std::string>> DecodeCanonicalRules(
    Catalog* catalog, const std::string& out_table, bool select_support,
    bool select_confidence) {
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> out,
                      catalog->GetTable(out_table));
  MR_ASSIGN_OR_RETURN(auto bodies, LoadSide(catalog, out_table + "_Bodies"));
  MR_ASSIGN_OR_RETURN(auto heads, LoadSide(catalog, out_table + "_Heads"));
  const int sup_col = out->schema().FindColumn("SUPPORT");
  const int conf_col = out->schema().FindColumn("CONFIDENCE");
  std::vector<std::string> lines;
  for (const Row& row : out->rows()) {
    const int64_t bid = row[0].AsInteger();
    const int64_t hid = row[1].AsInteger();
    auto b = bodies.find(bid);
    auto h = heads.find(hid);
    std::vector<std::string> body =
        b == bodies.end() ? std::vector<std::string>{"<missing Bid " +
                                                     std::to_string(bid) + ">"}
                          : b->second;
    std::vector<std::string> head =
        h == heads.end() ? std::vector<std::string>{"<missing Hid " +
                                                    std::to_string(hid) + ">"}
                         : h->second;
    double sup = 0, conf = 0;
    const double* sup_ptr = nullptr;
    const double* conf_ptr = nullptr;
    if (select_support && sup_col >= 0 && !row[sup_col].is_null()) {
      sup = row[sup_col].AsDouble();
      sup_ptr = &sup;
    }
    if (select_confidence && conf_col >= 0 && !row[conf_col].is_null()) {
      conf = row[conf_col].AsDouble();
      conf_ptr = &conf;
    }
    lines.push_back(RuleLine(std::move(body), std::move(head), sup_ptr,
                             conf_ptr));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// ---------------------------------------------------------------------------
// Pipeline route.
// ---------------------------------------------------------------------------

struct PipelineRun {
  bool ok = false;
  std::string error;
  std::unique_ptr<Catalog> catalog;
  std::string dump;                // byte dump, natural row order
  std::vector<std::string> rules;  // canonical decoded rules, sorted
  int64_t num_rules = 0;
  int64_t total_groups = 0;
  mr::Directives directives;
  /// Observability invariant inputs (DESIGN.md §11): how many mr_runs rows
  /// this execution appended and how many phase-category spans it traced.
  int64_t runs_recorded = 0;
  int64_t phase_spans = 0;
};

std::string DumpTable(Catalog* catalog, const std::string& name) {
  Result<std::shared_ptr<Table>> table = catalog->GetTable(name);
  if (!table.ok()) return "== " + name + " MISSING ==\n";
  std::string out = "== " + name + " (";
  const Schema& schema = (*table)->schema();
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) out += ", ";
    out += schema.column(i).name;
    out += ' ';
    out += DataTypeName(schema.column(i).type);
  }
  out += ") ==\n";
  for (const Row& row : (*table)->rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += '|';
      out += row[i].ToString();
    }
    out += '\n';
  }
  return out;
}

Result<PipelineRun> RunPipeline(const WorkloadSpec& spec,
                                const std::string& statement,
                                const mr::MiningOptions& options) {
  PipelineRun run;
  run.catalog = std::make_unique<Catalog>();
  MR_RETURN_IF_ERROR(BuildWorkload(run.catalog.get(), spec).status());
  mr::DataMiningSystem system(run.catalog.get());
  // Trace the run so the oracle can check the observability invariants:
  // exactly one mr_runs row per execution, and a phase-span structure that
  // does not depend on the thread count.
  SpanTracer& tracer = GlobalTracer();
  const bool tracing_was_on = tracer.enabled();
  tracer.Clear();
  tracer.Enable(true);
  const int64_t runs_before = sql::GlobalObservability().run_count();
  Result<mr::MiningRunStats> stats =
      system.ExecuteMineRule(statement, options);
  tracer.Enable(tracing_was_on);
  run.runs_recorded = sql::GlobalObservability().run_count() - runs_before;
  for (const SpanEvent& event : tracer.Snapshot()) {
    if (std::strcmp(event.category, "phase") == 0) ++run.phase_spans;
  }
  tracer.Clear();
  if (!stats.ok()) {
    run.error = stats.status().ToString();
    return run;
  }
  run.ok = true;
  run.num_rules = stats->output.num_rules;
  run.total_groups = stats->total_groups;
  run.directives = stats->directives;
  const std::string& out = stats->output.rules_table;
  run.dump = "directives=" + stats->directives.ToString() +
             " totg=" + std::to_string(stats->total_groups) + "\n";
  run.dump += DumpTable(run.catalog.get(), out);
  run.dump += DumpTable(run.catalog.get(), stats->output.bodies_table);
  run.dump += DumpTable(run.catalog.get(), stats->output.heads_table);
  MR_ASSIGN_OR_RETURN(MineRuleStatement stmt, mr::ParseMineRule(statement));
  MR_ASSIGN_OR_RETURN(run.rules,
                      DecodeCanonicalRules(run.catalog.get(), out,
                                           stmt.select_support,
                                           stmt.select_confidence));
  return run;
}

// ---------------------------------------------------------------------------
// Reference route: an independent evaluation of the simple-class semantics
// (§4.2.1 preprocessing + §4.3.1 core) straight from the statement, the raw
// rows and the brute-force ReferenceMiner.
// ---------------------------------------------------------------------------

struct RowTotalLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (a[i].TotalLess(b[i])) return true;
      if (b[i].TotalLess(a[i])) return false;
    }
    return a.size() < b.size();
  }
};

struct ValueTotalLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.TotalLess(b);
  }
};

constexpr int64_t kMaxReferenceItems = 18;  // ReferenceMiner caps at 20

/// Returns the canonical rule lines, or nullopt with *skip_reason set when
/// the statement/workload is outside the reference oracle's envelope.
Result<std::optional<std::vector<std::string>>> RunReferenceRoute(
    const WorkloadSpec& spec, const MineRuleStatement& stmt,
    std::string* skip_reason) {
  Catalog catalog;
  MR_RETURN_IF_ERROR(BuildWorkload(&catalog, spec).status());
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog.GetTable(stmt.from[0].name));
  const Schema& schema = table->schema();

  // Source condition.
  std::vector<const Row*> rows;
  for (const Row& row : table->rows()) {
    if (stmt.source_cond != nullptr) {
      Result<bool> keep =
          EvalPredicate(*stmt.source_cond, schema, row, nullptr);
      if (!keep.ok()) {
        *skip_reason = "source cond: " + keep.status().ToString();
        return std::optional<std::vector<std::string>>();
      }
      if (!*keep) continue;
    }
    rows.push_back(&row);
  }

  // Grouping. totg counts every distinct group tuple (Q1 runs before
  // HAVING); the group condition then selects the valid groups.
  std::vector<int> group_cols;
  for (const std::string& attr : stmt.group_attrs) {
    const int idx = schema.FindColumn(attr);
    if (idx < 0) return Status::Internal("group attr missing: " + attr);
    group_cols.push_back(idx);
  }
  std::map<Row, std::vector<const Row*>, RowTotalLess> groups;
  for (const Row* row : rows) {
    Row key;
    for (int idx : group_cols) key.push_back((*row)[idx]);
    groups[std::move(key)].push_back(row);
  }
  const int64_t totg = static_cast<int64_t>(groups.size());

  const int body_col = schema.FindColumn(stmt.body_schema[0]);
  if (body_col < 0) {
    return Status::Internal("body attr missing: " + stmt.body_schema[0]);
  }

  // Valid groups -> transactions (distinct non-NULL body values; NULLs and
  // NULL group keys never survive the preprocessor's equijoins).
  std::vector<mining::Itemset> transactions_values;
  std::map<Value, mining::ItemId, ValueTotalLess> dictionary;
  std::vector<std::vector<Value>> group_values;
  for (const auto& [key, members] : groups) {
    if (stmt.group_cond != nullptr) {
      Result<bool> keep =
          EvalPredicate(*stmt.group_cond, schema, *members[0], &members);
      if (!keep.ok()) {
        *skip_reason = "group cond: " + keep.status().ToString();
        return std::optional<std::vector<std::string>>();
      }
      if (!*keep) continue;
    }
    bool null_key = false;
    for (const Value& v : key) null_key = null_key || v.is_null();
    if (null_key) continue;  // the S = V equijoin drops NULL keys
    std::set<Value, ValueTotalLess> values;
    for (const Row* row : members) {
      const Value& v = (*row)[body_col];
      if (!v.is_null()) values.insert(v);
    }
    group_values.push_back(
        std::vector<Value>(values.begin(), values.end()));
  }
  std::set<Value, ValueTotalLess> domain;
  for (const auto& values : group_values) {
    for (const Value& v : values) domain.insert(v);
  }
  if (static_cast<int64_t>(domain.size()) > kMaxReferenceItems) {
    *skip_reason =
        "item domain too large: " + std::to_string(domain.size());
    return std::optional<std::vector<std::string>>();
  }
  std::vector<Value> decode;
  decode.push_back(Value::Null());  // ids start at 1
  for (const Value& v : domain) {
    dictionary[v] = static_cast<mining::ItemId>(decode.size());
    decode.push_back(v);
  }
  std::vector<mining::Itemset> transactions;
  for (const auto& values : group_values) {
    mining::Itemset txn;
    for (const Value& v : values) txn.push_back(dictionary[v]);
    transactions.push_back(std::move(txn));
  }

  mining::TransactionDb db =
      mining::TransactionDb::FromTransactions(std::move(transactions), totg);
  MR_ASSIGN_OR_RETURN(
      std::vector<mining::MinedRule> mined,
      mining::MineSimpleRules(db, stmt.min_support, stmt.min_confidence,
                              stmt.body_card, stmt.head_card,
                              mining::SimpleAlgorithm::kReference));
  std::vector<std::string> lines;
  for (const mining::MinedRule& rule : mined) {
    std::vector<std::string> body, head;
    for (mining::ItemId item : rule.body) {
      body.push_back(decode[item].ToString());
    }
    for (mining::ItemId item : rule.head) {
      head.push_back(decode[item].ToString());
    }
    const double sup = rule.Support(totg);
    const double conf = rule.Confidence();
    lines.push_back(RuleLine(std::move(body), std::move(head),
                             stmt.select_support ? &sup : nullptr,
                             stmt.select_confidence ? &conf : nullptr));
  }
  std::sort(lines.begin(), lines.end());
  return std::optional<std::vector<std::string>>(std::move(lines));
}

// ---------------------------------------------------------------------------
// Metamorphic variants.
// ---------------------------------------------------------------------------

bool MentionsOne(const MineRuleStatement& stmt) {
  auto has = [](const std::vector<std::string>& attrs) {
    return std::find(attrs.begin(), attrs.end(), "one") != attrs.end();
  };
  return has(stmt.body_schema) || has(stmt.head_schema) ||
         has(stmt.group_attrs) || has(stmt.cluster_attrs);
}

/// Builds the metamorphic variant texts applicable to `stmt`. Each variant
/// must leave the mined rules untouched: a tautological mining condition, a
/// constant single cluster, an always-true cluster condition, and an
/// always-true aggregate cluster condition.
std::vector<std::pair<std::string, std::string>> MetamorphicVariants(
    const MineRuleStatement& stmt) {
  std::vector<std::pair<std::string, std::string>> variants;
  if (MentionsOne(stmt)) return variants;
  const std::string canonical = stmt.ToString();
  if (stmt.mining_cond == nullptr) {
    std::string attr;
    for (const std::string& a : stmt.body_schema) {
      if (a == "item" || a == "qty") attr = a;
    }
    if (!attr.empty()) {
      const size_t from = canonical.find("\nFROM ");
      if (from != std::string::npos) {
        variants.emplace_back(
            "meta-M", canonical.substr(0, from) + "\nWHERE BODY." + attr +
                          " = BODY." + attr + canonical.substr(from));
      }
    }
  }
  if (stmt.cluster_attrs.empty()) {
    const size_t extracting = canonical.find("\nEXTRACTING ");
    if (extracting != std::string::npos) {
      auto insert = [&](const std::string& name, const std::string& clause) {
        variants.emplace_back(name, canonical.substr(0, extracting) + "\n" +
                                        clause +
                                        canonical.substr(extracting));
      };
      insert("meta-C", "CLUSTER BY one");
      insert("meta-K", "CLUSTER BY one HAVING BODY.one = HEAD.one");
      insert("meta-F", "CLUSTER BY one HAVING SUM(BODY.one) >= 1");
    }
  }
  return variants;
}

std::string DiffRules(const std::vector<std::string>& a,
                      const std::vector<std::string>& b) {
  std::vector<std::string> only_a, only_b;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_a));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_b));
  std::string out = std::to_string(a.size()) + " vs " +
                    std::to_string(b.size()) + " rules";
  if (!only_a.empty()) {
    out += "; only in baseline: " + Truncate(Join(only_a, " ; "), 300);
  }
  if (!only_b.empty()) {
    out += "; only in variant: " + Truncate(Join(only_b, " ; "), 300);
  }
  return out;
}

}  // namespace

Result<CaseOutcome> RunCase(const WorkloadSpec& spec,
                            const std::string& statement,
                            const OracleOptions& options) {
  CaseOutcome outcome;
  auto fail = [&](const std::string& check, const std::string& detail) {
    outcome.failures.push_back({check, Truncate(detail, 900)});
  };

  // Stage 1: parse.
  Result<MineRuleStatement> parsed = mr::ParseMineRule(statement);
  if (!parsed.ok()) {
    outcome.reject_stage = "parse";
    outcome.reject_reason = parsed.status().ToString();
    return outcome;
  }
  MineRuleStatement& stmt = *parsed;

  // Stage 2: translate against the workload's schema.
  {
    Catalog catalog;
    MR_RETURN_IF_ERROR(BuildWorkload(&catalog, spec).status());
    mr::Translator translator(&catalog);
    Result<mr::Translation> translation = translator.Translate(stmt);
    if (!translation.ok()) {
      outcome.reject_stage = "translate";
      outcome.reject_reason = translation.status().ToString();
      return outcome;
    }
    outcome.directives = translation->directives.ToString();
  }

  // Unparse round-trip: the canonical form must re-parse to the same
  // canonical form (the preprocessing cache key depends on this).
  {
    const std::string canonical = stmt.ToString();
    Result<MineRuleStatement> again = mr::ParseMineRule(canonical);
    if (!again.ok()) {
      fail("unparse-roundtrip",
           "ToString() does not re-parse: " + again.status().ToString() +
               "\ncanonical: " + canonical);
    } else if (again->ToString() != canonical) {
      fail("unparse-roundtrip", "ToString() not idempotent:\n" + canonical +
                                    "\nvs\n" + again->ToString());
    }
  }

  // Stage 3: baseline pipeline run (threads=1, default adaptive core).
  mr::MiningOptions baseline_options;
  baseline_options.num_threads = 1;
  MR_ASSIGN_OR_RETURN(PipelineRun baseline,
                      RunPipeline(spec, statement, baseline_options));
  // Observability invariant: every execution — rejected ones included —
  // appends exactly one row to the run history.
  if (baseline.runs_recorded != 1) {
    fail("observability-run-record",
         "expected exactly one mr_runs row per execution, got " +
             std::to_string(baseline.runs_recorded));
  }
  if (!baseline.ok) {
    outcome.reject_stage = "execute";
    outcome.reject_reason = baseline.error;
    return outcome;
  }
  outcome.executed = true;
  outcome.num_rules = baseline.num_rules;
  outcome.total_groups = baseline.total_groups;
  outcome.baseline_dump = baseline.dump;
  outcome.routes.push_back("pipeline@1");
  const mr::Directives d = baseline.directives;

  // Observability invariant: a successful pipeline traces one span per
  // stage — translate, preprocess, core, postprocess.
  if (baseline.phase_spans != 4) {
    fail("observability-phase-spans",
         "expected 4 phase spans, got " +
             std::to_string(baseline.phase_spans));
  }

  // Invariants of the baseline output.
  {
    Result<std::shared_ptr<Table>> out =
        baseline.catalog->GetTable(stmt.output_table);
    if (!out.ok()) {
      fail("invariant-output", "output table missing after success");
    } else {
      if (static_cast<int64_t>((*out)->num_rows()) != baseline.num_rules) {
        fail("invariant-count",
             "num_rules=" + std::to_string(baseline.num_rules) + " but " +
                 std::to_string((*out)->num_rows()) + " output rows");
      }
      const int sup_col = (*out)->schema().FindColumn("SUPPORT");
      const int conf_col = (*out)->schema().FindColumn("CONFIDENCE");
      if (stmt.select_support != (sup_col >= 0) ||
          stmt.select_confidence != (conf_col >= 0)) {
        fail("invariant-schema", "SUPPORT/CONFIDENCE column selection "
                                 "mismatch in output schema");
      }
      std::set<std::pair<int64_t, int64_t>> seen;
      Result<std::map<int64_t, std::vector<std::string>>> bodies =
          LoadSide(baseline.catalog.get(), stmt.output_table + "_Bodies");
      Result<std::map<int64_t, std::vector<std::string>>> heads =
          LoadSide(baseline.catalog.get(), stmt.output_table + "_Heads");
      if (!bodies.ok() || !heads.ok()) {
        fail("invariant-decode", "Bodies/Heads table unreadable");
      } else {
        for (const Row& row : (*out)->rows()) {
          const int64_t bid = row[0].AsInteger();
          const int64_t hid = row[1].AsInteger();
          if (!seen.insert({bid, hid}).second) {
            fail("invariant-duplicate-rule",
                 "duplicate (BodyId, HeadId) = (" + std::to_string(bid) +
                     ", " + std::to_string(hid) + ")");
          }
          auto b = bodies->find(bid);
          auto h = heads->find(hid);
          if (b == bodies->end() || h == heads->end()) {
            fail("invariant-referential",
                 "rule references missing BodyId/HeadId " +
                     std::to_string(bid) + "/" + std::to_string(hid));
            continue;
          }
          if (!stmt.body_card.Allows(b->second.size())) {
            fail("invariant-cardinality",
                 "body size " + std::to_string(b->second.size()) +
                     " outside " + std::to_string(stmt.body_card.min) +
                     ".." + std::to_string(stmt.body_card.max));
          }
          if (!stmt.head_card.Allows(h->second.size())) {
            fail("invariant-cardinality",
                 "head size " + std::to_string(h->second.size()) +
                     " outside " + std::to_string(stmt.head_card.min) +
                     ".." + std::to_string(stmt.head_card.max));
          }
          if (sup_col >= 0 && !row[sup_col].is_null()) {
            const double sup = row[sup_col].AsDouble();
            if (sup < stmt.min_support - 1e-12 || sup > 1.0 + 1e-12) {
              fail("invariant-support-bounds",
                   "support " + FormatDouble(sup) + " outside [" +
                       FormatDouble(stmt.min_support) + ", 1]");
            }
            const double scaled =
                sup * static_cast<double>(baseline.total_groups);
            if (std::abs(scaled - std::llround(scaled)) > 1e-6) {
              fail("invariant-support-integral",
                   "support " + FormatDouble(sup) + " * totg " +
                       std::to_string(baseline.total_groups) +
                       " is not an integral group count");
            }
          }
          if (conf_col >= 0 && !row[conf_col].is_null()) {
            const double conf = row[conf_col].AsDouble();
            if (conf < stmt.min_confidence - 1e-12 || conf > 1.0 + 1e-12) {
              fail("invariant-confidence-bounds",
                   "confidence " + FormatDouble(conf) + " outside [" +
                       FormatDouble(stmt.min_confidence) + ", 1]");
            }
          }
        }
      }
    }
  }

  // Route: identical bytes at a higher thread count.
  if (options.threads > 1) {
    mr::MiningOptions threaded = baseline_options;
    threaded.num_threads = options.threads;
    MR_ASSIGN_OR_RETURN(PipelineRun run,
                        RunPipeline(spec, statement, threaded));
    outcome.routes.push_back("pipeline@" + std::to_string(options.threads));
    if (!run.ok) {
      fail("thread-determinism",
           "threads=" + std::to_string(options.threads) +
               " failed where threads=1 succeeded: " + run.error);
    } else if (run.dump != baseline.dump) {
      fail("thread-determinism",
           "output differs at threads=" + std::to_string(options.threads) +
               "\n--- threads=1 ---\n" + Truncate(baseline.dump) +
               "\n--- threads=N ---\n" + Truncate(run.dump));
    } else if (run.phase_spans != baseline.phase_spans) {
      // The span structure is part of the determinism contract: the same
      // four stages happen no matter how many workers run inside them.
      fail("observability-span-stability",
           "phase span count changed with the thread count: " +
               std::to_string(baseline.phase_spans) + " at threads=1 vs " +
               std::to_string(run.phase_spans) + " at threads=" +
               std::to_string(options.threads));
    } else if (run.runs_recorded != 1) {
      fail("observability-run-record",
           "threaded execution appended " +
               std::to_string(run.runs_recorded) + " mr_runs rows");
    }
  }

  // Route: identical bytes under a tiny memory budget (DESIGN.md §13) —
  // every buffering operator in the generated queries spills to disk —
  // serial and at the sweep width.
  if (options.run_memory_budget) {
    std::vector<int> widths = {1};
    if (options.threads > 1) widths.push_back(options.threads);
    for (int threads : widths) {
      mr::MiningOptions budget_options = baseline_options;
      budget_options.memory_limit = options.memory_budget_bytes;
      budget_options.num_threads = threads;
      MR_ASSIGN_OR_RETURN(PipelineRun run,
                          RunPipeline(spec, statement, budget_options));
      const std::string label =
          threads == 1 ? "memory-budget"
                       : "memory-budget@" + std::to_string(threads);
      outcome.routes.push_back(label);
      if (!run.ok) {
        fail("spill-agreement",
             label + " failed where the in-memory engine succeeded: " +
                 run.error);
      } else if (run.dump != baseline.dump) {
        fail("spill-agreement",
             label + " differs from the in-memory baseline\n--- memory ---\n" +
                 Truncate(baseline.dump) + "\n--- spilled ---\n" +
                 Truncate(run.dump));
      }
    }
  }

  // Route: identical bytes under cost-based SQL planning (DESIGN.md §14) —
  // join reordering, build-side swaps and execution tuning in the generated
  // queries — serial and at the sweep width.
  if (options.run_cost_based) {
    std::vector<int> widths = {1};
    if (options.threads > 1) widths.push_back(options.threads);
    for (int threads : widths) {
      mr::MiningOptions cost_options = baseline_options;
      cost_options.cost_based_sql = true;
      cost_options.num_threads = threads;
      MR_ASSIGN_OR_RETURN(PipelineRun run,
                          RunPipeline(spec, statement, cost_options));
      const std::string label =
          threads == 1 ? "cost-based" : "cost-based@" + std::to_string(threads);
      outcome.routes.push_back(label);
      if (!run.ok) {
        fail("cost-agreement",
             label + " failed where the syntactic planner succeeded: " +
                 run.error);
      } else if (run.dump != baseline.dump) {
        fail("cost-agreement",
             label +
                 " differs from the syntactic-planner baseline\n"
                 "--- syntactic ---\n" +
                 Truncate(baseline.dump) + "\n--- cost-based ---\n" +
                 Truncate(run.dump));
      }
    }
  }

  // Route: the same case replayed through K server sessions racing over
  // one shared catalog (DESIGN.md §15). Every session snapshot-reads the
  // source, then runs the same MINE RULE; the catalog latch serializes the
  // write statements, so whichever session finishes last must leave the
  // output tables byte-identical to the single-session baseline — and each
  // session statement must append exactly one mr_runs row.
  if (options.run_concurrent && options.concurrent_sessions > 1) {
    const int k = options.concurrent_sessions;
    const std::string label = "concurrent@" + std::to_string(k);
    Catalog shared_catalog;
    MR_RETURN_IF_ERROR(BuildWorkload(&shared_catalog, spec).status());
    server::Server server(&shared_catalog);
    const DatasetProfile profile = ProfileFor(spec);
    const int64_t runs_before = sql::GlobalObservability().run_count();

    // Sessions live in this scope (not inside the racer lambdas) so their
    // flight recorders are still inspectable after the join.
    std::vector<std::unique_ptr<server::Session>> sessions;
    sessions.reserve(static_cast<size_t>(k));
    for (int s = 0; s < k; ++s) sessions.push_back(server.Connect());
    std::vector<std::string> errors(static_cast<size_t>(k));
    std::vector<int64_t> executed(static_cast<size_t>(k), 0);
    std::vector<mr::MiningRunStats> session_stats(static_cast<size_t>(k));
    std::vector<std::thread> racers;
    for (int s = 0; s < k; ++s) {
      racers.emplace_back([&, s] {
        server::Session* session = sessions[static_cast<size_t>(s)].get();
        ++executed[s];
        auto read = session->Execute("SELECT COUNT(*) FROM " + profile.table);
        if (!read.ok()) {
          errors[s] = "read: " + read.status().ToString();
          return;
        }
        if (read->epoch_start != read->epoch_end) {
          errors[s] = "read saw an unstable epoch: " +
                      std::to_string(read->epoch_start) + " vs " +
                      std::to_string(read->epoch_end);
          return;
        }
        ++executed[s];
        auto mined = session->Execute(statement);
        if (!mined.ok()) {
          errors[s] = "mine: " + mined.status().ToString();
          return;
        }
        session_stats[s] = std::move(mined->mining);
      });
    }
    for (std::thread& t : racers) t.join();
    outcome.routes.push_back(label);

    // Observability invariant (DESIGN.md §16): with the racers joined,
    // every session's flight recorder holds exactly the statements that
    // session executed, each with a lifecycle id and an mr_runs row.
    if (options.run_oplog) {
      outcome.routes.push_back("oplog");
      for (int s = 0; s < k; ++s) {
        const server::FlightRecorder* recorder =
            sessions[static_cast<size_t>(s)]->flight_recorder();
        if (recorder->recorded() != executed[s]) {
          fail("oplog-flight-recorder",
               label + " session " + std::to_string(s + 1) + " recorded " +
                   std::to_string(recorder->recorded()) +
                   " flight events, executed " + std::to_string(executed[s]) +
                   " statements");
          continue;
        }
        for (const server::FlightEvent& event : recorder->Events()) {
          // run_id attribution is only promised for completed statements
          // (a failing MINE RULE run keeps its mr_runs row id internal).
          if (event.statement_id <= 0 ||
              (event.status == "ok" && event.run_id <= 0)) {
            fail("oplog-flight-recorder",
                 label + " session " + std::to_string(s + 1) +
                     " flight event lacks attribution: statement_id=" +
                     std::to_string(event.statement_id) +
                     " run_id=" + std::to_string(event.run_id));
            break;
          }
        }
      }
    }

    bool all_ok = true;
    for (int s = 0; s < k; ++s) {
      if (!errors[s].empty()) {
        all_ok = false;
        fail("concurrent-agreement",
             label + " session " + std::to_string(s + 1) +
                 " failed where the single-session baseline succeeded: " +
                 errors[s]);
      } else if (session_stats[s].output.num_rules != baseline.num_rules ||
                 session_stats[s].total_groups != baseline.total_groups) {
        all_ok = false;
        fail("concurrent-agreement",
             label + " session " + std::to_string(s + 1) + " mined " +
                 std::to_string(session_stats[s].output.num_rules) +
                 " rules over " +
                 std::to_string(session_stats[s].total_groups) +
                 " groups; baseline has " +
                 std::to_string(baseline.num_rules) + " over " +
                 std::to_string(baseline.total_groups));
      }
    }
    if (all_ok) {
      // 2 statements per session (the snapshot read and the MINE RULE),
      // one mr_runs row each.
      const int64_t recorded =
          sql::GlobalObservability().run_count() - runs_before;
      if (recorded != 2 * k) {
        fail("concurrent-run-record",
             label + " appended " + std::to_string(recorded) +
                 " mr_runs rows, expected " + std::to_string(2 * k));
      }
      std::string dump = "directives=" +
                         session_stats[0].directives.ToString() + " totg=" +
                         std::to_string(session_stats[0].total_groups) + "\n";
      dump += DumpTable(&shared_catalog, session_stats[0].output.rules_table);
      dump +=
          DumpTable(&shared_catalog, session_stats[0].output.bodies_table);
      dump += DumpTable(&shared_catalog, session_stats[0].output.heads_table);
      if (dump != baseline.dump) {
        fail("concurrent-agreement",
             label + " final output differs from the single-session "
                     "baseline\n--- baseline ---\n" +
                 Truncate(baseline.dump) + "\n--- concurrent ---\n" +
                 Truncate(dump));
      }
    }
  }

  // Route: identical bytes from a rotated pool algorithm (simple class).
  if (options.run_alternate_algorithm && d.IsSimpleClass()) {
    const mining::SimpleAlgorithm pool[] = {
        mining::SimpleAlgorithm::kApriori,
        mining::SimpleAlgorithm::kAprioriTid,
        mining::SimpleAlgorithm::kDhp,
        mining::SimpleAlgorithm::kPartition,
        mining::SimpleAlgorithm::kSampling,
    };
    mr::MiningOptions alg_options = baseline_options;
    alg_options.algorithm =
        pool[DeriveStreamSeed(spec.seed, "fuzz/algorithm") % 5];
    MR_ASSIGN_OR_RETURN(PipelineRun run,
                        RunPipeline(spec, statement, alg_options));
    const std::string label =
        std::string("algorithm:") +
        mining::SimpleAlgorithmName(alg_options.algorithm);
    outcome.routes.push_back(label);
    if (!run.ok) {
      fail("algorithm-agreement", label + " failed: " + run.error);
    } else if (run.dump != baseline.dump) {
      fail("algorithm-agreement",
           label + " differs from gid-list baseline\n" +
               DiffRules(baseline.rules, run.rules));
    }
  }

  // Route: duplicated source rows must not change any rule (all pipeline
  // stages are DISTINCT-based) unless an aggregate counts raw rows (R / F).
  if (options.run_duplicate_invariance && !d.R && !d.F &&
      spec.dup_fraction < 0.5) {
    WorkloadSpec dup_spec = spec;
    dup_spec.dup_fraction = std::min(1.0, spec.dup_fraction + 0.4);
    MR_ASSIGN_OR_RETURN(PipelineRun run,
                        RunPipeline(dup_spec, statement, baseline_options));
    outcome.routes.push_back("duplicate-invariance");
    if (!run.ok) {
      fail("duplicate-invariance", "dup-perturbed run failed: " + run.error);
    } else if (run.rules != baseline.rules) {
      fail("duplicate-invariance",
           "rules changed under duplicated rows\n" +
               DiffRules(baseline.rules, run.rules));
    }
  }

  // Route: metamorphic no-op variants.
  if (options.run_metamorphic) {
    for (const auto& [name, text] : MetamorphicVariants(stmt)) {
      MR_ASSIGN_OR_RETURN(PipelineRun run,
                          RunPipeline(spec, text, baseline_options));
      outcome.routes.push_back(name);
      if (!run.ok) {
        fail(name, "variant failed to execute: " + run.error +
                       "\nvariant statement:\n" + text);
      } else if (run.rules != baseline.rules) {
        fail(name, "variant changed the rules\n" +
                       DiffRules(baseline.rules, run.rules) +
                       "\nvariant statement:\n" + text);
      }
    }
  }

  // Route: the decoupled miner (architecture baseline) on the plain
  // market-basket shape it supports.
  if (options.run_decoupled && d.IsSimpleClass() && !d.W && !d.G &&
      stmt.group_attrs.size() == 1 && stmt.body_schema.size() == 1 &&
      stmt.body_schema == stmt.head_schema && stmt.body_card.min == 1 &&
      stmt.body_card.max == -1 && stmt.head_card.min == 1 &&
      stmt.head_card.max == 1 && stmt.select_support &&
      stmt.select_confidence && stmt.body_schema[0] != "price") {
    Catalog catalog;
    MR_RETURN_IF_ERROR(BuildWorkload(&catalog, spec).status());
    sql::SqlEngine engine(&catalog);
    decoupled::DecoupledMiner miner(&engine);
    Result<decoupled::DecoupledStats> stats =
        miner.Run(stmt.from[0].name, stmt.group_attrs[0], stmt.body_schema[0],
                  stmt.min_support, stmt.min_confidence);
    outcome.routes.push_back("decoupled");
    if (!stats.ok()) {
      fail("decoupled-diff", "decoupled run failed: " +
                                 stats.status().ToString());
    } else {
      std::vector<std::string> lines;
      for (const decoupled::DecoupledRule& rule : miner.rules()) {
        lines.push_back(RuleLine(rule.body, rule.head, &rule.support,
                                 &rule.confidence));
      }
      std::sort(lines.begin(), lines.end());
      if (lines != baseline.rules) {
        fail("decoupled-diff",
             "decoupled rules differ\n" + DiffRules(baseline.rules, lines));
      }
    }
  }

  // Route: independent brute-force reference evaluation (simple class,
  // single shared body/head attribute).
  if (options.run_reference && d.IsSimpleClass() &&
      stmt.body_schema.size() == 1 && stmt.body_schema == stmt.head_schema) {
    std::string skip_reason;
    MR_ASSIGN_OR_RETURN(
        std::optional<std::vector<std::string>> reference,
        RunReferenceRoute(spec, stmt, &skip_reason));
    if (!reference.has_value()) {
      outcome.routes.push_back("reference-skipped(" + skip_reason + ")");
    } else {
      outcome.routes.push_back("reference");
      if (*reference != baseline.rules) {
        fail("reference-diff",
             "independent reference evaluation disagrees\n" +
                 DiffRules(baseline.rules, *reference));
      }
    }
  }

  // Observability invariant (DESIGN.md §16), independent of which routes
  // ran: every session this case opened is gone, so nothing may linger in
  // mr_active_statements.
  if (options.run_oplog) {
    const int64_t lingering = sql::GlobalStatementRegistry().active_count();
    if (lingering != 0) {
      fail("oplog-active-statements",
           "mr_active_statements still holds " + std::to_string(lingering) +
               " statement(s) after the case completed");
    }
  }

  return outcome;
}

}  // namespace minerule::fuzz
