#ifndef MINERULE_SQL_ENGINE_H_
#define MINERULE_SQL_ENGINE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/expr_eval.h"
#include "sql/operators.h"
#include "sql/statistics.h"

namespace minerule::sql {

/// The result of executing one statement. SELECTs fill schema/rows; DML
/// fills affected_rows; DDL leaves both empty.
struct QueryResult {
  Schema schema;
  std::vector<Row> rows;
  int64_t affected_rows = 0;

  /// Per-operator execution statistics of the plan that produced this
  /// result. Filled for planned statements (SELECT, INSERT ... SELECT,
  /// CREATE TABLE AS) when the engine's collect_operator_stats flag is on,
  /// and always for EXPLAIN ANALYZE.
  std::vector<OperatorProfile> profile;

  /// Aligned ASCII rendering, for examples and debugging.
  std::string ToDisplayString(size_t max_rows = 100) const;
};

/// The SQL92-subset server of the tightly-coupled architecture. Everything
/// the paper's preprocessor and postprocessor do goes through this facade as
/// plain SQL text — that is the portability property the architecture is
/// designed around.
///
/// Host variables: `SELECT expr INTO :name ...` stores a scalar; `:name` in
/// any expression reads it back; SetHostVariable seeds values (the
/// preprocessor sets :mingroups this way, as in Appendix A's Q3).
class SqlEngine {
 public:
  explicit SqlEngine(Catalog* catalog);

  SqlEngine(const SqlEngine&) = delete;
  SqlEngine& operator=(const SqlEngine&) = delete;

  /// Executes a single SQL statement.
  Result<QueryResult> Execute(std::string_view sql);

  /// Executes a ';'-separated script; returns the last statement's result.
  Result<QueryResult> ExecuteScript(std::string_view sql);

  void SetHostVariable(const std::string& name, Value value);
  Result<Value> GetHostVariable(const std::string& name) const;

  /// When on, planned statements fill QueryResult::profile with row counts
  /// per operator (cheap: one increment per row; no timing). EXPLAIN
  /// ANALYZE additionally enables per-operator timing for its own plan.
  void set_collect_operator_stats(bool on) { collect_operator_stats_ = on; }
  bool collect_operator_stats() const { return collect_operator_stats_; }

  /// Worker threads for morsel-driven query execution (DESIGN.md §9).
  /// 1 (the default) is the exact serial path; <= 0 means hardware
  /// concurrency. Results are bit-identical at every setting — the plan
  /// shape never depends on it, only how operators execute.
  void set_num_threads(int num_threads) { num_threads_ = num_threads; }
  int num_threads() const { return num_threads_; }

  /// No effect; kept only so the frozen benchmark driver compiles.
  void set_vectorized(bool /*on*/) {}

  /// Memory budget in bytes for operator working sets (DESIGN.md §13).
  /// < 0 (the default) disables the budget; >= 0 makes the buffering
  /// operators — hash-join build, aggregation, sort — spill to disk once
  /// their accounted working set exceeds it (0 spills everything). Results
  /// are bit-identical to unbudgeted execution at every thread count. The
  /// constructor seeds this from the MINERULE_MEMORY_LIMIT environment
  /// variable when it is set, so whole test suites can be rerun under a
  /// tiny budget without touching their code.
  void set_memory_limit(int64_t bytes) { memory_limit_ = bytes; }
  int64_t memory_limit() const { return memory_limit_; }

  /// Directory for spill files; empty (the default) means $TMPDIR or /tmp.
  /// Spill files are created with mkstemp and unlinked immediately, so they
  /// never outlive the process even on a crash.
  void set_spill_dir(std::string dir) { spill_dir_ = std::move(dir); }
  const std::string& spill_dir() const { return spill_dir_; }

  /// Cost-based planning (DESIGN.md §14). When on, the planner estimates
  /// cardinalities from catalog statistics (collected lazily, refreshed by
  /// ANALYZE) plus observed-cardinality feedback from earlier executions,
  /// and uses them to reorder joins, pick the hash-join build side, fall
  /// back to row-at-a-time execution on tiny inputs and size the spill
  /// fan-out. Off (the default) planning stays purely syntactic. Results
  /// are bit-identical either way — the fuzz oracle's cost-based route
  /// pins it.
  void set_cost_based(bool on) { cost_based_ = on; }
  bool cost_based() const { return cost_based_; }

  /// The engine-owned statistics catalog and plan feedback store. Exposed
  /// for tests and for mr_table_stats materialization.
  StatisticsCatalog* statistics() { return &statistics_; }
  PlanFeedback* feedback() { return &feedback_; }

  Catalog* catalog() { return catalog_; }

 private:
  /// Builds the per-statement execution context for planned statements.
  ExecContext MakeContext();
  /// Feeds observed operator cardinalities back into feedback_ after a
  /// planned statement ran to completion.
  void RecordFeedback(const struct PlannedSelect& planned);

  Result<QueryResult> ExecuteStatement(struct Statement* stmt);
  Result<QueryResult> ExecuteSelect(struct SelectStmt* stmt);
  Result<QueryResult> ExecuteCreateTable(struct CreateTableStmt* stmt);
  Result<QueryResult> ExecuteCreateView(struct CreateViewStmt* stmt);
  Result<QueryResult> ExecuteCreateSequence(struct CreateSequenceStmt* stmt);
  Result<QueryResult> ExecuteDrop(struct DropStmt* stmt);
  Result<QueryResult> ExecuteInsert(struct InsertStmt* stmt);
  Result<QueryResult> ExecuteDelete(struct DeleteStmt* stmt);
  Result<QueryResult> ExecuteUpdate(struct UpdateStmt* stmt);
  Result<QueryResult> ExecuteExplain(struct ExplainStmt* stmt);
  Result<QueryResult> ExecuteAnalyze(struct AnalyzeStmt* stmt);

  Catalog* catalog_;
  HostVarMap host_vars_;
  bool collect_operator_stats_ = false;
  int num_threads_ = 1;
  int64_t memory_limit_ = -1;  // < 0 disables the budget
  std::string spill_dir_;      // empty means $TMPDIR or /tmp
  bool cost_based_ = false;
  StatisticsCatalog statistics_;
  PlanFeedback feedback_;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_ENGINE_H_
