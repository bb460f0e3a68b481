#ifndef MINERULE_SQL_SYSTEM_TABLES_H_
#define MINERULE_SQL_SYSTEM_TABLES_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "sql/operators.h"

namespace minerule::sql {

// ---------------------------------------------------------------------------
// Queryable telemetry (DESIGN.md §11, §16): eight virtual mr_* tables
// materialized on scan from the process-wide registries, so the embedded SQL
// engine can query its own execution history — the same tight coupling the
// paper argues for applied to the system's introspection:
//
//   SELECT * FROM mr_query_profile WHERE query_id = 'Q4' ORDER BY rows DESC;
//   SELECT session_id, state FROM mr_active_statements;   -- live (§16)
//
// mr_sessions, mr_active_statements and mr_slow_queries materialize from the
// statement lifecycle registry (sql/statement_registry.h) the server session
// layer maintains. A catalog table or view with the same name shadows the
// system table, so existing workloads can never break.
// ---------------------------------------------------------------------------

/// Profile of one generated query inside one run (a preprocess Q0..Q11,
/// a postprocess decode step, or a DDL statement of either phase).
struct QueryProfileRecord {
  std::string query_id;  // "Q4", "POST2", ...
  std::string phase;     // "preprocess" | "postprocess"
  std::string sql;
  int64_t rows = 0;
  int64_t micros = 0;
  std::vector<OperatorProfile> operators;
};

/// One MINE RULE execution recorded by DataMiningSystem.
struct RunRecord {
  int64_t run_id = 0;  // assigned by ObservabilityRegistry::RecordRun
  std::string statement;
  std::string status = "ok";  // "ok" or the failing phase's error message
  int threads = 1;
  int64_t total_micros = 0;
  int64_t rules = 0;       // rules in the output table
  int64_t peak_bytes = 0;  // estimated peak working-set bytes of the run
  bool reused_preprocess = false;
  /// Server-session attribution (DESIGN.md §15). Library runs outside a
  /// session carry session 0 with an empty admission decision.
  int64_t session_id = 0;
  int64_t queue_wait_micros = 0;
  std::string admission;  // "", "immediate" or "queued"
  std::vector<QueryProfileRecord> queries;
};

/// Process-wide run history behind mr_runs / mr_query_profile /
/// mr_operator_stats. Append-only; leaked like the shared thread pool.
class ObservabilityRegistry {
 public:
  ObservabilityRegistry() = default;
  ObservabilityRegistry(const ObservabilityRegistry&) = delete;
  ObservabilityRegistry& operator=(const ObservabilityRegistry&) = delete;

  /// Appends the run and returns its assigned run_id (1-based, dense).
  int64_t RecordRun(RunRecord run);

  std::vector<RunRecord> Runs() const;
  int64_t run_count() const;
  /// run_id of the most recent run, 0 when none.
  int64_t LatestRunId() const;

  /// Drops the history. Tests only.
  void ResetForTesting();

 private:
  mutable std::mutex mutex_;
  std::vector<RunRecord> runs_;
};

ObservabilityRegistry& GlobalObservability();

/// True for the eight mr_* system tables (case-insensitive).
bool IsSystemTable(const std::string& name);

/// The system-table names in display order.
const std::vector<std::string>& SystemTableNames();

/// Schema of a system table; NotFound for other names.
Result<Schema> SystemTableSchema(const std::string& name);

/// Materializes the current contents of a system table. Row order is
/// deterministic: history tables in run order, mr_metrics sorted by name,
/// mr_trace_spans in (tid, record order), mr_sessions in session-id order,
/// mr_active_statements in statement-id order, mr_slow_queries oldest
/// first.
Result<std::pair<Schema, std::vector<Row>>> MaterializeSystemTable(
    const std::string& name);

}  // namespace minerule::sql

#endif  // MINERULE_SQL_SYSTEM_TABLES_H_
