#ifndef MINERULE_SERVER_SESSION_H_
#define MINERULE_SERVER_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/data_mining_system.h"
#include "server/flight_recorder.h"
#include "server/scheduler.h"
#include "sql/engine.h"

namespace minerule::server {

class Server;

/// How the session layer classifies one statement before executing it
/// (DESIGN.md §15). Read-class statements run under the shared catalog
/// latch (snapshot reads); everything else serializes on the exclusive
/// latch.
enum class StatementClass {
  kRead,      // SELECT / EXPLAIN / ANALYZE without side effects
  kWrite,     // DML, DDL, NEXTVAL-touching SELECTs
  kMineRule,  // MINE RULE (write-class: creates/drops tables)
};

/// Classifies raw statement text. Conservative: anything that could mutate
/// shared state (including a SELECT mentioning NEXTVAL, which advances a
/// catalog sequence) is write-class; misclassifying a read as a write only
/// costs concurrency, never correctness.
StatementClass ClassifyStatement(std::string_view text);

/// "read" | "write" | "mine_rule" — the class names used by
/// mr_active_statements, the slow-query log and the flight recorder.
const char* StatementClassName(StatementClass cls);

/// The result of one session statement.
struct SessionResult {
  StatementClass statement_class = StatementClass::kRead;

  /// Filled for SQL statements.
  sql::QueryResult query;
  /// Filled for MINE RULE statements.
  mr::MiningRunStats mining;
  bool is_mine_rule() const {
    return statement_class == StatementClass::kMineRule;
  }

  /// Catalog epoch the statement observed. For snapshot reads start == end
  /// always (the pinned epoch); for writes end == start + 1 (this
  /// statement's own commit).
  uint64_t epoch_start = 0;
  uint64_t epoch_end = 0;

  /// Admission-control outcome for this statement.
  int64_t queue_wait_micros = 0;
  bool queued = false;

  /// mr_runs row id attributed to this statement (every session statement
  /// — SQL and MINE RULE, success and failure — appends exactly one row).
  int64_t run_id = 0;
};

/// One client connection to the Server: per-session options, host
/// variables, statistics and preprocess cache over the shared catalog.
/// A session executes one statement at a time; drive each session from a
/// single thread (different sessions may run concurrently, which is the
/// point).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Executes one statement (SQL or MINE RULE) with admission control and
  /// the catalog latch appropriate for its class. Every call appends one
  /// mr_runs row carrying this session's id and queue-wait attribution.
  Result<SessionResult> Execute(std::string_view statement);

  int64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Per-session execution options, applied to both MINE RULE runs and
  /// (where applicable: threads, cost_based, memory_limit) plain SQL.
  /// Mutating them never affects other sessions.
  mr::MiningOptions* options() { return &options_; }

  /// Last error this session saw; empty after a successful statement.
  const std::string& last_error() const { return last_error_; }

  /// Catalog epoch as of the latest completed statement.
  uint64_t last_epoch() const { return last_epoch_; }

  /// The session-private engine stack (testing and diagnostics).
  mr::DataMiningSystem* system() { return system_.get(); }

  /// This session's flight recorder (DESIGN.md §16): the ring of recent
  /// statement events, dumped as JSON when a statement fails.
  FlightRecorder* flight_recorder() { return &flight_recorder_; }

  /// Execution-time threshold (queue wait excluded) above which a
  /// statement is captured into mr_slow_queries; <= 0 disables capture.
  /// Seeded from MINERULE_SLOW_QUERY_MICROS (default 100ms); the socket
  /// front end exposes it as `\set slow_query_micros N`.
  int64_t slow_query_micros() const { return slow_query_micros_; }
  void set_slow_query_micros(int64_t micros) { slow_query_micros_ = micros; }

 private:
  friend class Server;
  Session(Server* server, int64_t id, std::string name);

  /// Runs the statement under the already-acquired latch; fills `result`.
  Status ExecuteClassified(std::string_view statement, StatementClass cls,
                           SessionResult* result);

  Server* server_;
  int64_t id_;
  std::string name_;
  mr::MiningOptions options_;
  std::unique_ptr<mr::DataMiningSystem> system_;
  std::string last_error_;
  uint64_t last_epoch_ = 0;
  FlightRecorder flight_recorder_;
  int64_t slow_query_micros_ = 0;  // seeded in the constructor
};

}  // namespace minerule::server

#endif  // MINERULE_SERVER_SESSION_H_
