#include "server/session.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/log.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "minerule/parser.h"
#include "server/server.h"
#include "sql/statement_registry.h"
#include "sql/system_tables.h"

namespace minerule::server {

namespace {

/// First keyword of the statement, uppercased.
std::string FirstKeyword(std::string_view text) {
  size_t i = 0;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < text.size() &&
         (std::isalpha(static_cast<unsigned char>(text[j])) ||
          text[j] == '_')) {
    ++j;
  }
  return ToUpper(text.substr(i, j - i));
}

bool MentionsNextval(std::string_view text) {
  const std::string upper = ToUpper(text);
  return upper.find("NEXTVAL") != std::string::npos;
}

/// Releases the scheduler slot on scope exit.
struct SlotGuard {
  explicit SlotGuard(Scheduler* scheduler) : scheduler(scheduler) {}
  ~SlotGuard() { scheduler->Release(); }
  Scheduler* scheduler;
};

/// Slow-query threshold seeded from MINERULE_SLOW_QUERY_MICROS; parsed
/// once. Default 100ms; 0 or a non-number disables capture.
int64_t DefaultSlowQueryMicros() {
  static const int64_t micros = [] {
    const char* env = std::getenv("MINERULE_SLOW_QUERY_MICROS");
    if (env == nullptr || *env == '\0') return int64_t{100'000};
    char* end = nullptr;
    const long long parsed = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0') return int64_t{0};
    return static_cast<int64_t>(parsed);
  }();
  return micros;
}

/// Compresses an operator profile for the mr_slow_queries operators column:
/// "name:rows name:rows ..." in plan pre-order, capped at 8 entries.
std::string CompressProfile(const std::vector<sql::OperatorProfile>& ops) {
  std::string out;
  size_t emitted = 0;
  for (const sql::OperatorProfile& op : ops) {
    if (emitted == 8) {
      out += " ...";
      break;
    }
    if (!out.empty()) out += ' ';
    out += op.name + ":" + std::to_string(op.rows);
    ++emitted;
  }
  return out;
}

/// Sums the est_bytes operator counters — the same working-set estimate
/// MiningRunStats::peak_bytes uses for generated queries.
int64_t ProfileEstBytes(const std::vector<sql::OperatorProfile>& ops) {
  int64_t total = 0;
  for (const sql::OperatorProfile& op : ops) {
    for (const auto& [key, value] : op.counters) {
      if (key == "est_bytes") total += value;
    }
  }
  return total;
}

/// Compresses a MINE RULE run into its phase timings, the closest analogue
/// of an operator profile at statement granularity.
std::string CompressMiningPhases(const mr::MiningRunStats& stats) {
  auto phase = [](const char* name, double seconds) {
    return std::string(name) + ":" +
           std::to_string(static_cast<int64_t>(seconds * 1e6)) + "us";
  };
  return phase("translate", stats.translate_seconds) + " " +
         phase("preprocess", stats.preprocess_seconds) + " " +
         phase("core", stats.core_seconds) + " " +
         phase("postprocess", stats.postprocess_seconds);
}

}  // namespace

StatementClass ClassifyStatement(std::string_view text) {
  const std::string keyword = FirstKeyword(text);
  if (keyword == "MINE") return StatementClass::kMineRule;
  if (keyword == "SELECT" || keyword == "EXPLAIN" || keyword == "ANALYZE") {
    // NEXTVAL advances a shared catalog sequence even inside a SELECT, so
    // it must serialize with other writers. The substring test is
    // conservative (a string literal saying "nextval" also matches), which
    // only costs concurrency, never correctness.
    return MentionsNextval(text) ? StatementClass::kWrite
                                 : StatementClass::kRead;
  }
  return StatementClass::kWrite;
}

const char* StatementClassName(StatementClass cls) {
  switch (cls) {
    case StatementClass::kRead:
      return "read";
    case StatementClass::kWrite:
      return "write";
    case StatementClass::kMineRule:
      return "mine_rule";
  }
  return "write";
}

Session::Session(Server* server, int64_t id, std::string name)
    : server_(server),
      id_(id),
      name_(std::move(name)),
      options_(server->options().session_defaults),
      system_(std::make_unique<mr::DataMiningSystem>(server->catalog())),
      slow_query_micros_(DefaultSlowQueryMicros()) {
  sql::GlobalStatementRegistry().RegisterSession(id_, name_);
  GlobalLog().Log(LogLevel::kDebug, "server.session", "session opened",
                  {{"session", id_}, {"name", name_}});
}

Session::~Session() {
  sql::GlobalStatementRegistry().UnregisterSession(id_);
  GlobalLog().Log(LogLevel::kDebug, "server.session", "session closed",
                  {{"session", id_},
                   {"statements", flight_recorder_.recorded()}});
  server_->NoteSessionClosed();
}

Result<SessionResult> Session::Execute(std::string_view statement) {
  static Counter* statements =
      GlobalMetrics().GetCounter("server.statements");
  static Counter* errors =
      GlobalMetrics().GetCounter("server.statement_errors");
  static Counter* mine_rule_runs =
      GlobalMetrics().GetCounter("server.mine_rule_runs");
  static Counter* slow_queries =
      GlobalMetrics().GetCounter("server.slow_queries");
  static Histogram* micros = GlobalMetrics().GetHistogram(
      "server.statement_micros", LatencyBucketsMicros());

  SessionResult result;
  result.statement_class = ClassifyStatement(statement);
  const char* class_name = StatementClassName(result.statement_class);
  statements->Increment();
  if (result.is_mine_rule()) mine_rule_runs->Increment();

  // Lifecycle registry (DESIGN.md §16): the statement is visible in
  // mr_active_statements from here until EndStatement, in whatever state
  // the transitions below have reached.
  sql::StatementRegistry& registry = sql::GlobalStatementRegistry();
  const int64_t statement_id =
      registry.BeginStatement(id_, std::string(statement), class_name);

  // Admission first, latch second: a queued statement holds nothing, so
  // admitted statements always make progress.
  Stopwatch watch;
  const Admission admission = server_->scheduler()->Admit();
  SlotGuard slot(server_->scheduler());
  result.queue_wait_micros = admission.queue_wait_micros;
  result.queued = admission.queued;
  registry.MarkAdmitted(statement_id, admission.queue_wait_micros);

  // Per-statement attribution for the mr_runs rows this statement appends.
  system_->set_run_attribution({id_, admission.queue_wait_micros,
                                admission.Decision()});

  Status status;
  SessionManager* manager = server_->session_manager();
  if (result.statement_class == StatementClass::kRead) {
    SessionManager::ReadPin pin(manager);
    result.epoch_start = pin.epoch();
    registry.MarkExecuting(statement_id,
                           static_cast<int64_t>(pin.epoch()));
    status = ExecuteClassified(statement, result.statement_class, &result);
    result.epoch_end = manager->epoch();
  } else {
    SessionManager::WriteLock lock(manager);
    result.epoch_start = manager->epoch();
    registry.MarkExecuting(statement_id,
                           static_cast<int64_t>(result.epoch_start));
    status = ExecuteClassified(statement, result.statement_class, &result);
    result.epoch_end = lock.Commit();
  }
  last_epoch_ = result.epoch_end;
  const int64_t total_micros = watch.ElapsedMicros();
  micros->Observe(total_micros);

  const std::string error = status.ok() ? "" : status.ToString();
  registry.EndStatement(statement_id, status.ok(), error);

  // Slow-query log: execution time (queue wait excluded) against the
  // session's threshold.
  const int64_t exec_micros = total_micros - result.queue_wait_micros;
  if (slow_query_micros_ > 0 && exec_micros >= slow_query_micros_) {
    slow_queries->Increment();
    sql::SlowQueryRecord slow;
    slow.statement_id = statement_id;
    slow.session_id = id_;
    slow.statement = std::string(statement);
    slow.statement_class = class_name;
    slow.total_micros = exec_micros;
    slow.queue_wait_micros = result.queue_wait_micros;
    slow.threshold_micros = slow_query_micros_;
    if (status.ok()) {
      if (result.is_mine_rule()) {
        slow.rows = result.mining.output.num_rules;
        slow.peak_bytes = result.mining.peak_bytes;
        slow.operators = CompressMiningPhases(result.mining);
      } else {
        slow.rows = result.query.rows.empty()
                        ? result.query.affected_rows
                        : static_cast<int64_t>(result.query.rows.size());
        slow.peak_bytes = ProfileEstBytes(result.query.profile);
        slow.operators = CompressProfile(result.query.profile);
      }
    } else {
      slow.status = error;
    }
    registry.RecordSlowQuery(std::move(slow));
    GlobalLog().Log(LogLevel::kWarn, "server.session", "slow statement",
                    {{"session", id_},
                     {"statement_id", statement_id},
                     {"micros", exec_micros},
                     {"threshold", slow_query_micros_},
                     {"class", class_name}});
  }

  // Flight recorder: every statement, success and failure alike.
  FlightEvent event;
  event.statement_id = statement_id;
  event.statement = std::string(statement);
  event.statement_class = class_name;
  event.status = status.ok() ? "ok" : error;
  event.total_micros = total_micros;
  event.queue_wait_micros = result.queue_wait_micros;
  event.epoch_end = result.epoch_end;
  event.run_id = result.run_id;
  flight_recorder_.Record(std::move(event));

  if (!status.ok()) {
    errors->Increment();
    last_error_ = error;
    // Dump the lead-up with the failure (DESIGN.md §16): the ring shows
    // what this session ran before the statement that broke.
    if (GlobalLog().Enabled(LogLevel::kWarn)) {
      GlobalLog().Log(LogLevel::kWarn, "server.session", "statement failed",
                      {{"session", id_},
                       {"statement_id", statement_id},
                       {"error", error},
                       {"flight", flight_recorder_.DumpJson(id_)}});
    }
    return status;
  }
  last_error_.clear();
  return result;
}

Status Session::ExecuteClassified(std::string_view statement,
                                  StatementClass cls, SessionResult* result) {
  if (cls == StatementClass::kMineRule) {
    // Parse here so even a statement the MINE RULE parser rejects gets its
    // one mr_runs row (DataMiningSystem only records parsed statements).
    Result<mr::MineRuleStatement> parsed = mr::ParseMineRule(statement);
    if (!parsed.ok()) {
      sql::RunRecord run;
      run.statement = std::string(statement);
      run.status = parsed.status().ToString();
      run.threads = ResolveThreadCount(options_.num_threads);
      run.session_id = id_;
      run.queue_wait_micros = result->queue_wait_micros;
      run.admission = result->queued ? "queued" : "immediate";
      result->run_id = sql::GlobalObservability().RecordRun(std::move(run));
      return parsed.status();
    }
    Result<mr::MiningRunStats> stats =
        system_->ExecuteStatement(*parsed, options_);
    MR_RETURN_IF_ERROR(stats.status());
    result->run_id = stats->run_id;
    result->mining = std::move(*stats);
    return Status::OK();
  }

  // Plain SQL: apply the session's engine-level options, execute, and
  // append this statement's own mr_runs row.
  sql::SqlEngine* engine = system_->sql_engine();
  engine->set_num_threads(options_.num_threads);
  engine->set_cost_based(options_.cost_based_sql);
  if (options_.memory_limit != mr::MiningOptions::kMemoryLimitInherit) {
    engine->set_memory_limit(options_.memory_limit);
  }

  Stopwatch watch;
  Result<sql::QueryResult> query = system_->ExecuteSql(statement);

  sql::RunRecord run;
  run.statement = std::string(statement);
  run.threads = ResolveThreadCount(options_.num_threads);
  run.total_micros = watch.ElapsedMicros();
  run.session_id = id_;
  run.queue_wait_micros = result->queue_wait_micros;
  run.admission = result->queued ? "queued" : "immediate";
  if (query.ok()) {
    run.rules = query->rows.empty()
                    ? query->affected_rows
                    : static_cast<int64_t>(query->rows.size());
  } else {
    run.status = query.status().ToString();
  }
  result->run_id = sql::GlobalObservability().RecordRun(std::move(run));

  MR_RETURN_IF_ERROR(query.status());
  result->query = std::move(*query);
  return Status::OK();
}

}  // namespace minerule::server
