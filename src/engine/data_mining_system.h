#ifndef MINERULE_ENGINE_DATA_MINING_SYSTEM_H_
#define MINERULE_ENGINE_DATA_MINING_SYSTEM_H_

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/trace.h"
#include "minerule/parser.h"
#include "minerule/translator.h"
#include "mining/core_operator.h"
#include "postprocess/postprocessor.h"
#include "preprocess/preprocessor.h"
#include "sql/engine.h"

namespace minerule::mr {

/// Knobs for one MINE RULE execution.
struct MiningOptions {
  /// Which pool member the simple core uses (§3: algorithm
  /// interoperability). The default, kAuto, resolves a member from the
  /// encoded source's shape (DESIGN.md §14); naming a member pins it. The
  /// general core has a single implementation. Every member returns the
  /// same rules, so this only affects speed.
  mining::SimpleAlgorithm algorithm = mining::SimpleAlgorithm::kAuto;
  mining::SimpleMinerOptions simple_options;

  /// Worker threads for the core operator, forwarded translator -> core
  /// operator -> miners (overrides simple_options.num_threads). <= 0 means
  /// hardware concurrency; 1 preserves the serial execution exactly. The
  /// mined rules are bit-identical at every setting.
  int num_threads = 0;

  /// No effect; kept only so the frozen benchmark driver compiles.
  bool vectorized_sql = false;

  /// Cost-based planning for the generated SQL (DESIGN.md §14): join
  /// reordering, build-side choice and spill fan-out sizing from catalog
  /// statistics plus observed-cardinality feedback. The mined rules are
  /// bit-identical either way (the fuzz oracle's cost-based route pins it).
  bool cost_based_sql = false;

  /// Memory budget in bytes for the SQL engine's operator working sets
  /// (DESIGN.md §13): >= 0 makes the buffering operators spill to disk past
  /// the budget (0 spills everything), < 0 disables the budget. The mined
  /// rules are bit-identical at every setting. kMemoryLimitInherit (the
  /// default) leaves the engine's own setting alone — which the engine
  /// seeds from the MINERULE_MEMORY_LIMIT environment variable — so the
  /// option only overrides when explicitly set.
  static constexpr int64_t kMemoryLimitInherit =
      std::numeric_limits<int64_t>::min();
  int64_t memory_limit = kMemoryLimitInherit;

  /// §3: "the same preprocessing could be in common to the execution of
  /// several data mining queries, thus saving its cost". When true, a
  /// statement whose encoding-relevant clauses (and support threshold)
  /// match the previous run reuses the encoded tables. Source-table DML is
  /// detected automatically: each table's modification epoch is part of the
  /// cache key, so a changed source forces fresh preprocessing.
  bool reuse_preprocessing = false;

  /// Keep the encoded tables in the catalog after the run (useful for
  /// inspection and for preprocessing reuse); they are overwritten by the
  /// next run regardless.
  bool keep_encoded_tables = true;
};

/// Shared-thread-pool utilization attributed to one run (snapshot delta
/// around the core phase). Pool-side only: ParallelFor chunks executed by
/// the calling thread are not counted.
struct PoolUsage {
  int workers = 0;
  int64_t tasks_run = 0;
  int64_t busy_micros = 0;
  std::vector<int64_t> per_worker_busy_micros;
};

/// Per-run report: classification, phase timings (the Figure 3 process
/// flow), per-query preprocessing stats (Figure 4), core counters, pool
/// utilization and the phase/counter trace.
struct MiningRunStats {
  Directives directives;
  int64_t total_groups = 0;
  int64_t min_group_count = 0;
  bool preprocessing_reused = false;

  /// Id of this run's row in the mr_runs system table (DESIGN.md §11);
  /// assigned by the process-wide ObservabilityRegistry, 1-based.
  int64_t run_id = 0;

  /// Estimated peak working-set bytes: coded-table cache plus the largest
  /// per-query operator buffer total (join builds, aggregate tables, sort
  /// buffers) across the generated queries.
  int64_t peak_bytes = 0;

  /// Resolved worker-thread count the SQL engine ran with (DESIGN.md §9):
  /// MiningOptions::num_threads with <= 0 resolved to the hardware
  /// concurrency. The pre/postprocessing queries used morsel-driven
  /// parallelism at this width; 1 is the exact serial path.
  int engine_threads = 1;

  double translate_seconds = 0;
  double preprocess_seconds = 0;
  double core_seconds = 0;
  double postprocess_seconds = 0;
  double TotalSeconds() const {
    return translate_seconds + preprocess_seconds + core_seconds +
           postprocess_seconds;
  }

  std::vector<QueryStat> preprocess_queries;
  std::vector<QueryStat> postprocess_queries;
  mining::CoreStats core;

  PoolUsage pool;
  TraceRecorder trace;

  PostprocessResult output;

  /// Serializes the whole report (phases, per-query operator profiles,
  /// per-pass mining counters, pool utilization, trace events) as one JSON
  /// object — the machine-readable shape the benches emit. Schema is
  /// documented in DESIGN.md §8.
  std::string ToJson() const;
};

/// The kernel of the tightly-coupled architecture (Figure 3a): translator,
/// preprocessor, core operator and postprocessor around one SQL server.
/// Everything flows through the catalog: sources in, encoded tables in the
/// middle, rule tables out — the integration property the paper argues for.
class DataMiningSystem {
 public:
  explicit DataMiningSystem(Catalog* catalog)
      : catalog_(catalog), sql_engine_(catalog) {
    // Per-operator row counts for every generated query (cheap; timing
    // stays off unless EXPLAIN ANALYZE asks for it).
    sql_engine_.set_collect_operator_stats(true);
  }

  DataMiningSystem(const DataMiningSystem&) = delete;
  DataMiningSystem& operator=(const DataMiningSystem&) = delete;

  /// Executes a MINE RULE statement end to end. On success the output
  /// tables <out>, <out>_Bodies and <out>_Heads exist in the catalog.
  /// Every execution — successful or not — is appended to the mr_runs
  /// system table (DESIGN.md §11).
  Result<MiningRunStats> ExecuteMineRule(std::string_view text,
                                         const MiningOptions& options = {});

  /// Executes an already-parsed statement.
  Result<MiningRunStats> ExecuteStatement(const MineRuleStatement& stmt,
                                          const MiningOptions& options = {});

  /// Plain SQL passthrough to the embedded server (loading data, querying
  /// rule tables, joining rules with source data — the tight coupling).
  Result<sql::QueryResult> ExecuteSql(std::string_view sql) {
    return sql_engine_.Execute(sql);
  }

  /// Renders a previously mined output table in Figure 2.b notation.
  Result<std::string> RenderRules(const std::string& output_table);

  /// Drops the preprocessing cache. Source-table DML is detected via table
  /// epochs in the cache key; this remains for explicit resets.
  void InvalidateCache() { cache_key_.reset(); }

  /// Per-session attribution stamped onto every mr_runs row this system
  /// records (DESIGN.md §15). The server session layer sets it before each
  /// statement; library callers leave the default (session 0, no queue).
  struct RunAttribution {
    int64_t session_id = 0;
    int64_t queue_wait_micros = 0;
    std::string admission;  // "", "immediate" or "queued"
  };
  void set_run_attribution(RunAttribution attribution) {
    attribution_ = std::move(attribution);
  }

  sql::SqlEngine* sql_engine() { return &sql_engine_; }
  Catalog* catalog() { return catalog_; }

 private:
  /// Cache key: the statement with everything that does not influence the
  /// generated preprocessing program masked out, plus the modification
  /// epochs of every source table (resolved through views) so that DML on a
  /// source invalidates the cache automatically.
  std::string PreprocessCacheKey(const MineRuleStatement& stmt) const;

  Result<mining::CodedSourceData> FetchEncodedData(
      const PreprocessProgram& program, const Directives& directives);

  /// The pipeline proper; ExecuteStatement wraps it to record the run into
  /// the observability registry on both the success and the error path.
  Result<MiningRunStats> ExecuteStatementImpl(const MineRuleStatement& stmt,
                                              const MiningOptions& options);

  Catalog* catalog_;
  sql::SqlEngine sql_engine_;
  RunAttribution attribution_;

  std::optional<std::string> cache_key_;
  std::optional<PreprocessResult> cached_preprocess_;

  /// What RenderRules needs to know about past runs, by output table.
  struct RenderInfo {
    bool select_support = false;
    bool select_confidence = false;
  };
  std::map<std::string, RenderInfo> executed_;
};

}  // namespace minerule::mr

#endif  // MINERULE_ENGINE_DATA_MINING_SYSTEM_H_
