#include "engine/data_mining_system.h"

#include <algorithm>
#include <optional>

#include "common/json.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "sql/parser.h"
#include "sql/system_tables.h"

namespace minerule::mr {

namespace {

Result<int64_t> IntAt(const Row& row, size_t index) {
  if (index >= row.size() || row[index].type() != DataType::kInteger) {
    return Status::Internal("encoded table column " + std::to_string(index) +
                            " is not an integer");
  }
  return row[index].AsInteger();
}

/// Appends "name@epoch" entries for every base table reachable from
/// `relation`, expanding views (and their subqueries) up to `depth` levels.
/// Unresolvable names contribute epoch 0, which still changes the key when
/// the object later appears.
void AppendSourceEpochs(const Catalog& catalog, const std::string& relation,
                        int depth, std::string* key) {
  if (depth <= 0) return;
  if (catalog.HasView(relation)) {
    auto view = catalog.GetView(relation);
    if (!view.ok()) return;
    *key += "view:" + ToLower(relation) + ",";
    auto select = sql::ParseSelectSql(view->select_sql);
    if (!select.ok()) return;
    // Walk the view's FROM list, including nested subqueries.
    std::vector<const sql::SelectStmt*> pending{select->get()};
    while (!pending.empty()) {
      const sql::SelectStmt* stmt = pending.back();
      pending.pop_back();
      for (const sql::TableRef& ref : stmt->from) {
        if (ref.kind == sql::TableRef::Kind::kSubquery) {
          if (ref.subquery) pending.push_back(ref.subquery.get());
        } else {
          AppendSourceEpochs(catalog, ref.name, depth - 1, key);
        }
      }
    }
    return;
  }
  *key += ToLower(relation) + "@" +
          std::to_string(catalog.TableVersion(relation)) + ",";
}

/// Sums the est_bytes operator counters of each query and returns the
/// largest per-query total — the queries run sequentially, so their buffer
/// peaks do not stack.
int64_t MaxQueryOperatorBytes(const std::vector<QueryStat>& stats) {
  int64_t max_bytes = 0;
  for (const QueryStat& q : stats) {
    int64_t total = 0;
    for (const sql::OperatorProfile& op : q.operators) {
      for (const auto& [key, value] : op.counters) {
        if (key == "est_bytes") total += value;
      }
    }
    max_bytes = std::max(max_bytes, total);
  }
  return max_bytes;
}

/// Converts one phase's QueryStats into mr_query_profile records.
void AppendQueryRecords(const std::vector<QueryStat>& stats,
                        const char* phase,
                        std::vector<sql::QueryProfileRecord>* out) {
  for (const QueryStat& q : stats) {
    sql::QueryProfileRecord record;
    record.query_id = q.id;
    record.phase = phase;
    record.sql = q.sql;
    record.rows = q.rows;
    record.micros = q.micros;
    record.operators = q.operators;
    out->push_back(std::move(record));
  }
}

}  // namespace

std::string DataMiningSystem::PreprocessCacheKey(
    const MineRuleStatement& stmt) const {
  // Only the clauses that reach the generated SQL matter: body/head
  // schemas, FROM / source condition, grouping, clustering, the mining
  // condition, and the support threshold (it sets :mingroups). The
  // cardinalities, the SUPPORT/CONFIDENCE projection flags, the confidence
  // threshold and the output table name only affect later phases.
  std::string key;
  key += "B:" + ToLower(Join(stmt.body_schema, ",")) + ";";
  key += "H:" + ToLower(Join(stmt.head_schema, ",")) + ";";
  key += "M:" + (stmt.mining_cond ? stmt.mining_cond->ToSql() : "") + ";";
  key += "F:";
  for (const sql::TableRef& ref : stmt.from) {
    key += ToLower(ref.name) + " " + ToLower(ref.alias) + ",";
  }
  key += ";W:" + (stmt.source_cond ? stmt.source_cond->ToSql() : "") + ";";
  key += "G:" + ToLower(Join(stmt.group_attrs, ",")) + ";";
  key += "GC:" + (stmt.group_cond ? stmt.group_cond->ToSql() : "") + ";";
  key += "C:" + ToLower(Join(stmt.cluster_attrs, ",")) + ";";
  key += "CC:" + (stmt.cluster_cond ? stmt.cluster_cond->ToSql() : "") + ";";
  key += "S:" + std::to_string(stmt.min_support);
  // Source data epochs: any DML on (or drop/recreate of) a source table
  // changes its version and thus the key, so a stale cache entry can never
  // be served. Views are expanded to the base tables they read.
  key += ";V:";
  for (const sql::TableRef& ref : stmt.from) {
    AppendSourceEpochs(*catalog_, ref.name, /*depth=*/8, &key);
  }
  return key;
}

namespace {

void WriteIntArray(JsonWriter* w, const std::vector<int64_t>& values) {
  w->BeginArray();
  for (int64_t v : values) w->Int(v);
  w->EndArray();
}

void WriteQueryStats(JsonWriter* w, const std::vector<QueryStat>& stats) {
  w->BeginArray();
  for (const QueryStat& q : stats) {
    w->BeginObject();
    w->Key("id").String(q.id);
    w->Key("sql").String(q.sql);
    w->Key("micros").Int(q.micros);
    w->Key("rows").Int(q.rows);
    w->Key("operators").BeginArray();
    for (const sql::OperatorProfile& op : q.operators) {
      w->BeginObject();
      w->Key("name").String(op.name);
      w->Key("detail").String(op.detail);
      w->Key("depth").Int(op.depth);
      w->Key("rows").Int(op.rows);
      w->Key("micros").Int(op.micros);
      w->Key("counters").BeginObject();
      for (const auto& [key, value] : op.counters) w->Key(key).Int(value);
      w->EndObject();
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

std::string MiningRunStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("directives").String(directives.ToString());
  w.Key("run_id").Int(run_id);
  w.Key("total_groups").Int(total_groups);
  w.Key("min_group_count").Int(min_group_count);
  w.Key("preprocessing_reused").Bool(preprocessing_reused);
  w.Key("engine_threads").Int(engine_threads);
  w.Key("peak_bytes").Int(peak_bytes);

  w.Key("phases").BeginObject();
  w.Key("translate_seconds").Double(translate_seconds);
  w.Key("preprocess_seconds").Double(preprocess_seconds);
  w.Key("core_seconds").Double(core_seconds);
  w.Key("postprocess_seconds").Double(postprocess_seconds);
  w.Key("total_seconds").Double(TotalSeconds());
  w.EndObject();

  w.Key("preprocess_queries");
  WriteQueryStats(&w, preprocess_queries);
  w.Key("postprocess_queries");
  WriteQueryStats(&w, postprocess_queries);

  w.Key("core").BeginObject();
  w.Key("used_general").Bool(core.used_general);
  w.Key("algorithm").String(core.algorithm);
  w.Key("rules_found").Int(core.rules_found);
  if (core.used_general) {
    w.Key("general").BeginObject();
    w.Key("elementary_candidates").Int(core.general.elementary_candidates);
    w.Key("elementary_rules").Int(core.general.elementary_rules);
    w.Key("body_supports_computed").Int(core.general.body_supports_computed);
    w.Key("cells_evaluated").Int(core.general.cells_evaluated);
    w.Key("sets").BeginArray();
    for (const auto& set : core.general.sets) {
      w.BeginObject();
      w.Key("body_size").Int(set.body_size);
      w.Key("head_size").Int(set.head_size);
      w.Key("candidates").Int(set.candidates);
      w.Key("kept").Int(set.kept);
      w.Key("from_body_extension").Bool(set.from_body_extension);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  } else {
    w.Key("simple").BeginObject();
    w.Key("passes").Int(core.simple.passes);
    w.Key("candidates_per_level");
    WriteIntArray(&w, core.simple.candidates_per_level);
    w.Key("large_per_level");
    WriteIntArray(&w, core.simple.large_per_level);
    w.Key("sampling_needed_full_pass")
        .Bool(core.simple.sampling_needed_full_pass);
    w.Key("dhp_unfiltered_pairs").Int(core.simple.dhp_unfiltered_pairs);
    w.Key("dhp_filtered_pairs").Int(core.simple.dhp_filtered_pairs);
    w.Key("partition_slice_sizes");
    WriteIntArray(&w, core.simple.partition_slice_sizes);
    w.EndObject();
  }
  w.EndObject();

  w.Key("thread_pool").BeginObject();
  w.Key("workers").Int(pool.workers);
  w.Key("tasks_run").Int(pool.tasks_run);
  w.Key("busy_micros").Int(pool.busy_micros);
  w.Key("per_worker_busy_micros");
  WriteIntArray(&w, pool.per_worker_busy_micros);
  w.EndObject();

  w.Key("trace");
  trace.AppendJson(&w);

  w.EndObject();
  return w.str();
}

Result<mining::CodedSourceData> DataMiningSystem::FetchEncodedData(
    const PreprocessProgram& program, const Directives& directives) {
  mining::CodedSourceData data;

  if (!program.coded_source.empty()) {
    MR_ASSIGN_OR_RETURN(
        sql::QueryResult coded,
        sql_engine_.Execute("SELECT Gid, Bid FROM " + program.coded_source));
    data.simple_pairs.reserve(coded.rows.size());
    for (const Row& row : coded.rows) {
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      MR_ASSIGN_OR_RETURN(int64_t bid, IntAt(row, 1));
      data.simple_pairs.emplace_back(static_cast<mining::Gid>(gid),
                                     static_cast<mining::ItemId>(bid));
    }
    return data;
  }

  auto fetch_role = [&](const std::string& table, const char* item_col,
                        std::vector<mining::CodedSourceData::RoleRow>* out)
      -> Status {
    const std::string cols = directives.C
                                 ? "Gid, Cid, " + std::string(item_col)
                                 : "Gid, " + std::string(item_col);
    MR_ASSIGN_OR_RETURN(sql::QueryResult rows, sql_engine_.Execute(
                            "SELECT " + cols + " FROM " + table));
    out->reserve(rows.rows.size());
    for (const Row& row : rows.rows) {
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      int64_t cid = mining::kNoCluster;
      size_t item_index = 1;
      if (directives.C) {
        MR_ASSIGN_OR_RETURN(cid, IntAt(row, 1));
        item_index = 2;
      }
      MR_ASSIGN_OR_RETURN(int64_t item, IntAt(row, item_index));
      out->push_back({static_cast<mining::Gid>(gid),
                      static_cast<mining::Cid>(cid),
                      static_cast<mining::ItemId>(item)});
    }
    return Status::OK();
  };

  MR_RETURN_IF_ERROR(
      fetch_role(program.coded_source_b, "Bid", &data.body_rows));
  if (!program.coded_source_h.empty()) {
    MR_RETURN_IF_ERROR(
        fetch_role(program.coded_source_h, "Hid", &data.head_rows));
  }

  if (!program.cluster_couples.empty()) {
    MR_ASSIGN_OR_RETURN(sql::QueryResult couples,
                        sql_engine_.Execute("SELECT Gid, BCid, HCid FROM " +
                                            program.cluster_couples));
    for (const Row& row : couples.rows) {
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      MR_ASSIGN_OR_RETURN(int64_t bcid, IntAt(row, 1));
      MR_ASSIGN_OR_RETURN(int64_t hcid, IntAt(row, 2));
      data.cluster_couples.emplace_back(static_cast<mining::Gid>(gid),
                                        static_cast<mining::Cid>(bcid),
                                        static_cast<mining::Cid>(hcid));
    }
  }

  if (!program.input_rules.empty()) {
    const std::string cols =
        directives.C ? "Gid, BCid, HCid, Bid, Hid" : "Gid, Bid, Hid";
    MR_ASSIGN_OR_RETURN(
        sql::QueryResult rules,
        sql_engine_.Execute("SELECT " + cols + " FROM " +
                            program.input_rules));
    for (const Row& row : rules.rows) {
      mining::GeneralInput::ElementaryOccurrence occ;
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      occ.gid = static_cast<mining::Gid>(gid);
      size_t next = 1;
      if (directives.C) {
        MR_ASSIGN_OR_RETURN(int64_t bcid, IntAt(row, next++));
        MR_ASSIGN_OR_RETURN(int64_t hcid, IntAt(row, next++));
        occ.bcid = static_cast<mining::Cid>(bcid);
        occ.hcid = static_cast<mining::Cid>(hcid);
      } else {
        occ.bcid = mining::kNoCluster;
        occ.hcid = mining::kNoCluster;
      }
      MR_ASSIGN_OR_RETURN(int64_t bid, IntAt(row, next++));
      MR_ASSIGN_OR_RETURN(int64_t hid, IntAt(row, next++));
      occ.bid = static_cast<mining::ItemId>(bid);
      occ.hid = static_cast<mining::ItemId>(hid);
      data.input_rules.push_back(occ);
    }
  }
  return data;
}

Result<MiningRunStats> DataMiningSystem::ExecuteMineRule(
    std::string_view text, const MiningOptions& options) {
  Stopwatch watch;
  MR_ASSIGN_OR_RETURN(MineRuleStatement stmt, ParseMineRule(text));
  return ExecuteStatement(stmt, options);
}

Result<MiningRunStats> DataMiningSystem::ExecuteStatement(
    const MineRuleStatement& stmt, const MiningOptions& options) {
  // The wrapper records every execution — success or failure — as one row
  // of the mr_runs system table and feeds the engine.* metrics, so the
  // telemetry is queryable through the same SQL engine that ran the
  // pipeline (DESIGN.md §11).
  Stopwatch total;
  Result<MiningRunStats> result = ExecuteStatementImpl(stmt, options);
  const int64_t total_micros = total.ElapsedMicros();

  sql::RunRecord run;
  run.statement = stmt.ToString();
  run.threads = ResolveThreadCount(options.num_threads);
  run.total_micros = total_micros;
  run.session_id = attribution_.session_id;
  run.queue_wait_micros = attribution_.queue_wait_micros;
  run.admission = attribution_.admission;
  if (result.ok()) {
    MiningRunStats& stats = *result;
    run.rules = stats.core.rules_found;
    run.peak_bytes = stats.peak_bytes;
    run.reused_preprocess = stats.preprocessing_reused;
    AppendQueryRecords(stats.preprocess_queries, "preprocess", &run.queries);
    AppendQueryRecords(stats.postprocess_queries, "postprocess", &run.queries);
  } else {
    run.status = result.status().ToString();
  }

  static Counter* runs = GlobalMetrics().GetCounter("engine.runs");
  static Counter* failed = GlobalMetrics().GetCounter("engine.failed_runs");
  static Counter* rules_found =
      GlobalMetrics().GetCounter("engine.rules_found");
  static Histogram* run_micros = GlobalMetrics().GetHistogram(
      "engine.run_micros", LatencyBucketsMicros());
  runs->Increment();
  run_micros->Observe(total_micros);
  if (result.ok()) {
    rules_found->Add(result->core.rules_found);
    GlobalMetrics().GetGauge("engine.peak_bytes")->UpdateMax(
        result->peak_bytes);
  } else {
    failed->Increment();
  }

  const int64_t run_id = sql::GlobalObservability().RecordRun(std::move(run));
  if (result.ok()) result->run_id = run_id;
  return result;
}

Result<MiningRunStats> DataMiningSystem::ExecuteStatementImpl(
    const MineRuleStatement& stmt, const MiningOptions& options) {
  MiningRunStats stats;

  // Stage spans for the Chrome trace export; each phase below re-emplaces
  // the span, closing the previous stage at that instant. Inert (one
  // relaxed atomic load each) unless --trace-out enabled the tracer.
  GlobalTracer().SetCurrentThreadName("main");
  std::optional<ScopedSpan> stage_span;

  // The SQL phases (preprocessor Q0..Q11, postprocessor) run morsel-parallel
  // at the same width as the core operator; phases are sequential on the one
  // shared pool, so this never oversubscribes.
  sql_engine_.set_num_threads(options.num_threads);
  sql_engine_.set_cost_based(options.cost_based_sql);
  if (options.memory_limit != MiningOptions::kMemoryLimitInherit) {
    sql_engine_.set_memory_limit(options.memory_limit);
  }
  stats.engine_threads = ResolveThreadCount(options.num_threads);

  // --- translator --------------------------------------------------------
  stage_span.emplace("translate", "phase");
  Stopwatch phase;
  Translator translator(
      catalog_, [this](const std::string& view) -> Result<Schema> {
        // Resolve a view's output schema by planning (not executing) a
        // zero-row probe through the SQL engine.
        MR_ASSIGN_OR_RETURN(sql::QueryResult probe,
                            sql_engine_.Execute("SELECT * FROM " + view +
                                                " LIMIT 0"));
        return probe.schema;
      });
  MR_ASSIGN_OR_RETURN(Translation translation, translator.Translate(stmt));
  stats.directives = translation.directives;
  stats.translate_seconds = phase.ElapsedSeconds();
  stats.trace.Span("translate", phase.ElapsedMicros());

  // --- preprocessor ------------------------------------------------------
  stage_span.emplace("preprocess", "phase");
  phase.Restart();
  const std::string cache_key = PreprocessCacheKey(stmt);
  PreprocessResult* preprocess = nullptr;
  if (options.reuse_preprocessing && cache_key_ == cache_key &&
      cached_preprocess_.has_value()) {
    preprocess = &*cached_preprocess_;
    stats.preprocessing_reused = true;
  } else {
    Preprocessor preprocessor(&sql_engine_);
    MR_ASSIGN_OR_RETURN(PreprocessResult fresh,
                        preprocessor.Run(stmt, translation));
    cached_preprocess_ = std::move(fresh);
    cache_key_ = cache_key;
    preprocess = &*cached_preprocess_;
  }
  stats.total_groups = preprocess->total_groups;
  stats.min_group_count = preprocess->min_group_count;
  stats.preprocess_queries = preprocess->stats;
  stats.preprocess_seconds = phase.ElapsedSeconds();
  stats.trace.Span("preprocess", phase.ElapsedMicros());
  stats.trace.Counter("preprocess.reused", stats.preprocessing_reused ? 1 : 0);
  stats.trace.Counter("preprocess.total_groups", stats.total_groups);

  // --- core operator -----------------------------------------------------
  stage_span.emplace("core", "phase");
  phase.Restart();
  const ThreadPoolStats pool_before = SharedThreadPool().Stats();
  mining::CoreDirectives core_directives;
  core_directives.general = !translation.directives.IsSimpleClass();
  core_directives.has_clusters = translation.directives.C;
  core_directives.distinct_head = translation.directives.H;
  core_directives.has_input_rules = translation.directives.M;
  core_directives.has_cluster_couples = translation.directives.K;

  MR_ASSIGN_OR_RETURN(
      mining::CodedSourceData data,
      FetchEncodedData(preprocess->program, translation.directives));
  data.total_groups = preprocess->total_groups;

  // Coded-table cache footprint (the in-memory copy handed to the miners).
  const int64_t coded_bytes = static_cast<int64_t>(
      data.simple_pairs.size() *
          sizeof(decltype(data.simple_pairs)::value_type) +
      data.body_rows.size() * sizeof(decltype(data.body_rows)::value_type) +
      data.head_rows.size() * sizeof(decltype(data.head_rows)::value_type) +
      data.cluster_couples.size() *
          sizeof(decltype(data.cluster_couples)::value_type) +
      data.input_rules.size() *
          sizeof(decltype(data.input_rules)::value_type));
  GlobalMetrics().GetGauge("engine.coded_cache_bytes")->UpdateMax(coded_bytes);

  mining::CoreOptions core_options;
  core_options.algorithm = options.algorithm;
  core_options.simple_options = options.simple_options;
  core_options.num_threads = options.num_threads;
  MR_ASSIGN_OR_RETURN(
      std::vector<mining::MinedRule> rules,
      RunCoreOperator(data, core_directives, stmt.min_support,
                      stmt.min_confidence, stmt.body_card, stmt.head_card,
                      core_options, &stats.core));
  stats.core_seconds = phase.ElapsedSeconds();
  stats.trace.Span("core", phase.ElapsedMicros());
  stats.trace.Counter("core.rules_found", stats.core.rules_found);

  // Attribute shared-pool usage to this run's core phase by delta. Other
  // concurrent DataMiningSystem instances would pollute the delta; the
  // usual single-system-per-thread setup makes it exact.
  const ThreadPoolStats pool_after = SharedThreadPool().Stats();
  stats.pool.workers = SharedThreadPool().size();
  stats.pool.tasks_run = pool_after.tasks_run - pool_before.tasks_run;
  stats.pool.busy_micros = pool_after.busy_micros - pool_before.busy_micros;
  stats.pool.per_worker_busy_micros.resize(
      pool_after.per_worker_busy_micros.size());
  for (size_t i = 0; i < pool_after.per_worker_busy_micros.size(); ++i) {
    stats.pool.per_worker_busy_micros[i] =
        pool_after.per_worker_busy_micros[i] -
        pool_before.per_worker_busy_micros[i];
  }
  stats.trace.Counter("pool.tasks_run", stats.pool.tasks_run);
  stats.trace.Counter("pool.busy_micros", stats.pool.busy_micros);

  // --- postprocessor -----------------------------------------------------
  stage_span.emplace("postprocess", "phase");
  phase.Restart();
  Postprocessor postprocessor(&sql_engine_);
  MR_ASSIGN_OR_RETURN(
      stats.output,
      postprocessor.Run(stmt, translation, rules, preprocess->total_groups,
                        preprocess->program));
  stats.postprocess_queries = stats.output.stats;
  stats.postprocess_seconds = phase.ElapsedSeconds();
  stats.trace.Span("postprocess", phase.ElapsedMicros());

  // Peak working-set estimate: the coded cache is alive for the whole core
  // phase; generated queries run one at a time, so only the widest query's
  // operator buffers add on top.
  stats.peak_bytes =
      coded_bytes + std::max(MaxQueryOperatorBytes(stats.preprocess_queries),
                             MaxQueryOperatorBytes(stats.postprocess_queries));

  executed_[ToLower(stmt.output_table)] =
      RenderInfo{stmt.select_support, stmt.select_confidence};

  if (!options.keep_encoded_tables) {
    // Rerun the idempotent drops; this also invalidates the cache.
    for (const GeneratedQuery& q : preprocess->program.drops) {
      MR_RETURN_IF_ERROR(sql_engine_.Execute(q.sql).status());
    }
    // The postprocessor's fixed-name normalized output is scratch too: it
    // must not outlive the run, or concurrent sessions' final catalog
    // state would depend on which run finished last (DESIGN.md §15).
    catalog_->DropTableIfExists("OutputBodies");
    catalog_->DropTableIfExists("OutputHeads");
    InvalidateCache();
    cached_preprocess_.reset();
  }
  return stats;
}

Result<std::string> DataMiningSystem::RenderRules(
    const std::string& output_table) {
  auto it = executed_.find(ToLower(output_table));
  if (it == executed_.end()) {
    return Status::NotFound("no MINE RULE run produced table " + output_table);
  }
  MineRuleStatement stmt;
  stmt.output_table = output_table;
  stmt.select_support = it->second.select_support;
  stmt.select_confidence = it->second.select_confidence;
  return RenderRuleTable(&sql_engine_, stmt);
}

}  // namespace minerule::mr
