// The traced run's layer-by-layer drive of one MINE RULE statement. It
// repeats DataMiningSystem::ExecuteStatementImpl's sequence of public calls
// so that its output tables are byte-identical to the untraced path's, and
// brackets each call with a span. Layer names follow the source modules:
// minerule, preprocess, sql, engine, mining, postprocess.

#include "bench.h"
#include "common/thread_pool.h"
#include "minerule/parser.h"
#include "minerule/translator.h"
#include "mining/core_operator.h"
#include "mining/simple_miner.h"
#include "postprocess/postprocessor.h"
#include "preprocess/preprocessor.h"
#include "preprocess/query_gen.h"

namespace perfbench {

using namespace minerule;

namespace {

// Query ids the generated program uses (Appendix A plus the general-class
// Q4b). Any other id is folded into sql.other_*.
const char* const kQueryIds[] = {"Q0", "Q1", "Q2",  "Q3",  "Q4",  "Q4b", "Q5",
                                 "Q6", "Q7", "Q8",  "Q9",  "Q10", "Q11"};

bool KnownQueryId(const std::string& id) {
  for (const char* known : kQueryIds) {
    if (id == known) return true;
  }
  return false;
}

Result<int64_t> IntAt(const Row& row, size_t index) {
  if (index >= row.size() || row[index].type() != DataType::kInteger) {
    return Status::Internal("coded table column " + std::to_string(index) +
                            " is not an integer");
  }
  return row[index].AsInteger();
}

/// The coded-table SELECTs that build the core operator's input, as
/// DataMiningSystem::FetchEncodedData runs them. Counts fetched rows.
Result<mining::CodedSourceData> FetchCodedData(sql::SqlEngine* engine,
                                               const mr::PreprocessProgram& p,
                                               const mr::Directives& d,
                                               int64_t* rows_fetched) {
  mining::CodedSourceData data;
  auto select = [&](const std::string& sql) -> Result<sql::QueryResult> {
    MR_ASSIGN_OR_RETURN(sql::QueryResult result, engine->Execute(sql));
    *rows_fetched += static_cast<int64_t>(result.rows.size());
    return result;
  };

  if (!p.coded_source.empty()) {
    MR_ASSIGN_OR_RETURN(sql::QueryResult coded,
                        select("SELECT Gid, Bid FROM " + p.coded_source));
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
    const std::string cols = d.C ? "Gid, Cid, " + std::string(item_col)
                                 : "Gid, " + std::string(item_col);
    MR_ASSIGN_OR_RETURN(sql::QueryResult rows,
                        select("SELECT " + cols + " FROM " + table));
    out->reserve(rows.rows.size());
    for (const Row& row : rows.rows) {
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      int64_t cid = mining::kNoCluster;
      size_t item_index = 1;
      if (d.C) {
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
  MR_RETURN_IF_ERROR(fetch_role(p.coded_source_b, "Bid", &data.body_rows));
  if (!p.coded_source_h.empty()) {
    MR_RETURN_IF_ERROR(fetch_role(p.coded_source_h, "Hid", &data.head_rows));
  }

  if (!p.cluster_couples.empty()) {
    MR_ASSIGN_OR_RETURN(
        sql::QueryResult couples,
        select("SELECT Gid, BCid, HCid FROM " + p.cluster_couples));
    for (const Row& row : couples.rows) {
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      MR_ASSIGN_OR_RETURN(int64_t bcid, IntAt(row, 1));
      MR_ASSIGN_OR_RETURN(int64_t hcid, IntAt(row, 2));
      data.cluster_couples.emplace_back(static_cast<mining::Gid>(gid),
                                        static_cast<mining::Cid>(bcid),
                                        static_cast<mining::Cid>(hcid));
    }
  }

  if (!p.input_rules.empty()) {
    const std::string cols = d.C ? "Gid, BCid, HCid, Bid, Hid" : "Gid, Bid, Hid";
    MR_ASSIGN_OR_RETURN(sql::QueryResult rules,
                        select("SELECT " + cols + " FROM " + p.input_rules));
    for (const Row& row : rules.rows) {
      mining::GeneralInput::ElementaryOccurrence occ;
      MR_ASSIGN_OR_RETURN(int64_t gid, IntAt(row, 0));
      occ.gid = static_cast<mining::Gid>(gid);
      size_t next = 1;
      occ.bcid = mining::kNoCluster;
      occ.hcid = mining::kNoCluster;
      if (d.C) {
        MR_ASSIGN_OR_RETURN(int64_t bcid, IntAt(row, next++));
        MR_ASSIGN_OR_RETURN(int64_t hcid, IntAt(row, next++));
        occ.bcid = static_cast<mining::Cid>(bcid);
        occ.hcid = static_cast<mining::Cid>(hcid);
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

/// Runs one generated query in its own span and adds its time (and rows,
/// for Qn) to the sql.* metrics.
Status RunQuery(sql::SqlEngine* engine, const mr::GeneratedQuery& q,
                SpanLog* log, int parent, int64_t statement,
                LayerValues* v) {
  const bool ddl = q.id == "DROP" || q.id == "DDL";
  const std::string key =
      ddl ? "sql.ddl" : (KnownQueryId(q.id) ? "sql." + q.id : "sql.other");
  const int span = log->Begin("sql." + q.id, parent, statement);
  MR_ASSIGN_OR_RETURN(sql::QueryResult result, engine->Execute(q.sql));
  (*v)[key + "_ms"] += log->End(span);
  if (!ddl) {
    (*v)[key + "_rows"] += static_cast<double>(
        result.affected_rows > 0 ? result.affected_rows
                                 : static_cast<int64_t>(result.rows.size()));
  }
  return Status::OK();
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto metrics = [] {
    std::vector<std::pair<std::string, std::string>> m{
        {"minerule.translate_ms", "ms"},
        {"preprocess.codegen_ms", "ms"},
        {"preprocess.total_ms", "ms"},
        {"sql.ddl_ms", "ms"}};
    for (const char* id : kQueryIds) {
      m.push_back({std::string("sql.") + id + "_ms", "ms"});
      m.push_back({std::string("sql.") + id + "_rows", "count"});
    }
    m.insert(m.end(), {{"sql.other_ms", "ms"},
                         {"sql.other_rows", "count"},
                         {"engine.fetch_ms", "ms"},
                         {"engine.fetch_rows", "count"},
                         {"mining.core_ms", "ms"},
                         {"mining.candidates", "count"},
                         {"mining.large", "count"},
                         {"mining.large_per_candidate", "ratio"},
                         {"mining.cells_evaluated", "count"},
                         {"mining.pool_busy_frac", "ratio"},
                         {"postprocess.total_ms", "ms"},
                         {"postprocess.decode_ms", "ms"},
                         {"postprocess.rules", "count"},
                         {"server.queue_wait_ms_p50", "ms"},
                         {"server.queue_wait_ms_p90", "ms"},
                         {"server.queued_frac", "ratio"},
                         {"server.exec_ms_p50", "ms"},
                         {"bench.reference_ms", "ms"},
                         {"trace.total_ms", "ms"},
                         {"trace.unattributed_ms", "ms"},
                         {"engine.untraced_ms", "ms"},
                         {"engine.self_ms", "ms"},
                         {"trace.overhead_frac", "ratio"}});
    return m;
  }();
  return metrics;
}

Result<LayerValues> DriveMineRule(Catalog* catalog, sql::SqlEngine* engine,
                                  std::string_view text,
                                  const mr::MiningOptions& options,
                                  SpanLog* log, int64_t statement) {
  LayerValues v;
  const int root = log->Begin("statement", -1, statement);

  // The engine settings DataMiningSystem applies before every run.
  engine->set_num_threads(options.num_threads);
  engine->set_vectorized(options.vectorized_sql);
  engine->set_cost_based(options.cost_based_sql);
  if (options.memory_limit != mr::MiningOptions::kMemoryLimitInherit) {
    engine->set_memory_limit(options.memory_limit);
  }

  // --- minerule: parse and translate ----------------------------------
  int span = log->Begin("minerule.translate", root, statement);
  MR_ASSIGN_OR_RETURN(mr::MineRuleStatement stmt, mr::ParseMineRule(text));
  mr::Translator translator(
      catalog, [engine](const std::string& view) -> Result<Schema> {
        MR_ASSIGN_OR_RETURN(
            sql::QueryResult probe,
            engine->Execute("SELECT * FROM " + view + " LIMIT 0"));
        return probe.schema;
      });
  MR_ASSIGN_OR_RETURN(mr::Translation translation,
                      translator.Translate(stmt));
  v["minerule.translate_ms"] = log->End(span);

  // --- preprocess: code generation, then the Q-program through sql -----
  const int preprocess = log->Begin("preprocess", root, statement);
  span = log->Begin("preprocess.codegen", preprocess, statement);
  MR_ASSIGN_OR_RETURN(mr::PreprocessProgram program,
                      mr::GeneratePreprocessProgram(stmt, translation));
  v["preprocess.codegen_ms"] = log->End(span);

  int64_t total_groups = 0;
  for (const mr::GeneratedQuery& q : program.drops) {
    MR_RETURN_IF_ERROR(RunQuery(engine, q, log, preprocess, statement, &v));
  }
  for (const mr::GeneratedQuery& q : program.setup) {
    MR_RETURN_IF_ERROR(RunQuery(engine, q, log, preprocess, statement, &v));
  }
  for (const mr::GeneratedQuery& q : program.queries) {
    MR_RETURN_IF_ERROR(RunQuery(engine, q, log, preprocess, statement, &v));
    if (q.computes_group_total) {
      // Host variables as Preprocessor::RunProgram carries them.
      MR_ASSIGN_OR_RETURN(Value totg, engine->GetHostVariable("totg"));
      if (totg.type() != DataType::kInteger) {
        return Status::Internal(":totg is not an integer");
      }
      total_groups = totg.AsInteger();
      engine->SetHostVariable(
          "mingroups",
          Value::Integer(mining::MinGroupCount(stmt.min_support,
                                               total_groups)));
    }
  }
  v["preprocess.total_ms"] = log->End(preprocess);

  // --- engine: coded tables into the core operator's input ------------
  const mr::Directives& d = translation.directives;
  span = log->Begin("engine.fetch", root, statement);
  int64_t fetched = 0;
  MR_ASSIGN_OR_RETURN(mining::CodedSourceData data,
                      FetchCodedData(engine, program, d, &fetched));
  data.total_groups = total_groups;
  v["engine.fetch_ms"] = log->End(span);
  v["engine.fetch_rows"] = static_cast<double>(fetched);

  // --- mining: the core operator --------------------------------------
  mining::CoreDirectives core_directives;
  core_directives.general = !d.IsSimpleClass();
  core_directives.has_clusters = d.C;
  core_directives.distinct_head = d.H;
  core_directives.has_input_rules = d.M;
  core_directives.has_cluster_couples = d.K;
  mining::CoreOptions core_options;
  core_options.algorithm = options.algorithm;
  core_options.simple_options = options.simple_options;
  core_options.num_threads = options.num_threads;
  mining::CoreStats core;
  span = log->Begin("mining.core", root, statement);
  const ThreadPoolStats pool_before = SharedThreadPool().Stats();
  MR_ASSIGN_OR_RETURN(
      std::vector<mining::MinedRule> rules,
      mining::RunCoreOperator(data, core_directives, stmt.min_support,
                              stmt.min_confidence, stmt.body_card,
                              stmt.head_card, core_options, &core));
  const ThreadPoolStats pool_after = SharedThreadPool().Stats();
  const double core_ms = log->End(span);
  v["mining.core_ms"] = core_ms;

  double candidates = 0;
  double large = 0;
  if (core.used_general) {
    candidates = static_cast<double>(core.general.elementary_candidates);
    large = static_cast<double>(core.general.elementary_rules);
    for (const auto& set : core.general.sets) {
      candidates += static_cast<double>(set.candidates);
      large += static_cast<double>(set.kept);
    }
    v["mining.cells_evaluated"] =
        static_cast<double>(core.general.cells_evaluated);
  } else {
    for (int64_t c : core.simple.candidates_per_level) candidates += c;
    for (int64_t l : core.simple.large_per_level) large += l;
  }
  v["mining.candidates"] = candidates;
  v["mining.large"] = large;
  v["mining.large_per_candidate"] = candidates > 0 ? large / candidates : 0;
  const double workers = SharedThreadPool().size();
  const double busy_ms =
      static_cast<double>(pool_after.busy_micros - pool_before.busy_micros) /
      1e3;
  v["mining.pool_busy_frac"] =
      workers > 0 && core_ms > 0 ? busy_ms / (workers * core_ms) : 0;

  // --- postprocess: materialize and decode the rule tables ------------
  span = log->Begin("postprocess", root, statement);
  mr::Postprocessor postprocessor(engine);
  MR_ASSIGN_OR_RETURN(mr::PostprocessResult output,
                      postprocessor.Run(stmt, translation, rules,
                                        total_groups, program));
  v["postprocess.total_ms"] = log->End(span);
  double decode_micros = 0;
  for (const mr::QueryStat& q : output.stats) decode_micros += q.micros;
  v["postprocess.decode_ms"] = decode_micros / 1e3;
  v["postprocess.rules"] = static_cast<double>(output.num_rules);

  double cleanup_ms = 0;
  if (!options.keep_encoded_tables) {
    // The scratch cleanup DataMiningSystem runs for server sessions.
    span = log->Begin("sql.ddl", root, statement);
    for (const mr::GeneratedQuery& q : program.drops) {
      MR_RETURN_IF_ERROR(engine->Execute(q.sql).status());
    }
    catalog->DropTableIfExists("OutputBodies");
    catalog->DropTableIfExists("OutputHeads");
    cleanup_ms = log->End(span);
    v["sql.ddl_ms"] += cleanup_ms;
  }

  v["trace.total_ms"] = log->End(root);
  v["trace.layers_ms"] = v["minerule.translate_ms"] +
                         v["preprocess.total_ms"] + v["engine.fetch_ms"] +
                         v["mining.core_ms"] + v["postprocess.total_ms"] +
                         cleanup_ms;
  v["trace.unattributed_ms"] = v["trace.total_ms"] - v["trace.layers_ms"];
  return v;
}

}  // namespace perfbench
