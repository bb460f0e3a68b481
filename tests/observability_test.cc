// The observability layer end to end: EXPLAIN / EXPLAIN ANALYZE plan
// rendering, per-operator statistics threaded into MiningRunStats, per-pass
// mining counters, and the JSON trace export.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/json.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"

namespace minerule {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : system_(&catalog_) {}

  sql::QueryResult MustSql(const std::string& sql) {
    auto result = system_.ExecuteSql(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : sql::QueryResult{};
  }

  // Joins the one-column EXPLAIN result back into a plan text.
  std::string Plan(const std::string& sql) {
    sql::QueryResult result = MustSql(sql);
    EXPECT_EQ(result.schema.num_columns(), 1u);
    std::string plan;
    for (const Row& row : result.rows) {
      plan += row[0].AsString();
      plan += '\n';
    }
    return plan;
  }

  void SetUpSmallTables() {
    MustSql("CREATE TABLE t (a INTEGER, b VARCHAR)");
    MustSql("INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')");
    MustSql("CREATE TABLE s (a INTEGER, c DOUBLE)");
    MustSql("INSERT INTO s VALUES (1, 1.5), (2, 2.5)");
  }

  Catalog catalog_;
  mr::DataMiningSystem system_;
};

// Non-ANALYZE EXPLAIN output carries no timings or row counts, so it is
// deterministic — pinned here as a golden plan.
TEST_F(ObservabilityTest, ExplainGoldenPlan) {
  SetUpSmallTables();
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b, s.c FROM t, s WHERE t.a = s.a AND "
                 "s.c > 1 ORDER BY t.b LIMIT 2"),
            "Limit (2)\n"
            "  -> Sort (b)\n"
            "    -> Project (t.b, s.c)\n"
            "      -> HashJoin (t.a = s.a)\n"
            "        -> TableScan (t)\n"
            "        -> Filter ((s.c > 1))\n"
            "          -> TableScan (s)\n");
  EXPECT_EQ(Plan("EXPLAIN SELECT a, COUNT(*) FROM t GROUP BY a "
                 "HAVING COUNT(*) > 0"),
            "Project (a, COUNT(*))\n"
            "  -> Filter ((COUNT(*) > 0))\n"
            "    -> HashAggregate (keys=1 aggs=1 by a)\n"
            "      -> TableScan (t)\n");
}

// A conjunct over the right input alone filters that input below the join
// (DESIGN.md §18) — here above a renaming view, the shape of the
// elementary-rule query's `MiningSourceH_View AS S2 ... S2.price < 100`.
TEST_F(ObservabilityTest, ExplainFiltersRightInputBelowJoin) {
  SetUpSmallTables();
  MustSql("CREATE VIEW s_view AS (SELECT a AS k, c AS price FROM s)");
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b, v.price FROM t, s_view AS v "
                 "WHERE t.a = v.k AND v.price < 2"),
            "Project (t.b, v.price)\n"
            "  -> HashJoin (t.a = v.k)\n"
            "    -> TableScan (t)\n"
            "    -> Filter ((v.price < 2))\n"
            "      -> Project (a, c)\n"
            "        -> TableScan (s)\n");
}

// What stays off the right input: a NEXTVAL conjunct (it advances its
// sequence once per evaluated row, so it keeps running on joined rows),
// and an unqualified column both inputs carry, which keeps its binding to
// the left input.
TEST_F(ObservabilityTest, ExplainKeepsNextValAndSharedColumnOffRightInput) {
  SetUpSmallTables();
  MustSql("CREATE SEQUENCE q START WITH 1");
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b FROM t, s WHERE t.a = s.a AND "
                 "s.a < q.NEXTVAL"),
            "Project (t.b)\n"
            "  -> Filter ((s.a < q.NEXTVAL))\n"
            "    -> HashJoin (t.a = s.a)\n"
            "      -> TableScan (t)\n"
            "      -> TableScan (s)\n");
  // A column both inputs carry must be qualified, in WHERE as in the select
  // list; its filter then goes onto its own input.
  auto ambiguous = system_.ExecuteSql(
      "EXPLAIN SELECT t.b FROM t, s WHERE t.a = s.a AND a > 1");
  ASSERT_FALSE(ambiguous.ok());
  EXPECT_EQ(ambiguous.status().code(), StatusCode::kSemanticError);
  EXPECT_EQ(Plan("EXPLAIN SELECT t.b FROM t, s WHERE t.a = s.a AND t.a > 1"),
            "Project (t.b)\n"
            "  -> HashJoin (t.a = s.a)\n"
            "    -> Filter ((t.a > 1))\n"
            "      -> TableScan (t)\n"
            "    -> TableScan (s)\n");
}

TEST_F(ObservabilityTest, ExplainAnalyzeReportsRowsAndTime) {
  SetUpSmallTables();
  const std::string plan = Plan("EXPLAIN ANALYZE SELECT b FROM t WHERE a >= 2");
  EXPECT_NE(plan.find("Filter ((a >= 2)) rows=2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("TableScan (t) rows=3"), std::string::npos) << plan;
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
}

// Operator time accumulates in nanoseconds: a serial scan's Next() calls
// each take well under a microsecond, and truncating every call to whole
// microseconds reported a 100k-row scan at 0.03-0.16 ms. Each timed call
// costs at least a clock read (tens of ns), so the true total is well over
// 10 ns per row.
TEST_F(ObservabilityTest, ExplainAnalyzeCountsSubMicrosecondCalls) {
  auto table = catalog_.CreateTable(
      "big", Schema({{"a", DataType::kInteger}}));
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 100000; ++i) {
    table.value()->AppendUnchecked({Value::Integer(i)});
  }
  system_.sql_engine()->set_num_threads(1);
  const std::string plan = Plan("EXPLAIN ANALYZE SELECT a FROM big");
  const std::string marker = "TableScan (big) rows=100000 time=";
  const size_t at = plan.find(marker);
  ASSERT_NE(at, std::string::npos) << plan;
  const double scan_ms = std::strtod(plan.c_str() + at + marker.size(), nullptr);
  EXPECT_GE(scan_ms, 1.0) << plan;  // 100000 rows x 10 ns
}

TEST_F(ObservabilityTest, ExplainAnalyzeHashJoinCounters) {
  SetUpSmallTables();
  const std::string plan =
      Plan("EXPLAIN ANALYZE SELECT t.b FROM t, s WHERE t.a = s.a");
  EXPECT_NE(plan.find("build_rows=2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("buckets="), std::string::npos) << plan;
}

// ANALYZE on a side-effecting statement profiles the SELECT only: the
// insert must not happen.
TEST_F(ObservabilityTest, ExplainAnalyzeInsertAppliesNoSideEffects) {
  SetUpSmallTables();
  const std::string plan =
      Plan("EXPLAIN ANALYZE INSERT INTO t (SELECT a + 10, b FROM t)");
  EXPECT_NE(plan.find("rows=3"), std::string::npos) << plan;
  sql::QueryResult count = MustSql("SELECT COUNT(*) FROM t");
  EXPECT_EQ(count.rows[0][0].AsInteger(), 3);
}

TEST_F(ObservabilityTest, ExplainRejectsUnsupportedStatements) {
  SetUpSmallTables();
  auto result = system_.ExecuteSql("EXPLAIN DROP TABLE t");
  ASSERT_FALSE(result.ok());
  auto nested = system_.ExecuteSql("EXPLAIN EXPLAIN SELECT a FROM t");
  ASSERT_FALSE(nested.ok());
}

mr::MiningRunStats MustMine(mr::DataMiningSystem* system,
                            const std::string& statement) {
  auto stats = system->ExecuteMineRule(statement);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return stats.ok() ? std::move(stats).value() : mr::MiningRunStats{};
}

const char* kSimpleStatement =
    "MINE RULE Basket AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS "
    "HEAD, SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer "
    "EXTRACTING RULES WITH SUPPORT: 0.15, CONFIDENCE: 0.3";

class MiningObservabilityTest : public ObservabilityTest {
 protected:
  void SetUpRetail() {
    datagen::RetailParams params;
    params.num_customers = 40;
    params.num_items = 40;
    auto table =
        datagen::GenerateRetailTable(&catalog_, "Purchase", params);
    ASSERT_TRUE(table.ok()) << table.status();
  }
};

// Every generated query's operator profile must agree with the query-level
// row count: the root operator saw exactly the rows the query returned or
// inserted.
TEST_F(MiningObservabilityTest, OperatorRowCountsMatchQueryTotals) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  int profiled = 0;
  for (const auto* queries :
       {&stats.preprocess_queries, &stats.postprocess_queries}) {
    for (const mr::QueryStat& q : *queries) {
      if (q.operators.empty()) continue;  // DDL has no plan
      ++profiled;
      EXPECT_EQ(q.operators.front().depth, 0) << q.sql;
      EXPECT_EQ(q.operators.front().rows, q.rows) << q.sql;
    }
  }
  EXPECT_GE(profiled, 5);
}

TEST_F(MiningObservabilityTest, PerPassCountersArePopulated) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  EXPECT_FALSE(stats.core.used_general);
  // The default algorithm is "auto", which resolves to the gid-list miner;
  // the stats report the resolved pool member.
  EXPECT_EQ(stats.core.algorithm, "gidlist");
  EXPECT_GE(stats.core.simple.passes, 1);
  ASSERT_FALSE(stats.core.simple.candidates_per_level.empty());
  ASSERT_FALSE(stats.core.simple.large_per_level.empty());
  // Level 1 candidates are the frequent-item candidates: at least as many
  // as survived.
  EXPECT_GE(stats.core.simple.candidates_per_level[0],
            stats.core.simple.large_per_level[0]);
  EXPECT_GT(stats.core.rules_found, 0);

  // Trace spans cover all four phases.
  std::vector<std::string> spans;
  for (const TraceEvent& event : stats.trace.events()) {
    if (event.is_span) spans.push_back(event.name);
  }
  EXPECT_EQ(spans, (std::vector<std::string>{"translate", "preprocess",
                                             "core", "postprocess"}));

  // Pool usage: per-worker vectors sized to the pool, totals consistent.
  EXPECT_GE(stats.pool.workers, 1);
  EXPECT_EQ(stats.pool.per_worker_busy_micros.size(),
            static_cast<size_t>(stats.pool.workers));
}

TEST_F(MiningObservabilityTest, ToJsonRoundTripsThroughValidator) {
  SetUpRetail();
  mr::MiningRunStats stats = MustMine(&system_, kSimpleStatement);
  const std::string json = stats.ToJson();
  Status valid = ValidateJson(json);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << json;
  for (const char* key :
       {"\"directives\"", "\"phases\"", "\"preprocess_queries\"",
        "\"core\"", "\"thread_pool\"", "\"trace\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST_F(MiningObservabilityTest, DhpCountersSurfaceThroughRunStats) {
  SetUpRetail();
  mr::MiningOptions options;
  options.algorithm = mining::SimpleAlgorithm::kDhp;
  auto stats = system_.ExecuteMineRule(kSimpleStatement, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().core.algorithm, "dhp");
  // The hash filter saw the raw pair space and kept a subset.
  EXPECT_GT(stats.value().core.simple.dhp_unfiltered_pairs, 0);
  EXPECT_LE(stats.value().core.simple.dhp_filtered_pairs,
            stats.value().core.simple.dhp_unfiltered_pairs);
}

TEST_F(MiningObservabilityTest, PartitionSliceSizesSurfaceThroughRunStats) {
  SetUpRetail();
  mr::MiningOptions options;
  options.algorithm = mining::SimpleAlgorithm::kPartition;
  options.simple_options.partition_count = 4;
  auto stats = system_.ExecuteMineRule(kSimpleStatement, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  const auto& sizes = stats.value().core.simple.partition_slice_sizes;
  ASSERT_EQ(sizes.size(), 4u);
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  // The slices cover every group that has at least one frequent item.
  EXPECT_GT(total, 0);
  EXPECT_LE(total, stats.value().total_groups);
}

}  // namespace
}  // namespace minerule
