// Differential tests of morsel-driven parallel execution (DESIGN.md §9):
// every query result must be BIT-identical — same rows in the same order,
// or the same error — at every thread count. Covers the SELECT surface
// (joins, aggregation, DISTINCT, ORDER BY, HAVING, LIMIT, subqueries) over
// integer, double, string, date and mixed-type columns, randomized queries,
// DML through SELECT, the NEXTVAL serial gate, full MINE RULE runs
// (preprocessor Q0..Q11 + postprocessor over identical catalogs), and the
// workers/morsels observability counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/retail_gen.h"
#include "engine/data_mining_system.h"
#include "sql/engine.h"

namespace minerule {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// Serializes every table in the catalog — names, schemas, and all rows in
/// stored order — so two catalogs compare byte-identical.
std::string DumpCatalog(Catalog* catalog) {
  std::vector<std::string> names = catalog->TableNames();
  std::sort(names.begin(), names.end());
  std::string dump;
  for (const std::string& name : names) {
    auto table = catalog->GetTable(name);
    if (!table.ok()) continue;
    dump += "== " + name + "\n";
    for (const Column& col : table.value()->schema().columns()) {
      dump += col.name + ":" + std::to_string(static_cast<int>(col.type)) + ",";
    }
    dump += "\n";
    for (const std::string& line : RenderRows(table.value()->rows())) {
      dump += line + "\n";
    }
  }
  return dump;
}

class SqlParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  SqlParallelDifferentialTest() : engine_(&catalog_) {}

  /// L, R and E are integer-only: a big and a small join side and an empty
  /// one. F spans integer (with NULLs), double, string and date columns; D
  /// is a small int-keyed dimension; M has an INTEGER-declared column
  /// holding a mix of Integer, integral Double, fractional Double and NULL
  /// values, so cross-type key equality gets exercised.
  void GenerateTables(uint64_t seed) {
    Random rng(seed);
    auto big = catalog_.CreateTable(
        "L", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
    auto small = catalog_.CreateTable(
        "R", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    auto empty = catalog_.CreateTable(
        "E", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(empty.ok());
    // > kMorselRows rows so parallel runs span several morsels; ~5% NULL
    // keys to exercise null-join and null-group semantics.
    for (int i = 0; i < 3000; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      big.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 999))});
    }
    for (int i = 0; i < 500; ++i) {
      Value key = rng.NextBool(0.05) ? Value::Null()
                                     : Value::Integer(rng.NextInt(0, 200));
      small.value()->AppendUnchecked(
          {key, Value::Integer(rng.NextInt(0, 999))});
    }

    StreamRng root(seed);
    auto facts = catalog_.CreateTable(
        "F", Schema({{"id", DataType::kInteger},
                     {"k", DataType::kInteger},
                     {"d", DataType::kDouble},
                     {"s", DataType::kString},
                     {"dt", DataType::kDate}}));
    auto dim = catalog_.CreateTable(
        "D", Schema({{"k", DataType::kInteger}, {"name", DataType::kString}}));
    auto mixed = catalog_.CreateTable(
        "M", Schema({{"a", DataType::kInteger}, {"b", DataType::kString}}));
    ASSERT_TRUE(facts.ok());
    ASSERT_TRUE(dim.ok());
    ASSERT_TRUE(mixed.ok());
    Random f = root.Stream("facts");
    for (int i = 0; i < 3000; ++i) {
      Value k = f.NextBool(0.05) ? Value::Null()
                                 : Value::Integer(f.NextInt(0, 200));
      Value d = f.NextBool(0.05)
                    ? Value::Null()
                    : Value::Double(static_cast<double>(f.NextInt(0, 4000)) /
                                    8.0);
      Value s = f.NextBool(0.05)
                    ? Value::Null()
                    : Value::String("item_" + std::to_string(f.NextInt(0, 24)));
      Value dt = f.NextBool(0.05)
                     ? Value::Null()
                     : Value::Date(static_cast<int32_t>(f.NextInt(9000, 9365)));
      facts.value()->AppendUnchecked(
          {Value::Integer(i), std::move(k), std::move(d), std::move(s),
           std::move(dt)});
    }
    Random g = root.Stream("dim");
    for (int i = 0; i < 300; ++i) {
      Value k = g.NextBool(0.05) ? Value::Null()
                                 : Value::Integer(g.NextInt(0, 200));
      dim.value()->AppendUnchecked(
          {std::move(k), Value::String("d" + std::to_string(i % 40))});
    }
    Random m = root.Stream("mixed");
    for (int i = 0; i < 1500; ++i) {
      Value a;
      switch (m.NextBounded(4)) {
        case 0: a = Value::Integer(m.NextInt(0, 50)); break;
        case 1: a = Value::Double(static_cast<double>(m.NextInt(0, 50))); break;
        case 2: a = Value::Double(static_cast<double>(m.NextInt(0, 50)) + 0.5); break;
        default: a = Value::Null(); break;
      }
      mixed.value()->AppendUnchecked(
          {std::move(a), Value::String("m" + std::to_string(i % 15))});
    }
  }

  /// Runs `sql` at every thread count and requires the outcome to be
  /// identical to the serial (threads == 1) baseline: the same rows in the
  /// same order or, when `expect_error`, the same error.
  void ExpectIdenticalAcrossThreadCounts(const std::string& sql,
                                         bool expect_error = false) {
    std::vector<std::string> baseline;
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto result = engine_.Execute(sql);
      ASSERT_EQ(result.ok(), !expect_error)
          << sql << " at " << threads << " threads -> " << result.status();
      std::vector<std::string> rendered =
          result.ok() ? RenderRows(result.value().rows)
                      : std::vector<std::string>{result.status().ToString()};
      if (threads == 1) {
        baseline = std::move(rendered);
        continue;
      }
      EXPECT_EQ(rendered, baseline)
          << sql << " diverged at " << threads << " threads";
    }
    engine_.set_num_threads(1);
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_P(SqlParallelDifferentialTest, QuerySweepBitIdentical) {
  GenerateTables(GetParam());
  const char* queries[] = {
      // Fused scan+filter+project.
      "SELECT v, v * 2 + 1 FROM L WHERE v > 500",
      // Hash join: parallel partitioned build + morsel probe.
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k",
      // Join with residual predicate.
      "SELECT L.v, R.w FROM L, R WHERE L.k = R.k AND L.v < R.w",
      // Empty build side: probe-side scan skipped.
      "SELECT L.v, E.w FROM L, E WHERE L.k = E.k",
      // Merge-exact aggregates: parallel with deterministic group order.
      "SELECT k, COUNT(*), MIN(v), MAX(v) FROM L GROUP BY k",
      "SELECT k, COUNT(DISTINCT v) FROM L GROUP BY k",
      "SELECT COUNT(*), MIN(v), MAX(v) FROM L",
      // SUM/AVG are order-sensitive: serial fallback, still identical.
      "SELECT k, SUM(v), AVG(v) FROM L GROUP BY k",
      // DISTINCT keeps the serial first-seen order.
      "SELECT DISTINCT k FROM L",
      "SELECT DISTINCT k, v / 100 FROM L",
      // Sort (parallel key evaluation, serial stable sort).
      "SELECT k, v FROM L ORDER BY k DESC, v",
      // Aggregation over a join, HAVING, ORDER BY.
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k GROUP BY L.k "
      "HAVING COUNT(*) > 2 ORDER BY L.k",
      // LIMIT stays serial; the rows it sees arrive in scan order.
      "SELECT k, v FROM L WHERE v >= 0 LIMIT 37",
      // Subquery materialization.
      "SELECT v FROM (SELECT v FROM L WHERE k < 100) AS sub WHERE v < 900",
      // Build-side filters: conjuncts over the right input alone run
      // below the join (DESIGN.md §18), also above a renaming subquery and
      // on the second join of a chain.
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k AND R.w < 300",
      "SELECT L.v, R.w FROM L, R WHERE L.k = R.k AND R.w > 100 AND "
      "L.v < R.w",
      "SELECT L.v, sub.w2 FROM L, (SELECT k AS k2, w AS w2 FROM R) AS sub "
      "WHERE L.k = sub.k2 AND sub.w2 < 500 AND L.v > 200",
      "SELECT L.v, E.w FROM L, E WHERE L.k = E.k AND E.w > 0",
      "SELECT L.v, R.w FROM L, R WHERE L.k = R.k AND R.w > 2000",
  };
  for (const char* sql : queries) {
    ExpectIdenticalAcrossThreadCounts(sql);
  }
}

TEST_P(SqlParallelDifferentialTest, TypedQuerySweepBitIdentical) {
  GenerateTables(GetParam());
  const char* queries[] = {
      "SELECT id, k, d, s, dt FROM F WHERE k > 50",
      "SELECT id FROM F WHERE k >= 10 AND k < 150 AND d > 2.5",
      "SELECT id, d FROM F WHERE d <= 250.0",
      // Cross-type literal compares: double column vs integer literal,
      // integer column vs fractional double literal.
      "SELECT id FROM F WHERE d < 100",
      "SELECT id FROM F WHERE k > 3.5",
      "SELECT id FROM F WHERE k <= 199.25",
      // Integer column vs an out-of-range double: all or nothing.
      "SELECT id FROM F WHERE k < 1.0e300",
      "SELECT id FROM F WHERE k > 1.0e300",
      // String predicates: equality, range, inequality.
      "SELECT id, s FROM F WHERE s = 'item_3'",
      "SELECT id FROM F WHERE s >= 'item_2' AND s <> 'item_7'",
      "SELECT id FROM F WHERE s < 'item_12'",
      // Date predicates: DATE literal and coerced string literal.
      "SELECT id, dt FROM F WHERE dt >= DATE '1995-01-01'",
      "SELECT id FROM F WHERE dt < '1995-03-15'",
      // Arithmetic on the column, OR, IS NULL.
      "SELECT id FROM F WHERE k + 1 > 50",
      "SELECT id FROM F WHERE k > 150 OR d < 10",
      "SELECT id FROM F WHERE k IS NULL",
      // Int-keyed hash join (NULL keys never match), join + filter, and a
      // join with a residual predicate.
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k",
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k AND F.d > 100",
      "SELECT F.id FROM F, D WHERE F.k = D.k AND F.id < D.k",
      // Empty build side: probe scan skipped.
      "SELECT F.id, E.w FROM F, E WHERE F.k = E.k",
      // Aggregation over integer, double and string arguments and keys.
      "SELECT k, COUNT(*), MIN(d), MAX(k) FROM F GROUP BY k",
      "SELECT k, SUM(d), AVG(d) FROM F GROUP BY k",
      "SELECT k, COUNT(d), SUM(k) FROM F GROUP BY k",
      "SELECT COUNT(*), SUM(k), AVG(d), MIN(s) FROM F",
      "SELECT COUNT(*), MIN(k) FROM E",
      "SELECT k, COUNT(DISTINCT s) FROM F GROUP BY k",
      "SELECT s, COUNT(*), SUM(d) FROM F GROUP BY s",
      // Aggregation over a join, HAVING, ORDER BY, LIMIT.
      "SELECT D.k, COUNT(*), SUM(F.d) FROM F, D WHERE F.k = D.k GROUP BY D.k "
      "HAVING COUNT(*) > 2 ORDER BY D.k",
      "SELECT k, d FROM F WHERE d >= 0 ORDER BY k DESC, id LIMIT 37",
      "SELECT DISTINCT k FROM F",
      "SELECT v FROM (SELECT k AS v FROM F WHERE k > 10) AS sub WHERE v < 100",
      // Mixed-type INTEGER column as group key and as join key.
      "SELECT a, COUNT(*) FROM M GROUP BY a",
      "SELECT F.id, M.b FROM F, M WHERE F.k = M.a",
      // Build-side filters over string, NULL-bearing and mixed columns,
      // and a three-way chain filtering both build inputs.
      "SELECT F.id, D.name FROM F, D WHERE F.k = D.k AND D.name >= 'd2'",
      "SELECT F.id, M.b FROM F, M WHERE F.k = M.a AND M.a < 25.5",
      "SELECT D.name, F.id, F.s FROM D, F WHERE D.k = F.k AND F.s = "
      "'item_3' AND F.dt IS NOT NULL",
      "SELECT F.id, D.name, M.b FROM F, D, M WHERE F.k = D.k AND D.k = M.a "
      "AND D.name <> 'd7' AND M.b < 'm5'",
  };
  for (const char* sql : queries) {
    ExpectIdenticalAcrossThreadCounts(sql);
  }
  // Error parity: a string column compared to an integer literal raises
  // the same per-row type error at every thread count.
  ExpectIdenticalAcrossThreadCounts("SELECT id FROM F WHERE s > 5",
                                    /*expect_error=*/true);
}

TEST_P(SqlParallelDifferentialTest, RandomizedQueriesBitIdentical) {
  GenerateTables(GetParam());
  StreamRng root(GetParam());
  Random rng = root.Stream("queries");
  static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  auto predicate = [&rng]() -> std::string {
    const char* op = kOps[rng.NextBounded(6)];
    switch (rng.NextBounded(6)) {
      case 0:
        return "F.k " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 200));
      case 1:
        return "F.k " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 200)) + "." +
               std::to_string(rng.NextInt(0, 9));
      case 2:
        return "F.d " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 500)) + ".5";
      case 3:
        return "F.d " + std::string(op) + " " +
               std::to_string(rng.NextInt(0, 500));
      case 4:
        return "F.s " + std::string(op) + " 'item_" +
               std::to_string(rng.NextInt(0, 30)) + "'";
      default:
        return "F.dt " + std::string(op) + " DATE '1995-0" +
               std::to_string(rng.NextInt(1, 6)) + "-15'";
    }
  };
  auto where = [&rng, &predicate]() -> std::string {
    std::string out = predicate();
    for (uint64_t extra = rng.NextBounded(3); extra > 0; --extra) {
      out += " AND " + predicate();
    }
    return out;
  };
  for (int i = 0; i < 40; ++i) {
    std::string sql;
    switch (rng.NextBounded(4)) {
      case 0:
        sql = "SELECT F.id, F.k, F.d FROM F WHERE " + where();
        break;
      case 1:
        sql = "SELECT F.id, D.name FROM F, D WHERE F.k = D.k AND " + where();
        break;
      case 2:
        sql = "SELECT F.k, COUNT(*), SUM(F.d), MIN(F.k), MAX(F.d) FROM F "
              "WHERE " + where() + " GROUP BY F.k";
        break;
      default:
        sql = "SELECT D.k, COUNT(*), AVG(F.d) FROM F, D WHERE F.k = D.k AND " +
              where() + " GROUP BY D.k";
        break;
    }
    ExpectIdenticalAcrossThreadCounts(sql);
  }
}

TEST_P(SqlParallelDifferentialTest, DmlThroughSelectMatches) {
  GenerateTables(GetParam());
  // CREATE TABLE AS SELECT and INSERT ... SELECT funnel parallel results
  // into stored tables; the stored bytes must match the serial run.
  std::string baseline;
  for (int threads : kThreadCounts) {
    (void)engine_.Execute("DROP TABLE IF EXISTS agg_out");
    engine_.set_num_threads(threads);
    ASSERT_TRUE(engine_
                    .Execute("CREATE TABLE agg_out AS SELECT k, COUNT(*) AS "
                             "c, SUM(d) AS s FROM F GROUP BY k")
                    .ok());
    ASSERT_TRUE(engine_
                    .Execute("INSERT INTO agg_out SELECT D.k, COUNT(*), "
                             "SUM(F.d) FROM F, D WHERE F.k = D.k GROUP BY "
                             "D.k")
                    .ok());
    auto table = catalog_.GetTable("agg_out");
    ASSERT_TRUE(table.ok());
    std::string dump;
    for (const std::string& line : RenderRows(table.value()->rows())) {
      dump += line + "\n";
    }
    if (threads == 1) {
      baseline = std::move(dump);
      continue;
    }
    EXPECT_EQ(dump, baseline) << "DML diverged at " << threads << " threads";
  }
  engine_.set_num_threads(1);
}

TEST_P(SqlParallelDifferentialTest, BuildSideFilterMatchesPostJoinFilter) {
  GenerateTables(GetParam());
  // The same condition written once over the right input alone (filtered
  // below the join) and once mixed with a never-NULL left column that
  // cannot change its value (`+ 0 * L.v`), which the planner can only apply
  // to joined rows. Both must give the same rows in the same order:
  // the pushed filter keeps probe order and in-bucket build order.
  const std::pair<const char*, const char*> pairs[] = {
      {"SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k AND R.w < 400",
       "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k AND "
       "R.w + 0 * L.v < 400"},
      {"SELECT L.v, sub.w2 FROM L, (SELECT k AS k2, w AS w2 FROM R) AS sub "
       "WHERE L.k = sub.k2 AND sub.w2 >= 250",
       "SELECT L.v, sub.w2 FROM L, (SELECT k AS k2, w AS w2 FROM R) AS sub "
       "WHERE L.k = sub.k2 AND sub.w2 + 0 * L.v >= 250"},
      {"SELECT R.w, D.name FROM R, D WHERE R.w < D.k AND D.k < 50",
       "SELECT R.w, D.name FROM R, D WHERE R.w < D.k AND "
       "D.k + 0 * R.w < 50"},
  };
  for (const auto& [pushed, post_join] : pairs) {
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto a = engine_.Execute(pushed);
      auto b = engine_.Execute(post_join);
      ASSERT_TRUE(a.ok()) << pushed << " -> " << a.status();
      ASSERT_TRUE(b.ok()) << post_join << " -> " << b.status();
      EXPECT_FALSE(a.value().rows.empty()) << pushed;
      EXPECT_EQ(RenderRows(a.value().rows), RenderRows(b.value().rows))
          << pushed << " at " << threads << " threads";
    }
  }
  engine_.set_num_threads(1);
}

TEST_P(SqlParallelDifferentialTest, StreamedInsertsMatchAcrossThreadCounts) {
  GenerateTables(GetParam());
  // INSERT ... SELECT and CREATE TABLE AS stream into their targets. At
  // every thread count (and, in CI, under a 1 KiB budget): a self-insert
  // appends exactly the pre-statement rows with the target on the probe
  // side, the build side or both sides of a join; a statement failing
  // part-way leaves the target byte-identical; a failing CREATE TABLE AS
  // leaves no table behind.
  auto dump_table = [this](const std::string& name) {
    auto table = catalog_.GetTable(name);
    EXPECT_TRUE(table.ok()) << name;
    std::string dump;
    if (!table.ok()) return dump;
    for (const std::string& line : RenderRows(table.value()->rows())) {
      dump += line + "\n";
    }
    return dump;
  };
  std::string baseline;
  for (int threads : kThreadCounts) {
    engine_.set_num_threads(threads);
    (void)engine_.Execute("DROP TABLE IF EXISTS S");
    ASSERT_TRUE(
        engine_.Execute("CREATE TABLE S AS SELECT k, v FROM L WHERE v < 600")
            .ok());
    const char* inserts[] = {
        "INSERT INTO S SELECT * FROM S",
        "INSERT INTO S SELECT S.k, S.v FROM S, R WHERE S.k = R.k AND "
        "R.w < 100",
        "INSERT INTO S SELECT R.k, S.v FROM R, S WHERE R.k = S.k AND "
        "S.v > 590",
        "INSERT INTO S SELECT a.k, b.v FROM S AS a, S AS b WHERE a.k = b.k "
        "AND a.v = b.v AND a.v < 20",
    };
    for (const char* sql : inserts) {
      const size_t before = catalog_.GetTable("S").value()->num_rows();
      auto result = engine_.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      EXPECT_EQ(catalog_.GetTable("S").value()->num_rows(),
                before + static_cast<size_t>(result.value().affected_rows))
          << sql;
    }
    const std::string dump = dump_table("S");
    // Failing part-way: integer division by zero at the first k = 100,
    // and the first fractional double that does not fit the INTEGER v.
    auto div = engine_.Execute("INSERT INTO S SELECT k, 1000 / (k - 100) "
                               "FROM L");
    ASSERT_FALSE(div.ok());
    EXPECT_EQ(div.status().code(), StatusCode::kExecutionError);
    auto coerce = engine_.Execute(
        "INSERT INTO S SELECT F.k, F.d FROM F WHERE F.d IS NOT NULL");
    ASSERT_FALSE(coerce.ok());
    EXPECT_EQ(coerce.status().code(), StatusCode::kTypeError);
    EXPECT_EQ(dump_table("S"), dump) << "failed INSERT left rows behind";
    auto ctas = engine_.Execute(
        "CREATE TABLE S_bad AS SELECT k, 1000 / (k - 100) AS q FROM L");
    ASSERT_FALSE(ctas.ok());
    EXPECT_FALSE(catalog_.HasTable("S_bad"));
    if (threads == 1) {
      baseline = dump;
      continue;
    }
    EXPECT_EQ(dump, baseline) << "streamed inserts diverged at " << threads
                              << " threads";
  }
  engine_.set_num_threads(1);
}

TEST_P(SqlParallelDifferentialTest, MemoryBudgetKeepsThreadCountInvariance) {
  GenerateTables(GetParam());
  // With a one-byte budget every buffering operator spills (DESIGN.md §13);
  // the disk-backed paths must preserve the bit-identity guarantee across
  // thread counts, and match the unbudgeted serial baseline exactly.
  const char* queries[] = {
      "SELECT k, v FROM L ORDER BY k DESC, v",
      "SELECT L.k, L.v, R.w FROM L, R WHERE L.k = R.k",
      "SELECT k, SUM(v), AVG(v) FROM L GROUP BY k",
      "SELECT L.k, COUNT(*) FROM L, R WHERE L.k = R.k GROUP BY L.k "
      "HAVING COUNT(*) > 2 ORDER BY L.k",
  };
  for (const char* sql : queries) {
    auto base = engine_.Execute(sql);
    ASSERT_TRUE(base.ok()) << sql << " -> " << base.status();
    std::vector<std::string> baseline = RenderRows(base.value().rows);
    engine_.set_memory_limit(1);
    for (int threads : kThreadCounts) {
      engine_.set_num_threads(threads);
      auto result = engine_.Execute(sql);
      ASSERT_TRUE(result.ok()) << sql << " -> " << result.status();
      EXPECT_EQ(RenderRows(result.value().rows), baseline)
          << sql << " diverged under budget at " << threads << " threads";
    }
    engine_.set_memory_limit(-1);
    engine_.set_num_threads(1);
  }
}

TEST_P(SqlParallelDifferentialTest, NextValForcesSerialAndStaysCorrect) {
  GenerateTables(GetParam());
  // NEXTVAL mutates the catalog, so any operator evaluating it must stay on
  // the serial path; the numbering must come out in scan order regardless
  // of the thread knob.
  std::vector<std::string> baseline;
  for (int threads : kThreadCounts) {
    (void)engine_.Execute("DROP SEQUENCE IF EXISTS seq");
    ASSERT_TRUE(engine_.Execute("CREATE SEQUENCE seq START WITH 1").ok());
    engine_.set_num_threads(threads);
    auto result =
        engine_.Execute("SELECT seq.NEXTVAL, v FROM L WHERE v > 100");
    ASSERT_TRUE(result.ok()) << result.status();
    std::vector<std::string> rendered = RenderRows(result.value().rows);
    if (threads == 1) {
      baseline = std::move(rendered);
      continue;
    }
    EXPECT_EQ(rendered, baseline) << "NEXTVAL diverged at " << threads;
  }
  engine_.set_num_threads(1);
}

TEST_P(SqlParallelDifferentialTest, ShuffleInvarianceOfAggregates) {
  GenerateTables(GetParam());
  // Shuffle L into L2: first-seen group order changes, but the set of
  // (group, aggregates) rows must not — at any thread count.
  auto source = catalog_.GetTable("L");
  ASSERT_TRUE(source.ok());
  std::vector<Row> rows = source.value()->rows();
  Random rng(GetParam() ^ 0x5eedu);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1],
              rows[static_cast<size_t>(rng.NextInt(0, static_cast<int64_t>(i) - 1))]);
  }
  auto shuffled = catalog_.CreateTable("L2", source.value()->schema());
  ASSERT_TRUE(shuffled.ok());
  for (Row& row : rows) shuffled.value()->AppendUnchecked(std::move(row));

  const std::string agg = ", COUNT(*), COUNT(DISTINCT v), MIN(v), MAX(v)";
  for (int threads : kThreadCounts) {
    engine_.set_num_threads(threads);
    auto original = engine_.Execute("SELECT k" + agg + " FROM L GROUP BY k");
    auto reordered = engine_.Execute("SELECT k" + agg + " FROM L2 GROUP BY k");
    ASSERT_TRUE(original.ok()) << original.status();
    ASSERT_TRUE(reordered.ok()) << reordered.status();
    std::vector<std::string> a = RenderRows(original.value().rows);
    std::vector<std::string> b = RenderRows(reordered.value().rows);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "shuffle variance at " << threads << " threads";
  }
  engine_.set_num_threads(1);
  ASSERT_TRUE(catalog_.DropTable("L2").ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlParallelDifferentialTest,
                         ::testing::Values(1u, 7u, 42u, 99991u));

class ParallelCountersTest : public ::testing::Test {
 protected:
  ParallelCountersTest() : engine_(&catalog_) {}

  const sql::OperatorProfile* FindOp(const std::vector<sql::OperatorProfile>& ops,
                                     const std::string& name) {
    for (const sql::OperatorProfile& op : ops) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  int64_t Counter(const sql::OperatorProfile& op, const std::string& key) {
    for (const auto& [k, v] : op.counters) {
      if (k == key) return v;
    }
    return -1;
  }

  Catalog catalog_;
  sql::SqlEngine engine_;
};

TEST_F(ParallelCountersTest, WorkersAndMorselsSurfaceInAnalyzeProfile) {
  auto table = catalog_.CreateTable(
      "T", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  ASSERT_TRUE(table.ok());
  const size_t kRows = 5000;
  for (size_t i = 0; i < kRows; ++i) {
    table.value()->AppendUnchecked(
        {Value::Integer(static_cast<int64_t>(i % 97)),
         Value::Integer(static_cast<int64_t>(i))});
  }

  engine_.set_num_threads(8);
  auto result =
      engine_.Execute("EXPLAIN ANALYZE SELECT v FROM T WHERE v >= 1000");
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& profile = result.value().profile;

  const sql::OperatorProfile* scan = FindOp(profile, "TableScan");
  ASSERT_NE(scan, nullptr);
  // The scan produced every input row, split over the fixed morsel count.
  EXPECT_EQ(scan->rows, static_cast<int64_t>(kRows));
  EXPECT_EQ(Counter(*scan, "morsels"),
            static_cast<int64_t>(MorselCount(kRows, sql::kMorselRows)));
  EXPECT_GE(Counter(*scan, "workers"), 1);

  const sql::OperatorProfile* filter = FindOp(profile, "Filter");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->rows, static_cast<int64_t>(kRows - 1000));
  EXPECT_EQ(Counter(*filter, "morsels"), Counter(*scan, "morsels"));

  // Serial run of the same query reports no parallel counters.
  engine_.set_num_threads(1);
  auto serial =
      engine_.Execute("EXPLAIN ANALYZE SELECT v FROM T WHERE v >= 1000");
  ASSERT_TRUE(serial.ok()) << serial.status();
  const sql::OperatorProfile* serial_scan =
      FindOp(serial.value().profile, "TableScan");
  ASSERT_NE(serial_scan, nullptr);
  EXPECT_EQ(Counter(*serial_scan, "morsels"), -1);
}

TEST_F(ParallelCountersTest, EmptyBuildSkipsProbeSideScan) {
  auto probe = catalog_.CreateTable(
      "P", Schema({{"k", DataType::kInteger}, {"v", DataType::kInteger}}));
  auto build = catalog_.CreateTable(
      "B", Schema({{"k", DataType::kInteger}, {"w", DataType::kInteger}}));
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(build.ok());
  for (int i = 0; i < 2000; ++i) {
    probe.value()->AppendUnchecked(
        {Value::Integer(i % 7), Value::Integer(i)});
  }

  for (int threads : {1, 8}) {
    engine_.set_num_threads(threads);
    auto result = engine_.Execute(
        "EXPLAIN ANALYZE SELECT P.v, B.w FROM P, B WHERE P.k = B.k");
    ASSERT_TRUE(result.ok()) << result.status();
    const sql::OperatorProfile* join =
        FindOp(result.value().profile, "HashJoin");
    ASSERT_NE(join, nullptr);
    EXPECT_EQ(join->rows, 0);
    EXPECT_EQ(Counter(*join, "probe_skipped"), 1) << threads << " threads";
    // The probe-side scan never ran: no rows pulled.
    const sql::OperatorProfile* scan =
        FindOp(result.value().profile, "TableScan");
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->rows, 0);
  }
  engine_.set_num_threads(1);
}

// Full MINE RULE runs over identical source data must leave byte-identical
// catalogs (every preprocessor Q0..Q11 intermediate kept via
// keep_encoded_tables, the rule tables, and the postprocessor output) at
// every thread count.
TEST(MineRuleParallelTest, WholePipelineBitIdenticalAcrossThreadCounts) {
  const char* statements[] = {
      "MINE RULE S AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD "
      "FROM Purchase GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.05, "
      "CONFIDENCE: 0.3",
      "MINE RULE G AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
      "SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price < 100 "
      "FROM Purchase GROUP BY customer CLUSTER BY date HAVING BODY.date < "
      "HEAD.date EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3",
  };
  for (const char* text : statements) {
    std::string baseline;
    int baseline_threads = 0;
    for (int threads : kThreadCounts) {
      Catalog catalog;
      mr::DataMiningSystem system(&catalog);
      datagen::RetailParams params;
      params.num_customers = 120;
      params.num_items = 40;
      ASSERT_TRUE(
          datagen::GenerateRetailTable(&catalog, "Purchase", params).ok());
      mr::MiningOptions options;
      options.num_threads = threads;
      options.keep_encoded_tables = true;
      auto stats = system.ExecuteMineRule(text, options);
      ASSERT_TRUE(stats.ok()) << stats.status();
      EXPECT_EQ(stats.value().engine_threads, ResolveThreadCount(threads));
      std::string dump = DumpCatalog(&catalog);
      if (baseline_threads == 0) {
        baseline = std::move(dump);
        baseline_threads = threads;
        continue;
      }
      EXPECT_EQ(dump, baseline)
          << "catalog diverged between " << baseline_threads << " and "
          << threads << " threads for: " << text;
    }
  }
}

}  // namespace
}  // namespace minerule
