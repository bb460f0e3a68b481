#include "sql/engine.h"

#include <gtest/gtest.h>

#include "relational/catalog.h"
#include "relational/date.h"

namespace minerule::sql {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  SqlEngineTest() : engine_(&catalog_) {}

  QueryResult MustExecute(const std::string& sql) {
    Result<QueryResult> result = engine_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  void MustFail(const std::string& sql, StatusCode code) {
    Result<QueryResult> result = engine_.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql << " unexpectedly succeeded";
    EXPECT_EQ(result.status().code(), code) << result.status();
  }

  void SetUpPurchase() {
    MustExecute(
        "CREATE TABLE Purchase (tr INTEGER, customer VARCHAR, item VARCHAR, "
        "date DATE, price DOUBLE, qty INTEGER)");
    MustExecute(
        "INSERT INTO Purchase VALUES "
        "(1, 'cust1', 'ski_pants',    DATE '1995-12-17', 140, 1),"
        "(1, 'cust1', 'hiking_boots', DATE '1995-12-17', 180, 1),"
        "(2, 'cust2', 'col_shirts',   DATE '1995-12-18', 25,  2),"
        "(2, 'cust2', 'brown_boots',  DATE '1995-12-18', 150, 1),"
        "(2, 'cust2', 'jackets',      DATE '1995-12-18', 300, 1),"
        "(3, 'cust1', 'jackets',      DATE '1995-12-18', 300, 1),"
        "(4, 'cust2', 'col_shirts',   DATE '1995-12-19', 25,  3),"
        "(4, 'cust2', 'jackets',      DATE '1995-12-19', 300, 2)");
  }

  Catalog catalog_;
  SqlEngine engine_;
};

TEST_F(SqlEngineTest, CreateInsertSelect) {
  MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR)");
  QueryResult ins = MustExecute("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  EXPECT_EQ(ins.affected_rows, 2);
  QueryResult sel = MustExecute("SELECT a, b FROM t");
  ASSERT_EQ(sel.rows.size(), 2u);
  EXPECT_EQ(sel.rows[0][0].AsInteger(), 1);
  EXPECT_EQ(sel.rows[1][1].AsString(), "y");
}

TEST_F(SqlEngineTest, SelectWithoutFrom) {
  QueryResult r = MustExecute("SELECT 1 + 2 AS three, 'a' || 'b' AS ab");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 3);
  EXPECT_EQ(r.rows[0][1].AsString(), "ab");
  EXPECT_EQ(r.schema.column(0).name, "three");
}

TEST_F(SqlEngineTest, WhereFilter) {
  SetUpPurchase();
  QueryResult r =
      MustExecute("SELECT item FROM Purchase WHERE price >= 100");
  EXPECT_EQ(r.rows.size(), 6u);  // 140, 180, 150, 300, 300, 300
}

TEST_F(SqlEngineTest, WhereBetweenDatesViaStrings) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT item FROM Purchase WHERE date BETWEEN '12/18/95' AND "
      "'12/19/95'");
  EXPECT_EQ(r.rows.size(), 6u);
}

TEST_F(SqlEngineTest, SelectStarAndQualifiedStar) {
  SetUpPurchase();
  QueryResult star = MustExecute("SELECT * FROM Purchase");
  EXPECT_EQ(star.schema.num_columns(), 6u);
  QueryResult qstar = MustExecute("SELECT P.* FROM Purchase AS P");
  EXPECT_EQ(qstar.schema.num_columns(), 6u);
  EXPECT_EQ(qstar.rows.size(), 8u);
}

TEST_F(SqlEngineTest, Distinct) {
  SetUpPurchase();
  QueryResult r = MustExecute("SELECT DISTINCT customer FROM Purchase");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlEngineTest, GroupByCountAndHaving) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT customer, COUNT(*) AS n FROM Purchase GROUP BY customer "
      "HAVING COUNT(*) > 3");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "cust2");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 5);
}

TEST_F(SqlEngineTest, AggregatesSumAvgMinMax) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT SUM(qty), AVG(price), MIN(price), MAX(price) FROM Purchase");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 12);
  EXPECT_DOUBLE_EQ(r.rows[0][1].AsDouble(), 1420.0 / 8);
  EXPECT_DOUBLE_EQ(r.rows[0][2].AsDouble(), 25.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsDouble(), 300.0);
}

TEST_F(SqlEngineTest, CountDistinct) {
  SetUpPurchase();
  QueryResult r =
      MustExecute("SELECT COUNT(DISTINCT customer) FROM Purchase");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqlEngineTest, GlobalAggregateOverEmptyInput) {
  MustExecute("CREATE TABLE empty_t (a INTEGER)");
  QueryResult r = MustExecute("SELECT COUNT(*), SUM(a) FROM empty_t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(SqlEngineTest, CommaJoinWithEquiCondition) {
  SetUpPurchase();
  MustExecute("CREATE TABLE Loyal (customer VARCHAR, tier VARCHAR)");
  MustExecute("INSERT INTO Loyal VALUES ('cust1', 'gold')");
  QueryResult r = MustExecute(
      "SELECT P.item, L.tier FROM Purchase P, Loyal L "
      "WHERE P.customer = L.customer");
  EXPECT_EQ(r.rows.size(), 3u);  // cust1 bought 3 items
  for (const Row& row : r.rows) {
    EXPECT_EQ(row[1].AsString(), "gold");
  }
}

TEST_F(SqlEngineTest, SelfJoinOnGroup) {
  SetUpPurchase();
  // Pairs of distinct items inside the same transaction.
  QueryResult r = MustExecute(
      "SELECT A.item, B.item FROM Purchase A, Purchase B "
      "WHERE A.tr = B.tr AND A.item <> B.item");
  // tr1: 2 ordered pairs; tr2: 6; tr3: 0; tr4: 2.
  EXPECT_EQ(r.rows.size(), 10u);
}

TEST_F(SqlEngineTest, ThreeWayJoin) {
  MustExecute("CREATE TABLE a (x INTEGER)");
  MustExecute("CREATE TABLE b (x INTEGER, y INTEGER)");
  MustExecute("CREATE TABLE c (y INTEGER, z VARCHAR)");
  MustExecute("INSERT INTO a VALUES (1), (2)");
  MustExecute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)");
  MustExecute("INSERT INTO c VALUES (10, 'ten'), (20, 'twenty')");
  QueryResult r = MustExecute(
      "SELECT a.x, c.z FROM a, b, c WHERE a.x = b.x AND b.y = c.y");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SqlEngineTest, SubqueryInFrom) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT COUNT(*) FROM (SELECT DISTINCT customer FROM Purchase)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqlEngineTest, SelectIntoHostVariableAndReadBack) {
  SetUpPurchase();
  MustExecute(
      "SELECT COUNT(*) INTO :totg FROM "
      "(SELECT DISTINCT customer FROM Purchase)");
  Result<Value> v = engine_.GetHostVariable("totg");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsInteger(), 2);
  QueryResult r =
      MustExecute("SELECT item FROM Purchase WHERE qty >= :totg");
  EXPECT_EQ(r.rows.size(), 3u);  // qty values 2, 3 and 2
}

TEST_F(SqlEngineTest, SequenceNextvalAssignsDenseIds) {
  SetUpPurchase();
  MustExecute("CREATE SEQUENCE seq1");
  QueryResult r = MustExecute(
      "SELECT seq1.NEXTVAL AS id, customer FROM "
      "(SELECT DISTINCT customer FROM Purchase)");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  EXPECT_EQ(r.rows[1][0].AsInteger(), 2);
}

TEST_F(SqlEngineTest, CreateViewAndQueryIt) {
  SetUpPurchase();
  MustExecute(
      "CREATE VIEW Expensive AS SELECT item, price FROM Purchase "
      "WHERE price >= 150");
  QueryResult r = MustExecute("SELECT COUNT(*) FROM Expensive");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 5);
}

TEST_F(SqlEngineTest, ViewOverView) {
  SetUpPurchase();
  MustExecute("CREATE VIEW v1 AS SELECT item, price FROM Purchase");
  MustExecute("CREATE VIEW v2 AS SELECT item FROM v1 WHERE price < 100");
  QueryResult r = MustExecute("SELECT COUNT(*) FROM v2");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqlEngineTest, CreateTableAsSelect) {
  SetUpPurchase();
  MustExecute(
      "CREATE TABLE Cheap AS SELECT item, price FROM Purchase WHERE "
      "price < 100");
  QueryResult r = MustExecute("SELECT COUNT(*) FROM Cheap");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
}

TEST_F(SqlEngineTest, InsertSelectWithParenthesizedSelect) {
  SetUpPurchase();
  MustExecute("CREATE TABLE items (name VARCHAR)");
  QueryResult ins = MustExecute(
      "INSERT INTO items (SELECT DISTINCT item FROM Purchase)");
  EXPECT_EQ(ins.affected_rows, 5);
}

TEST_F(SqlEngineTest, InsertIntoSelfSelectTerminates) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1), (2)");
  QueryResult ins = MustExecute("INSERT INTO t SELECT a + 10 FROM t");
  EXPECT_EQ(ins.affected_rows, 2);
  QueryResult r = MustExecute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 4);
}

// INSERT ... SELECT streams into its target while the plan may still be
// scanning it. Every scan of the target snapshots its row count at Open,
// so a self-insert appends exactly the rows the table held before the
// statement, whichever side of a join the target is on.
TEST_F(SqlEngineTest, InsertIntoSelfAppendsPreStatementRows) {
  MustExecute("CREATE TABLE t (a INTEGER, b VARCHAR)");
  MustExecute("CREATE TABLE keys (a INTEGER)");
  MustExecute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  MustExecute("INSERT INTO keys VALUES (1), (3)");
  EXPECT_EQ(MustExecute("INSERT INTO t SELECT * FROM t").affected_rows, 3);
  // t as the probe side, then as the build side, of a hash join.
  EXPECT_EQ(MustExecute("INSERT INTO t SELECT t.a, t.b FROM t, keys "
                        "WHERE t.a = keys.a AND t.b <> 'y'")
                .affected_rows,
            4);
  EXPECT_EQ(MustExecute("INSERT INTO t SELECT t.a + 10, t.b FROM keys, t "
                        "WHERE keys.a = t.a")
                .affected_rows,
            8);
  // ... and on both sides at once.
  EXPECT_EQ(MustExecute("INSERT INTO t SELECT t1.a, t2.b FROM t AS t1, t AS "
                        "t2 WHERE t1.a = t2.a AND t1.a > 10")
                .affected_rows,
            32);
  QueryResult r = MustExecute(
      "SELECT a, b, COUNT(*) FROM t GROUP BY a, b ORDER BY a, b");
  std::vector<std::string> got;
  for (const Row& row : r.rows) {
    got.push_back(row[0].ToString() + row[1].AsString() + "x" +
                  row[2].ToString());
  }
  EXPECT_EQ(got, (std::vector<std::string>{"1xx4", "2yx2", "3zx4", "11xx20",
                                           "13zx20"}));

  // A target much larger than a row buffer: the table's row storage
  // reallocates while the scan is still reading it.
  MustExecute("CREATE TABLE big (a INTEGER, b VARCHAR)");
  for (int i = 0; i < 5; ++i) {
    MustExecute("INSERT INTO big VALUES (" + std::to_string(i) + ", 'row" +
                std::to_string(i) + "')");
  }
  for (int i = 0; i < 10; ++i) MustExecute("INSERT INTO big SELECT * FROM big");
  auto big = catalog_.GetTable("big");
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(big.value()->num_rows(), 5u << 10);
  for (size_t i = 0; i < big.value()->num_rows(); ++i) {
    ASSERT_EQ(big.value()->row(i)[0].AsInteger(), static_cast<int64_t>(i % 5));
    ASSERT_EQ(big.value()->row(i)[1].AsString(), "row" + std::to_string(i % 5));
  }
}

// A failure part-way through an INSERT ... SELECT leaves the target as it
// was: the rows streamed in before the failing row are taken back.
TEST_F(SqlEngineTest, FailedInsertSelectLeavesTargetUnchanged) {
  MustExecute("CREATE TABLE src (a INTEGER, d DOUBLE)");
  MustExecute(
      "INSERT INTO src VALUES (5, 1.0), (2, 2.0), (0, 2.5), (1, 4.0)");
  MustExecute("CREATE TABLE dst (x INTEGER, y INTEGER)");
  MustExecute("INSERT INTO dst VALUES (7, 70)");
  auto dst = catalog_.GetTable("dst");
  ASSERT_TRUE(dst.ok());
  const uint64_t version = dst.value()->version();
  auto expect_unchanged = [&] {
    ASSERT_EQ(dst.value()->num_rows(), 1u);
    EXPECT_EQ(dst.value()->row(0)[0].AsInteger(), 7);
    EXPECT_EQ(dst.value()->row(0)[1].AsInteger(), 70);
  };

  // Integer division by zero in the projection at the third row.
  MustFail("INSERT INTO dst SELECT 10 / a, a FROM src",
           StatusCode::kExecutionError);
  expect_unchanged();
  // The rolled-back rows did change the table for a moment.
  EXPECT_GT(dst.value()->version(), version);

  // A type error on append at the third row (2.5 is no INTEGER), through
  // the identity column mapping and through a reordered one.
  MustFail("INSERT INTO dst SELECT a, d FROM src", StatusCode::kTypeError);
  expect_unchanged();
  MustFail("INSERT INTO dst (y, x) SELECT a, d FROM src",
           StatusCode::kTypeError);
  expect_unchanged();

  // VALUES rows take the same path.
  MustFail("INSERT INTO dst VALUES (1, 1), (2, 2), ('three', 3)",
           StatusCode::kTypeError);
  expect_unchanged();

  // A statement that fails before producing a row leaves the version too.
  const uint64_t before_plan_error = dst.value()->version();
  MustFail("INSERT INTO dst SELECT a, missing FROM src",
           StatusCode::kSemanticError);
  expect_unchanged();
  EXPECT_EQ(dst.value()->version(), before_plan_error);

  QueryResult ok = MustExecute("INSERT INTO dst SELECT a, a FROM src");
  EXPECT_EQ(ok.affected_rows, 4);
}

// CREATE TABLE ... AS SELECT streams into the new table; when its query
// fails the table is dropped again, never left half filled.
TEST_F(SqlEngineTest, FailedCreateTableAsSelectCreatesNoTable) {
  MustExecute("CREATE TABLE src (a INTEGER)");
  MustExecute("INSERT INTO src VALUES (5), (2), (0), (1)");
  MustFail("CREATE TABLE bad AS SELECT 10 / a AS q FROM src",
           StatusCode::kExecutionError);
  EXPECT_FALSE(catalog_.HasTable("bad"));

  // A value that does not fit the inferred column type fails on append.
  auto mixed = catalog_.CreateTable("mixed", Schema({{"a", DataType::kInteger}}));
  ASSERT_TRUE(mixed.ok());
  mixed.value()->AppendUnchecked({Value::Integer(1)});
  mixed.value()->AppendUnchecked({Value::Double(0.5)});
  MustFail("CREATE TABLE bad AS SELECT a FROM mixed", StatusCode::kTypeError);
  EXPECT_FALSE(catalog_.HasTable("bad"));

  // The name is free again afterwards.
  EXPECT_EQ(MustExecute("CREATE TABLE bad AS SELECT a FROM src").affected_rows,
            4);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  SetUpPurchase();
  QueryResult del = MustExecute("DELETE FROM Purchase WHERE price < 100");
  EXPECT_EQ(del.affected_rows, 2);
  QueryResult r = MustExecute("SELECT COUNT(*) FROM Purchase");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 6);
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  SetUpPurchase();
  QueryResult upd = MustExecute(
      "UPDATE Purchase SET price = price * 2 WHERE item = 'jackets'");
  EXPECT_EQ(upd.affected_rows, 3);
  QueryResult r = MustExecute(
      "SELECT DISTINCT price FROM Purchase WHERE item = 'jackets'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 600.0);
}

TEST_F(SqlEngineTest, UpdateEvaluatesAgainstOldRow) {
  MustExecute("CREATE TABLE swap_t (a INTEGER, b INTEGER)");
  MustExecute("INSERT INTO swap_t VALUES (1, 2)");
  MustExecute("UPDATE swap_t SET a = b, b = a");
  QueryResult r = MustExecute("SELECT a, b FROM swap_t");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 2);
  EXPECT_EQ(r.rows[0][1].AsInteger(), 1);
}

TEST_F(SqlEngineTest, UpdateAllRowsAndTypeChecks) {
  SetUpPurchase();
  QueryResult all = MustExecute("UPDATE Purchase SET qty = qty + 1");
  EXPECT_EQ(all.affected_rows, 8);
  MustFail("UPDATE Purchase SET qty = 'words'", StatusCode::kTypeError);
  MustFail("UPDATE Purchase SET nosuch = 1", StatusCode::kNotFound);
  MustFail("UPDATE NoTable SET a = 1", StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, OrderByNonProjectedColumn) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT item FROM Purchase ORDER BY price DESC, item ASC LIMIT 2");
  ASSERT_EQ(r.schema.num_columns(), 1u);  // hidden sort column stripped
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "jackets");  // 300
}

TEST_F(SqlEngineTest, OrderByAscDescAndOrdinal) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT DISTINCT item, price FROM Purchase ORDER BY price DESC, 1 ASC");
  ASSERT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows[0][0].AsString(), "jackets");
  EXPECT_EQ(r.rows[4][0].AsString(), "col_shirts");
}

TEST_F(SqlEngineTest, Limit) {
  SetUpPurchase();
  QueryResult r = MustExecute("SELECT item FROM Purchase LIMIT 3");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SqlEngineTest, GroupByMultipleKeys) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT customer, date, COUNT(*) FROM Purchase GROUP BY customer, "
      "date");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(SqlEngineTest, HavingWithAggregateNotInSelect) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT customer FROM Purchase GROUP BY customer "
      "HAVING SUM(price) > 700");  // cust2 totals 800
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "cust2");
}

TEST_F(SqlEngineTest, DropObjects) {
  MustExecute("CREATE TABLE t (a INTEGER)");
  MustExecute("DROP TABLE t");
  MustFail("SELECT * FROM t", StatusCode::kNotFound);
  MustExecute("DROP TABLE IF EXISTS t");
  MustFail("DROP TABLE t", StatusCode::kNotFound);
  MustExecute("CREATE VIEW v AS SELECT 1 AS one");
  MustExecute("DROP VIEW v");
  MustExecute("CREATE SEQUENCE s");
  MustExecute("DROP SEQUENCE s");
}

TEST_F(SqlEngineTest, ScriptExecution) {
  Result<QueryResult> r = engine_.ExecuteScript(
      "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5); "
      "SELECT a FROM t;");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().rows[0][0].AsInteger(), 5);
}

TEST_F(SqlEngineTest, ErrorUnknownColumn) {
  SetUpPurchase();
  MustFail("SELECT nosuch FROM Purchase", StatusCode::kSemanticError);
}

TEST_F(SqlEngineTest, ErrorAmbiguousColumn) {
  SetUpPurchase();
  MustFail("SELECT item FROM Purchase A, Purchase B",
           StatusCode::kSemanticError);
}

TEST_F(SqlEngineTest, ErrorAmbiguousWhereColumn) {
  // An unqualified WHERE column that both FROM tables carry is as ambiguous
  // as it is in the select list, though the planner could bind it to the
  // first table's filter before the join.
  MustExecute("CREATE TABLE t (a INTEGER, b INTEGER)");
  MustExecute("CREATE TABLE s (a INTEGER, c INTEGER)");
  MustExecute("INSERT INTO t VALUES (1, 10), (2, 20)");
  MustExecute("INSERT INTO s VALUES (1, 100), (2, 200)");
  Result<QueryResult> result =
      engine_.Execute("SELECT t.b FROM t, s WHERE t.a = s.a AND a > 1");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSemanticError);
  EXPECT_NE(result.status().ToString().find("ambiguous column reference: a"),
            std::string::npos)
      << result.status();
  // Qualified, the same filter runs.
  MustExecute("SELECT t.b FROM t, s WHERE t.a = s.a AND t.a > 1");
}

TEST_F(SqlEngineTest, ErrorNonGroupedColumn) {
  SetUpPurchase();
  MustFail("SELECT item, COUNT(*) FROM Purchase GROUP BY customer",
           StatusCode::kSemanticError);
}

TEST_F(SqlEngineTest, ErrorAggregateInWhere) {
  SetUpPurchase();
  MustFail("SELECT item FROM Purchase WHERE COUNT(*) > 1",
           StatusCode::kSemanticError);
}

TEST_F(SqlEngineTest, ErrorParse) {
  MustFail("SELEKT 1", StatusCode::kParseError);
  MustFail("SELECT 1 +", StatusCode::kParseError);
}

TEST_F(SqlEngineTest, NullComparisonsAreUnknown) {
  MustExecute("CREATE TABLE n (a INTEGER)");
  MustExecute("INSERT INTO n VALUES (1), (NULL), (3)");
  QueryResult r = MustExecute("SELECT a FROM n WHERE a > 0");
  EXPECT_EQ(r.rows.size(), 2u);  // NULL row filtered out
  QueryResult r2 = MustExecute("SELECT a FROM n WHERE a IS NULL");
  EXPECT_EQ(r2.rows.size(), 1u);
}

TEST_F(SqlEngineTest, InListSemantics) {
  SetUpPurchase();
  QueryResult r = MustExecute(
      "SELECT DISTINCT item FROM Purchase WHERE item IN ('jackets', "
      "'ski_pants')");
  EXPECT_EQ(r.rows.size(), 2u);
  QueryResult r2 = MustExecute(
      "SELECT DISTINCT item FROM Purchase WHERE item NOT IN ('jackets')");
  EXPECT_EQ(r2.rows.size(), 4u);
}

TEST_F(SqlEngineTest, ScalarFunctions) {
  QueryResult r = MustExecute(
      "SELECT UPPER('ab'), LOWER('AB'), LENGTH('abc'), ABS(-4), "
      "YEAR(DATE '1995-12-17'), MONTH(DATE '1995-12-17'), "
      "DAY(DATE '1995-12-17'), SUBSTR('hello', 2, 3)");
  const Row& row = r.rows[0];
  EXPECT_EQ(row[0].AsString(), "AB");
  EXPECT_EQ(row[1].AsString(), "ab");
  EXPECT_EQ(row[2].AsInteger(), 3);
  EXPECT_EQ(row[3].AsInteger(), 4);
  EXPECT_EQ(row[4].AsInteger(), 1995);
  EXPECT_EQ(row[5].AsInteger(), 12);
  EXPECT_EQ(row[6].AsInteger(), 17);
  EXPECT_EQ(row[7].AsString(), "ell");
}

TEST_F(SqlEngineTest, SumNearInt64MaxFallsBackToDouble) {
  MustExecute("CREATE TABLE big (a INTEGER)");
  // Two addends that individually fit but whose sum exceeds INT64_MAX
  // (9223372036854775807): the accumulator must detect the overflow and
  // return the DOUBLE sum instead of wrapping (signed overflow is UB).
  MustExecute(
      "INSERT INTO big VALUES (9223372036854775806), "
      "(9223372036854775806), (2)");
  QueryResult r = MustExecute("SELECT SUM(a) FROM big");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0][0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 2.0 * 9223372036854775806.0 + 2);
}

TEST_F(SqlEngineTest, SumWithinInt64StaysInteger) {
  MustExecute("CREATE TABLE big2 (a INTEGER)");
  MustExecute("INSERT INTO big2 VALUES (9223372036854775806), (1)");
  QueryResult r = MustExecute("SELECT SUM(a) FROM big2");
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0][0].type(), DataType::kInteger);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 9223372036854775807);
}

TEST_F(SqlEngineTest, IntegerDoubleJoinCompatibility) {
  MustExecute("CREATE TABLE ti (k INTEGER)");
  MustExecute("CREATE TABLE td (k DOUBLE)");
  MustExecute("INSERT INTO ti VALUES (1), (2)");
  MustExecute("INSERT INTO td VALUES (1.0), (3.0)");
  QueryResult r =
      MustExecute("SELECT ti.k FROM ti, td WHERE ti.k = td.k");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
}

}  // namespace
}  // namespace minerule::sql
