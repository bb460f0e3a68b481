#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/catalog.h"
#include "relational/date.h"
#include "relational/value.h"

namespace minerule {
namespace {

TEST(DateTest, CivilRoundTrip) {
  for (int32_t days : {-100000, -1, 0, 1, 9131, 100000}) {
    int y, m, d;
    date::ToCivil(days, &y, &m, &d);
    EXPECT_EQ(date::FromCivil(y, m, d), days);
  }
  EXPECT_EQ(date::FromCivil(1970, 1, 1), 0);
  EXPECT_EQ(date::FromCivil(1970, 1, 2), 1);
}

TEST(DateTest, ParseFormats) {
  auto iso = date::Parse("1995-12-17");
  ASSERT_TRUE(iso.ok());
  auto us_short = date::Parse("12/17/95");
  ASSERT_TRUE(us_short.ok());
  auto us_long = date::Parse("12/17/1995");
  ASSERT_TRUE(us_long.ok());
  EXPECT_EQ(iso.value(), us_short.value());
  EXPECT_EQ(iso.value(), us_long.value());
  EXPECT_EQ(date::ToString(iso.value()), "12/17/1995");
}

TEST(DateTest, TwoDigitYearWindow) {
  // 00..69 -> 2000s, 70..99 -> 1900s.
  EXPECT_EQ(date::Parse("1/1/69").value(), date::FromCivil(2069, 1, 1));
  EXPECT_EQ(date::Parse("1/1/70").value(), date::FromCivil(1970, 1, 1));
}

TEST(DateTest, RejectsGarbage) {
  EXPECT_FALSE(date::Parse("hello").ok());
  EXPECT_FALSE(date::Parse("13/40/95").ok());
  EXPECT_FALSE(date::Parse("1995-02-30").ok());
  EXPECT_FALSE(date::Parse("2/29/1995").ok());  // not a leap year
  EXPECT_TRUE(date::Parse("2/29/1996").ok());   // leap year
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Boolean(true).type(), DataType::kBoolean);
  EXPECT_EQ(Value::Integer(4).AsInteger(), 4);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Integer(4).AsDouble(), 4.0);  // widening
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Date(10).AsDate(), 10);
  EXPECT_TRUE(Value::Integer(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, SqlCompareNumericCrossType) {
  auto cmp = Value::Integer(2).SqlCompare(Value::Double(2.0));
  ASSERT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.value(), 0);
  EXPECT_EQ(Value::Integer(1).SqlCompare(Value::Double(1.5)).value(), -1);
  EXPECT_EQ(Value::Double(3.0).SqlCompare(Value::Integer(2)).value(), 1);
}

TEST(ValueTest, SqlCompareRejectsMixedTypes) {
  EXPECT_FALSE(Value::String("1").SqlCompare(Value::Integer(1)).ok());
  EXPECT_FALSE(Value::Date(1).SqlCompare(Value::Integer(1)).ok());
}

TEST(ValueTest, TotalOrderAndHashConsistency) {
  // TotalEquals across numeric types implies equal hashes.
  EXPECT_TRUE(Value::Integer(3).TotalEquals(Value::Double(3.0)));
  EXPECT_EQ(Value::Integer(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_TRUE(Value::Null().TotalEquals(Value::Null()));
  EXPECT_TRUE(Value::Null().TotalLess(Value::Integer(-100)));
  EXPECT_TRUE(Value::Integer(5).TotalLess(Value::String("a")));
  EXPECT_FALSE(Value::String("b").TotalLess(Value::String("a")));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Boolean(false).ToString(), "FALSE");
  EXPECT_EQ(Value::Integer(42).ToString(), "42");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(140).ToString(), "140.0");
  EXPECT_EQ(Value::String("ab").ToString(), "ab");
}

TEST(ValueTest, SqlLiteralQuoting) {
  EXPECT_EQ(Value::String("o'brien").ToSqlLiteral(), "'o''brien'");
  EXPECT_EQ(Value::Integer(7).ToSqlLiteral(), "7");
  EXPECT_EQ(Value::Date(date::FromCivil(1995, 12, 17)).ToSqlLiteral(),
            "DATE '1995-12-17'");
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema({{"Item", DataType::kString}, {"price", DataType::kDouble}});
  EXPECT_EQ(schema.FindColumn("ITEM"), 0);
  EXPECT_EQ(schema.FindColumn("Price"), 1);
  EXPECT_EQ(schema.FindColumn("qty"), -1);
  EXPECT_TRUE(schema.HasColumn("item"));
  auto resolved = schema.ResolveColumn("PRICE");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value(), 1u);
  EXPECT_FALSE(schema.ResolveColumn("missing").ok());
}

TEST(SchemaTest, ResolveAmbiguous) {
  Schema schema({{"a", DataType::kInteger}, {"A", DataType::kDouble}});
  EXPECT_FALSE(schema.ResolveColumn("a").ok());
}

TEST(TableTest, AppendChecksArityAndTypes) {
  Table table("t", Schema({{"a", DataType::kInteger},
                           {"b", DataType::kString}}));
  EXPECT_TRUE(table.Append({Value::Integer(1), Value::String("x")}).ok());
  EXPECT_TRUE(table.Append({Value::Null(), Value::Null()}).ok());
  EXPECT_FALSE(table.Append({Value::Integer(1)}).ok());
  EXPECT_FALSE(
      table.Append({Value::String("no"), Value::String("x")}).ok());
  EXPECT_EQ(table.num_rows(), 2u);
}

// The error texts are part of the INSERT surface; pinned byte for byte.
TEST(TableTest, AppendErrorMessages) {
  Table table("t", Schema({{"a", DataType::kInteger},
                           {"b", DataType::kString}}));
  Status arity = table.Append({Value::Integer(1)});
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(arity.message(),
            "row arity 1 does not match table 't' with 2 columns");
  Status type = table.Append({Value::String("no"), Value::String("x")});
  EXPECT_EQ(type.code(), StatusCode::kTypeError);
  EXPECT_EQ(type.message(),
            "value of type STRING does not fit column 'a' (INTEGER)");
  Status fraction = table.Append({Value::Double(2.5), Value::String("x")});
  EXPECT_EQ(fraction.message(),
            "value of type DOUBLE does not fit column 'a' (INTEGER)");
  EXPECT_EQ(table.num_rows(), 0u);
  // An integral DOUBLE is coerced into the INTEGER column.
  ASSERT_TRUE(table.Append({Value::Double(4.0), Value::String("x")}).ok());
  EXPECT_EQ(table.row(0)[0].type(), DataType::kInteger);
  EXPECT_EQ(table.row(0)[0].AsInteger(), 4);
}

// Truncate (a failed INSERT's rollback) is a mutation: the version moves,
// so version-keyed consumers (the preprocess cache) see the change.
TEST(TableTest, TruncateBumpsVersion) {
  Table table("t", Schema({{"a", DataType::kInteger}}));
  for (int64_t i = 0; i < 3; ++i) table.AppendUnchecked({Value::Integer(i)});
  const uint64_t version = table.version();
  table.Truncate(1);
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.row(0)[0].AsInteger(), 0);
  EXPECT_GT(table.version(), version);
}

TEST(TableTest, IntegerIntoDoubleColumnWidens) {
  Table table("t", Schema({{"a", DataType::kDouble}}));
  ASSERT_TRUE(table.Append({Value::Integer(3)}).ok());
  EXPECT_EQ(table.row(0)[0].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(table.row(0)[0].AsDouble(), 3.0);
}

TEST(TableTest, DisplayStringContainsHeaderAndValues) {
  Table table("t", Schema({{"name", DataType::kString}}));
  table.AppendUnchecked({Value::String("widget")});
  std::string display = table.ToDisplayString();
  EXPECT_NE(display.find("name"), std::string::npos);
  EXPECT_NE(display.find("widget"), std::string::npos);
}

TEST(CatalogTest, TableLifecycle) {
  Catalog catalog;
  auto created = catalog.CreateTable("t", Schema({{"a", DataType::kInteger}}));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(catalog.HasTable("T"));  // case-insensitive
  EXPECT_FALSE(catalog.CreateTable("t", Schema{}).ok());  // duplicate
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_TRUE(catalog.DropTable("t").ok());
  EXPECT_FALSE(catalog.DropTable("t").ok());
  catalog.DropTableIfExists("t");  // no-op, no error
}

TEST(CatalogTest, RejectsDuplicateColumnNames) {
  Catalog catalog;
  EXPECT_FALSE(catalog
                   .CreateTable("t", Schema({{"a", DataType::kInteger},
                                             {"A", DataType::kInteger}}))
                   .ok());
}

TEST(CatalogTest, ViewsShareNamespaceWithTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("t", Schema({{"a", DataType::kInteger}}))
                  .ok());
  EXPECT_FALSE(catalog.CreateView("t", "SELECT 1").ok());
  ASSERT_TRUE(catalog.CreateView("v", "SELECT 1 AS one").ok());
  EXPECT_FALSE(catalog.CreateTable("v", Schema{}).ok());
  EXPECT_TRUE(catalog.HasRelation("v"));
  auto view = catalog.GetView("V");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view.value().select_sql, "SELECT 1 AS one");
}

TEST(CatalogTest, SequencesAdvance) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateSequence("s").ok());
  auto seq = catalog.GetSequence("s");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value()->NextVal(), 1);
  EXPECT_EQ(seq.value()->NextVal(), 2);
  EXPECT_EQ(seq.value()->PeekNext(), 3);
  ASSERT_TRUE(catalog.CreateSequence("s10", 10).ok());
  EXPECT_EQ(catalog.GetSequence("s10").value()->NextVal(), 10);
}

TEST(CatalogTest, NameListings) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("b", Schema{}).ok());
  ASSERT_TRUE(catalog.CreateTable("a", Schema{}).ok());
  ASSERT_TRUE(catalog.CreateSequence("s").ok());
  ASSERT_TRUE(catalog.CreateView("v", "SELECT 1 AS x").ok());
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(catalog.ViewNames(), std::vector<std::string>{"v"});
  EXPECT_EQ(catalog.SequenceNames(), std::vector<std::string>{"s"});
}

TEST(RowHashTest, EqualRowsHashEqual) {
  Row a = {Value::Integer(1), Value::String("x")};
  Row b = {Value::Double(1.0), Value::String("x")};
  EXPECT_TRUE(RowEq{}(a, b));
  EXPECT_EQ(RowHash{}(a), RowHash{}(b));
  Row c = {Value::Integer(2), Value::String("x")};
  EXPECT_FALSE(RowEq{}(a, c));
}

}  // namespace
}  // namespace minerule
