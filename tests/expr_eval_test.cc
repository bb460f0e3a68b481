#include "sql/expr_eval.h"

#include <gtest/gtest.h>

#include "relational/date.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace minerule::sql {
namespace {

/// Evaluates a constant SQL expression (no column references).
Value Eval(const std::string& text) {
  Parser parser(text);
  auto expr = parser.ParseStandaloneExpression();
  EXPECT_TRUE(expr.ok()) << text << " -> " << expr.status();
  if (!expr.ok()) return Value::Null();
  EXPECT_TRUE(BindExpr(expr.value().get(), BindScope{}, false).ok());
  Row empty;
  auto value = EvalExpr(*expr.value(), empty, nullptr);
  EXPECT_TRUE(value.ok()) << text << " -> " << value.status();
  return value.ok() ? std::move(value).value() : Value::Null();
}

Status EvalError(const std::string& text) {
  Parser parser(text);
  auto expr = parser.ParseStandaloneExpression();
  EXPECT_TRUE(expr.ok()) << expr.status();
  Row empty;
  auto value = EvalExpr(*expr.value(), empty, nullptr);
  EXPECT_FALSE(value.ok()) << text << " unexpectedly evaluated";
  return value.ok() ? Status::OK() : value.status();
}

TEST(ExprEvalTest, Arithmetic) {
  EXPECT_EQ(Eval("1 + 2 * 3").AsInteger(), 7);
  EXPECT_EQ(Eval("(1 + 2) * 3").AsInteger(), 9);
  EXPECT_EQ(Eval("7 / 2").AsInteger(), 3);  // integer division
  EXPECT_DOUBLE_EQ(Eval("7.0 / 2").AsDouble(), 3.5);
  EXPECT_EQ(Eval("7 % 3").AsInteger(), 1);
  EXPECT_EQ(Eval("-4 + 1").AsInteger(), -3);
  EXPECT_DOUBLE_EQ(Eval("1 + 0.5").AsDouble(), 1.5);
}

TEST(ExprEvalTest, DivisionByZero) {
  EXPECT_EQ(EvalError("1 / 0").code(), StatusCode::kExecutionError);
  EXPECT_EQ(EvalError("1 % 0").code(), StatusCode::kExecutionError);
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(Eval("1 < 2").AsBoolean());
  EXPECT_TRUE(Eval("2 <= 2").AsBoolean());
  EXPECT_FALSE(Eval("2 > 2").AsBoolean());
  EXPECT_TRUE(Eval("'abc' < 'abd'").AsBoolean());
  EXPECT_TRUE(Eval("1 = 1.0").AsBoolean());
  EXPECT_TRUE(Eval("1 <> 2").AsBoolean());
}

TEST(ExprEvalTest, ThreeValuedLogicNulls) {
  // Comparisons with NULL are NULL.
  EXPECT_TRUE(Eval("NULL = 1").is_null());
  EXPECT_TRUE(Eval("NULL < NULL").is_null());
  // Kleene AND/OR.
  EXPECT_FALSE(Eval("NULL AND FALSE").AsBoolean());  // definite false
  EXPECT_TRUE(Eval("NULL AND TRUE").is_null());
  EXPECT_TRUE(Eval("NULL OR TRUE").AsBoolean());     // definite true
  EXPECT_TRUE(Eval("NULL OR FALSE").is_null());
  EXPECT_TRUE(Eval("NOT (NULL = 1)").is_null());
  // IS NULL is never unknown.
  EXPECT_TRUE(Eval("NULL IS NULL").AsBoolean());
  EXPECT_FALSE(Eval("1 IS NULL").AsBoolean());
  EXPECT_TRUE(Eval("1 IS NOT NULL").AsBoolean());
}

TEST(ExprEvalTest, BetweenSemantics) {
  EXPECT_TRUE(Eval("5 BETWEEN 1 AND 10").AsBoolean());
  EXPECT_TRUE(Eval("1 BETWEEN 1 AND 10").AsBoolean());   // inclusive
  EXPECT_TRUE(Eval("10 BETWEEN 1 AND 10").AsBoolean());
  EXPECT_FALSE(Eval("0 BETWEEN 1 AND 10").AsBoolean());
  EXPECT_TRUE(Eval("0 NOT BETWEEN 1 AND 10").AsBoolean());
  EXPECT_TRUE(Eval("NULL BETWEEN 1 AND 10").is_null());
}

TEST(ExprEvalTest, InListWithNulls) {
  EXPECT_TRUE(Eval("2 IN (1, 2, 3)").AsBoolean());
  EXPECT_FALSE(Eval("5 IN (1, 2, 3)").AsBoolean());
  EXPECT_TRUE(Eval("5 NOT IN (1, 2, 3)").AsBoolean());
  // SQL: x IN (..., NULL) is NULL if no match exists.
  EXPECT_TRUE(Eval("5 IN (1, NULL)").is_null());
  EXPECT_TRUE(Eval("1 IN (1, NULL)").AsBoolean());
  EXPECT_TRUE(Eval("NULL IN (1, 2)").is_null());
}

TEST(ExprEvalTest, DateStringCoercionInComparisons) {
  EXPECT_TRUE(Eval("DATE '1995-12-17' < '12/18/95'").AsBoolean());
  EXPECT_TRUE(Eval("'12/17/95' = DATE '1995-12-17'").AsBoolean());
  EXPECT_TRUE(
      Eval("DATE '1995-06-15' BETWEEN '1/1/95' AND '12/31/95'").AsBoolean());
}

// Column operands of comparisons are read from the row in place: results,
// the DATE/STRING coercion in both directions, NULLs and errors match the
// literal forms, and the row is left untouched.
TEST(ExprEvalTest, ComparisonsOverColumns) {
  BindScope scope;
  scope.Add("t", "d", DataType::kDate);
  scope.Add("t", "s", DataType::kString);
  scope.Add("t", "n", DataType::kInteger);
  Result<int32_t> day = date::Parse("12/17/95");
  ASSERT_TRUE(day.ok());
  Row row = {Value::Date(*day), Value::String("12/18/95"), Value::Null()};
  auto eval = [&](const std::string& text) -> Result<Value> {
    Parser parser(text);
    auto expr = parser.ParseStandaloneExpression();
    EXPECT_TRUE(expr.ok()) << text << " -> " << expr.status();
    if (!expr.ok()) return expr.status();
    MR_RETURN_IF_ERROR(BindExpr(expr.value().get(), scope, false));
    return EvalExpr(*expr.value(), row, nullptr);
  };
  EXPECT_TRUE(eval("d < s")->AsBoolean());
  EXPECT_TRUE(eval("s > d")->AsBoolean());
  EXPECT_FALSE(eval("d = s")->AsBoolean());
  EXPECT_TRUE(eval("d BETWEEN '1/1/95' AND s")->AsBoolean());
  EXPECT_TRUE(eval("s = '12/18/95'")->AsBoolean());
  EXPECT_TRUE(eval("n = 1")->is_null());
  EXPECT_TRUE(eval("n BETWEEN 0 AND 5")->is_null());
  EXPECT_EQ(row[1].AsString(), "12/18/95");
  EXPECT_EQ(row[0].AsDate(), *day);

  row[1] = Value::String("not a date");
  Result<Value> bad = eval("d < s");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().ToString(),
            EvalError("DATE '1995-12-17' < 'not a date'").ToString());
  EXPECT_EQ(eval("s < 1").status().code(), StatusCode::kTypeError);
}

TEST(ExprEvalTest, ConcatCoercesToString) {
  EXPECT_EQ(Eval("'n=' || 42").AsString(), "n=42");
  EXPECT_TRUE(Eval("'x' || NULL").is_null());
}

TEST(ExprEvalTest, TypeErrors) {
  EXPECT_EQ(EvalError("'a' + 1").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("NOT 5").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("1 AND TRUE").code(), StatusCode::kTypeError);
  EXPECT_EQ(EvalError("'a' < 1").code(), StatusCode::kTypeError);
}

TEST(ExprEvalTest, UnsetHostVariable) {
  Parser parser(":nosuch + 1");
  auto expr = parser.ParseStandaloneExpression();
  ASSERT_TRUE(expr.ok());
  HostVarMap vars;
  ExecContext ctx{nullptr, &vars};
  Row empty;
  auto value = EvalExpr(*expr.value(), empty, &ctx);
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kExecutionError);
}

TEST(ExprEvalTest, PredicateTreatsNullAsFalse) {
  Parser parser("NULL = 1");
  auto expr = parser.ParseStandaloneExpression();
  ASSERT_TRUE(expr.ok());
  Row empty;
  auto pass = EvalPredicate(*expr.value(), empty, nullptr);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(pass.value());
}

}  // namespace
}  // namespace minerule::sql
