#include "sql/parser.h"

#include <array>

#include "common/string_util.h"
#include "relational/date.h"
#include "sql/lexer.h"

namespace minerule::sql {

namespace {

/// Clause keywords that must not be consumed as implicit aliases.
constexpr std::array<const char*, 22> kReservedAliasWords = {
    "WHERE",  "GROUP",   "HAVING", "ORDER",      "LIMIT",  "ON",
    "INNER",  "JOIN",    "LEFT",   "RIGHT",      "UNION",  "AND",
    "OR",     "NOT",     "AS",     "FROM",       "SELECT", "CLUSTER",
    "EXTRACTING", "INTO", "SET",   "VALUES",
};

}  // namespace

Status Parser::Init() {
  if (initialized_) return Status::OK();
  MR_ASSIGN_OR_RETURN(tokens_, TokenizeSql(input_));
  initialized_ = true;
  pos_ = 0;
  return Status::OK();
}

const Token& Parser::Peek(size_t ahead) const {
  const size_t i = pos_ + ahead;
  return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token& Parser::Advance() {
  const Token& tok = Peek();
  if (pos_ < tokens_.size() - 1) ++pos_;
  return tok;
}

bool Parser::MatchKeyword(const char* kw) {
  if (CheckKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool Parser::Match(TokenType type) {
  if (Check(type)) {
    Advance();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenType type, const char* what) {
  if (!Check(type)) {
    return ErrorHere(std::string("expected ") + what);
  }
  Advance();
  return Status::OK();
}

Status Parser::ExpectKeyword(const char* kw) {
  if (!MatchKeyword(kw)) {
    return ErrorHere(std::string("expected keyword ") + kw);
  }
  return Status::OK();
}

Status Parser::ErrorHere(const std::string& message) const {
  const Token& tok = Peek();
  std::string got = tok.type == TokenType::kEnd
                        ? "end of input"
                        : (tok.text.empty() ? TokenTypeName(tok.type)
                                            : "'" + tok.text + "'");
  return Status::ParseError(message + ", got " + got + " at line " +
                            std::to_string(tok.line) + ":" +
                            std::to_string(tok.column));
}

bool Parser::CurrentIsAliasCandidate() const {
  if (!Check(TokenType::kIdentifier)) return false;
  for (const char* kw : kReservedAliasWords) {
    if (Peek().IsKeyword(kw)) return false;
  }
  return true;
}

Result<Statement> Parser::ParseStatement() {
  MR_RETURN_IF_ERROR(Init());
  MR_ASSIGN_OR_RETURN(Statement stmt, ParseOneStatement());
  Match(TokenType::kSemicolon);
  if (!Check(TokenType::kEnd)) {
    return ErrorHere("unexpected trailing input");
  }
  return stmt;
}

Result<std::vector<Statement>> Parser::ParseScript() {
  MR_RETURN_IF_ERROR(Init());
  std::vector<Statement> stmts;
  while (!Check(TokenType::kEnd)) {
    if (Match(TokenType::kSemicolon)) continue;
    MR_ASSIGN_OR_RETURN(Statement stmt, ParseOneStatement());
    stmts.push_back(std::move(stmt));
    if (!Check(TokenType::kEnd)) {
      MR_RETURN_IF_ERROR(Expect(TokenType::kSemicolon, "';'"));
    }
  }
  return stmts;
}

Result<ExprPtr> Parser::ParseStandaloneExpression() {
  MR_RETURN_IF_ERROR(Init());
  MR_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
  if (!Check(TokenType::kEnd)) {
    return ErrorHere("unexpected trailing input after expression");
  }
  return expr;
}

Result<Statement> Parser::ParseOneStatement() {
  if (CheckKeyword("SELECT")) {
    MR_ASSIGN_OR_RETURN(auto select, ParseSelect());
    Statement stmt;
    stmt.kind = Statement::Kind::kSelect;
    stmt.select = std::move(select);
    return stmt;
  }
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("DROP")) return ParseDrop();
  if (CheckKeyword("INSERT")) return ParseInsert();
  if (CheckKeyword("DELETE")) return ParseDelete();
  if (CheckKeyword("UPDATE")) return ParseUpdate();
  if (MatchKeyword("EXPLAIN")) {
    auto explain = std::make_unique<ExplainStmt>();
    explain->analyze = MatchKeyword("ANALYZE");
    MR_ASSIGN_OR_RETURN(Statement target, ParseOneStatement());
    if (target.kind == Statement::Kind::kExplain) {
      return ErrorHere("EXPLAIN cannot be nested");
    }
    explain->target = std::make_unique<Statement>(std::move(target));
    Statement stmt;
    stmt.kind = Statement::Kind::kExplain;
    stmt.explain = std::move(explain);
    return stmt;
  }
  return ErrorHere(
      "expected a statement (SELECT/CREATE/DROP/INSERT/UPDATE/DELETE/"
      "EXPLAIN)");
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  MR_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto stmt = std::make_unique<SelectStmt>();
  if (MatchKeyword("DISTINCT")) stmt->distinct = true;
  else MatchKeyword("ALL");

  do {
    MR_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
    stmt->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  if (MatchKeyword("INTO")) {
    if (!Check(TokenType::kHostVariable)) {
      return ErrorHere("expected host variable after INTO");
    }
    stmt->into_host_var = Advance().text;
  }

  if (MatchKeyword("FROM")) {
    do {
      MR_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      stmt->from.push_back(std::move(ref));
    } while (Match(TokenType::kComma));
  }

  if (MatchKeyword("WHERE")) {
    MR_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }

  if (MatchKeyword("GROUP")) {
    MR_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      MR_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("HAVING")) {
      MR_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
  } else if (MatchKeyword("HAVING")) {
    // HAVING without GROUP BY aggregates over the whole input.
    MR_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }

  if (MatchKeyword("ORDER")) {
    MR_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      OrderItem item;
      MR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.descending = true;
      } else {
        MatchKeyword("ASC");
      }
      stmt->order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }

  if (MatchKeyword("LIMIT")) {
    if (!Check(TokenType::kIntegerLiteral)) {
      return ErrorHere("expected integer after LIMIT");
    }
    stmt->limit = Advance().int_value;
  }

  return stmt;
}

Result<SelectItem> Parser::ParseSelectItem() {
  SelectItem item;
  if (Check(TokenType::kStar)) {
    Advance();
    item.is_star = true;
    return item;
  }
  // "T.*"
  if (Check(TokenType::kIdentifier) && Peek(1).type == TokenType::kDot &&
      Peek(2).type == TokenType::kStar) {
    item.is_star = true;
    item.star_qualifier = Advance().text;
    Advance();  // '.'
    Advance();  // '*'
    return item;
  }
  MR_ASSIGN_OR_RETURN(item.expr, ParseExpr());
  if (MatchKeyword("AS")) {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected alias after AS");
    }
    item.alias = Advance().text;
  } else if (CurrentIsAliasCandidate()) {
    item.alias = Advance().text;
  }
  return item;
}

Result<TableRef> Parser::ParseTableRef() {
  TableRef ref;
  if (Match(TokenType::kLParen)) {
    MR_ASSIGN_OR_RETURN(ref.subquery, ParseSelect());
    MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' after subquery"));
    ref.kind = TableRef::Kind::kSubquery;
    if (MatchKeyword("AS")) {
      if (!Check(TokenType::kIdentifier)) {
        return ErrorHere("expected alias after AS");
      }
      ref.alias = Advance().text;
    } else if (CurrentIsAliasCandidate()) {
      ref.alias = Advance().text;
    }
    return ref;
  }
  if (!Check(TokenType::kIdentifier)) {
    return ErrorHere("expected table name or subquery in FROM");
  }
  ref.kind = TableRef::Kind::kBase;
  ref.name = Advance().text;
  ref.alias = ref.name;
  if (MatchKeyword("AS")) {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected alias after AS");
    }
    ref.alias = Advance().text;
  } else if (CurrentIsAliasCandidate()) {
    ref.alias = Advance().text;
  }
  return ref;
}

Result<Statement> Parser::ParseCreate() {
  MR_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  if (MatchKeyword("TABLE")) {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected table name");
    }
    auto create = std::make_unique<CreateTableStmt>();
    create->name = Advance().text;
    if (MatchKeyword("AS")) {
      MR_ASSIGN_OR_RETURN(create->as_select, ParseSelect());
    } else {
      MR_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      do {
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column name");
        }
        std::string col_name = Advance().text;
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column type");
        }
        std::string type_name = Advance().text;
        // Swallow optional length, e.g. VARCHAR(20).
        if (Match(TokenType::kLParen)) {
          while (!Check(TokenType::kRParen) && !Check(TokenType::kEnd)) {
            Advance();
          }
          MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        }
        MR_ASSIGN_OR_RETURN(DataType type, DataTypeFromName(type_name));
        create->columns.emplace_back(std::move(col_name), type);
      } while (Match(TokenType::kComma));
      MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateTable;
    stmt.create_table = std::move(create);
    return stmt;
  }
  if (MatchKeyword("VIEW")) {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected view name");
    }
    auto create = std::make_unique<CreateViewStmt>();
    create->name = Advance().text;
    MR_RETURN_IF_ERROR(ExpectKeyword("AS"));
    // Views may be written as `AS SELECT ...` or `AS (SELECT ...)`.
    bool parenthesized = false;
    if (Check(TokenType::kLParen) && Peek(1).IsKeyword("SELECT")) {
      Advance();
      parenthesized = true;
    }
    const size_t start_offset = Peek().offset;
    MR_ASSIGN_OR_RETURN(auto select, ParseSelect());
    (void)select;  // validated; the text is what we store
    const size_t end_offset = Peek().offset;
    create->select_sql = std::string(
        StripWhitespace(input_.substr(start_offset, end_offset - start_offset)));
    if (parenthesized) {
      MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')' closing view body"));
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateView;
    stmt.create_view = std::move(create);
    return stmt;
  }
  if (MatchKeyword("SEQUENCE")) {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected sequence name");
    }
    auto create = std::make_unique<CreateSequenceStmt>();
    create->name = Advance().text;
    if (MatchKeyword("START")) {
      MR_RETURN_IF_ERROR(ExpectKeyword("WITH"));
      if (!Check(TokenType::kIntegerLiteral)) {
        return ErrorHere("expected integer after START WITH");
      }
      create->start = Advance().int_value;
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateSequence;
    stmt.create_sequence = std::move(create);
    return stmt;
  }
  return ErrorHere("expected TABLE, VIEW or SEQUENCE after CREATE");
}

Result<Statement> Parser::ParseDrop() {
  MR_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  auto drop = std::make_unique<DropStmt>();
  if (MatchKeyword("TABLE")) {
    drop->object_kind = DropStmt::ObjectKind::kTable;
  } else if (MatchKeyword("VIEW")) {
    drop->object_kind = DropStmt::ObjectKind::kView;
  } else if (MatchKeyword("SEQUENCE")) {
    drop->object_kind = DropStmt::ObjectKind::kSequence;
  } else {
    return ErrorHere("expected TABLE, VIEW or SEQUENCE after DROP");
  }
  if (MatchKeyword("IF")) {
    MR_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    drop->if_exists = true;
  }
  if (!Check(TokenType::kIdentifier)) {
    return ErrorHere("expected object name");
  }
  drop->name = Advance().text;
  Statement stmt;
  stmt.kind = Statement::Kind::kDrop;
  stmt.drop = std::move(drop);
  return stmt;
}

Result<Statement> Parser::ParseInsert() {
  MR_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  MR_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  if (!Check(TokenType::kIdentifier)) {
    return ErrorHere("expected table name");
  }
  auto insert = std::make_unique<InsertStmt>();
  insert->table = Advance().text;

  // `INSERT INTO t (SELECT ...)` vs `INSERT INTO t (col, ...) ...`.
  if (Check(TokenType::kLParen) && Peek(1).IsKeyword("SELECT")) {
    Advance();
    MR_ASSIGN_OR_RETURN(insert->select, ParseSelect());
    // Appendix A omits some closing parens; accept either form.
    Match(TokenType::kRParen);
  } else {
    if (Match(TokenType::kLParen)) {
      do {
        if (!Check(TokenType::kIdentifier)) {
          return ErrorHere("expected column name");
        }
        insert->columns.push_back(Advance().text);
      } while (Match(TokenType::kComma));
      MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    if (MatchKeyword("VALUES")) {
      do {
        MR_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
        std::vector<ExprPtr> row;
        do {
          MR_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          row.push_back(std::move(e));
        } while (Match(TokenType::kComma));
        MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        insert->values_rows.push_back(std::move(row));
      } while (Match(TokenType::kComma));
    } else if (CheckKeyword("SELECT")) {
      MR_ASSIGN_OR_RETURN(insert->select, ParseSelect());
    } else if (Check(TokenType::kLParen) && Peek(1).IsKeyword("SELECT")) {
      Advance();
      MR_ASSIGN_OR_RETURN(insert->select, ParseSelect());
      Match(TokenType::kRParen);
    } else {
      return ErrorHere("expected VALUES or SELECT in INSERT");
    }
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::move(insert);
  return stmt;
}

Result<Statement> Parser::ParseDelete() {
  MR_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  MR_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  if (!Check(TokenType::kIdentifier)) {
    return ErrorHere("expected table name");
  }
  auto del = std::make_unique<DeleteStmt>();
  del->table = Advance().text;
  if (MatchKeyword("WHERE")) {
    MR_ASSIGN_OR_RETURN(del->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.del = std::move(del);
  return stmt;
}

Result<Statement> Parser::ParseUpdate() {
  MR_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  if (!Check(TokenType::kIdentifier)) {
    return ErrorHere("expected table name");
  }
  auto update = std::make_unique<UpdateStmt>();
  update->table = Advance().text;
  MR_RETURN_IF_ERROR(ExpectKeyword("SET"));
  do {
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected column name in SET");
    }
    std::string column = Advance().text;
    MR_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    MR_ASSIGN_OR_RETURN(ExprPtr value, ParseExpr());
    update->assignments.emplace_back(std::move(column), std::move(value));
  } while (Match(TokenType::kComma));
  if (MatchKeyword("WHERE")) {
    MR_ASSIGN_OR_RETURN(update->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kUpdate;
  stmt.update = std::move(update);
  return stmt;
}

// --------------------------------------------------------------------------
// Expressions
// --------------------------------------------------------------------------

Result<ExprPtr> Parser::ParseExpr() {
  MR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
  while (MatchKeyword("OR")) {
    MR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
    lhs = std::make_unique<BinaryExpr>(BinaryOp::kOr, std::move(lhs),
                                       std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseAnd() {
  MR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
  while (MatchKeyword("AND")) {
    MR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
    lhs = std::make_unique<BinaryExpr>(BinaryOp::kAnd, std::move(lhs),
                                       std::move(rhs));
  }
  return lhs;
}

Result<ExprPtr> Parser::ParseNot() {
  if (MatchKeyword("NOT")) {
    MR_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
    return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNot, std::move(operand)));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  MR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());

  if (MatchKeyword("IS")) {
    bool negated = MatchKeyword("NOT");
    MR_RETURN_IF_ERROR(ExpectKeyword("NULL"));
    return ExprPtr(std::make_unique<IsNullExpr>(std::move(lhs), negated));
  }

  bool negated = false;
  if (CheckKeyword("NOT") &&
      (Peek(1).IsKeyword("BETWEEN") || Peek(1).IsKeyword("IN"))) {
    Advance();
    negated = true;
  }

  if (MatchKeyword("BETWEEN")) {
    MR_ASSIGN_OR_RETURN(ExprPtr low, ParseAdditive());
    MR_RETURN_IF_ERROR(ExpectKeyword("AND"));
    MR_ASSIGN_OR_RETURN(ExprPtr high, ParseAdditive());
    return ExprPtr(std::make_unique<BetweenExpr>(std::move(lhs), std::move(low),
                                                 std::move(high), negated));
  }

  if (MatchKeyword("IN")) {
    MR_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'(' after IN"));
    std::vector<ExprPtr> list;
    do {
      MR_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      list.push_back(std::move(e));
    } while (Match(TokenType::kComma));
    MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(std::make_unique<InListExpr>(std::move(lhs),
                                                std::move(list), negated));
  }

  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq:
      op = BinaryOp::kEq;
      break;
    case TokenType::kNotEq:
      op = BinaryOp::kNotEq;
      break;
    case TokenType::kLess:
      op = BinaryOp::kLess;
      break;
    case TokenType::kLessEq:
      op = BinaryOp::kLessEq;
      break;
    case TokenType::kGreater:
      op = BinaryOp::kGreater;
      break;
    case TokenType::kGreaterEq:
      op = BinaryOp::kGreaterEq;
      break;
    default:
      return lhs;
  }
  Advance();
  MR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
  return ExprPtr(
      std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs)));
}

Result<ExprPtr> Parser::ParseAdditive() {
  MR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
  while (true) {
    BinaryOp op;
    if (Check(TokenType::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Check(TokenType::kMinus)) {
      op = BinaryOp::kSub;
    } else if (Check(TokenType::kConcat)) {
      op = BinaryOp::kConcat;
    } else {
      return lhs;
    }
    Advance();
    MR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  MR_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
  while (true) {
    BinaryOp op;
    if (Check(TokenType::kStar)) {
      op = BinaryOp::kMul;
    } else if (Check(TokenType::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Check(TokenType::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      return lhs;
    }
    Advance();
    MR_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnary());
    lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), std::move(rhs));
  }
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    MR_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
    return ExprPtr(std::make_unique<UnaryExpr>(UnaryOp::kNegate, std::move(operand)));
  }
  if (Match(TokenType::kPlus)) {
    return ParseUnary();
  }
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kIntegerLiteral: {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::Integer(tok.int_value)));
    }
    case TokenType::kDoubleLiteral: {
      Advance();
      return ExprPtr(
          std::make_unique<LiteralExpr>(Value::Double(tok.double_value)));
    }
    case TokenType::kStringLiteral: {
      Advance();
      return ExprPtr(std::make_unique<LiteralExpr>(Value::String(tok.text)));
    }
    case TokenType::kHostVariable: {
      Advance();
      return ExprPtr(std::make_unique<HostVarExpr>(tok.text));
    }
    case TokenType::kLParen: {
      Advance();
      MR_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    case TokenType::kIdentifier:
      break;
    default:
      return ErrorHere("expected an expression");
  }

  // Keyword literals.
  if (tok.IsKeyword("NULL")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Null()));
  }
  if (tok.IsKeyword("TRUE")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(true)));
  }
  if (tok.IsKeyword("FALSE")) {
    Advance();
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Boolean(false)));
  }
  // DATE 'YYYY-MM-DD' literal (also accepts the paper's MM/DD/YY form).
  if (tok.IsKeyword("DATE") && Peek(1).type == TokenType::kStringLiteral) {
    Advance();
    const Token& lit = Advance();
    MR_ASSIGN_OR_RETURN(int32_t days, date::Parse(lit.text));
    return ExprPtr(std::make_unique<LiteralExpr>(Value::Date(days)));
  }

  Advance();  // consume the identifier
  const std::string name = tok.text;

  if (Check(TokenType::kLParen)) {
    return ParseFunctionOrAggregate(name);
  }

  if (Check(TokenType::kDot)) {
    Advance();
    if (Check(TokenType::kStar)) {
      // "T.*" reaches here only in illegal positions; the select-list path
      // intercepts it earlier.
      return ErrorHere("'*' is only allowed in the select list");
    }
    if (!Check(TokenType::kIdentifier)) {
      return ErrorHere("expected column name after '.'");
    }
    const std::string second = Advance().text;
    if (EqualsIgnoreCase(second, "NEXTVAL")) {
      return ExprPtr(std::make_unique<NextValExpr>(name));
    }
    return ExprPtr(std::make_unique<ColumnRefExpr>(name, second));
  }

  return ExprPtr(std::make_unique<ColumnRefExpr>("", name));
}

Result<ExprPtr> Parser::ParseFunctionOrAggregate(const std::string& name) {
  MR_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
  const std::string upper = ToUpper(name);

  if (upper == "COUNT") {
    if (Match(TokenType::kStar)) {
      MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return ExprPtr(std::make_unique<AggregateExpr>(AggFunc::kCountStar,
                                                     false, nullptr));
    }
    bool distinct = MatchKeyword("DISTINCT");
    MR_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(std::make_unique<AggregateExpr>(AggFunc::kCount, distinct,
                                                   std::move(arg)));
  }
  if (upper == "SUM" || upper == "AVG" || upper == "MIN" || upper == "MAX") {
    AggFunc func = upper == "SUM"   ? AggFunc::kSum
                   : upper == "AVG" ? AggFunc::kAvg
                   : upper == "MIN" ? AggFunc::kMin
                                    : AggFunc::kMax;
    bool distinct = MatchKeyword("DISTINCT");
    MR_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return ExprPtr(
        std::make_unique<AggregateExpr>(func, distinct, std::move(arg)));
  }

  std::vector<ExprPtr> args;
  if (!Check(TokenType::kRParen)) {
    do {
      MR_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      args.push_back(std::move(e));
    } while (Match(TokenType::kComma));
  }
  MR_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  return ExprPtr(std::make_unique<FunctionExpr>(upper, std::move(args)));
}

Result<Statement> ParseSql(std::string_view sql) {
  Parser parser(sql);
  return parser.ParseStatement();
}

Result<std::vector<Statement>> ParseSqlScript(std::string_view sql) {
  Parser parser(sql);
  return parser.ParseScript();
}

Result<std::unique_ptr<SelectStmt>> ParseSelectSql(std::string_view sql) {
  Parser parser(sql);
  MR_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::ParseError("expected a SELECT statement");
  }
  return std::move(stmt.select);
}

}  // namespace minerule::sql
