#ifndef MINERULE_RELATIONAL_VALUE_H_
#define MINERULE_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"

namespace minerule {

/// Column/value types supported by the relational substrate. This is the
/// type set needed by the MINE RULE workloads: identifiers and quantities
/// (INTEGER), prices and support thresholds (DOUBLE), item and customer
/// names (STRING), and purchase dates (DATE).
enum class DataType {
  kNull = 0,  // only the SQL NULL literal has this static type
  kBoolean,
  kInteger,  // 64-bit signed
  kDouble,
  kString,
  kDate,  // days since 1970-01-01, compared numerically
};

/// Stable name, e.g. "INTEGER".
const char* DataTypeName(DataType type);

/// Parses a type name used in CREATE TABLE (INTEGER/INT, DOUBLE/REAL/FLOAT,
/// VARCHAR/STRING/TEXT/CHAR, DATE, BOOLEAN/BOOL).
Result<DataType> DataTypeFromName(const std::string& name);

/// A dynamically-typed SQL value. Values are small and freely copyable;
/// strings are the only heap-owning alternative.
///
/// Comparison semantics follow SQL: NULL compares as unknown (the engine's
/// expression evaluator handles three-valued logic); this class exposes a
/// *total* ordering (NULL first, then by type-coerced value) for use in
/// sorting, hashing and DISTINCT, mirroring what SQL engines do internally.
class Value {
 public:
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) { return Value(Repr(v)); }
  static Value Integer(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }
  static Value Date(int32_t days_since_epoch) {
    return Value(Repr(DateRepr{days_since_epoch}));
  }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  DataType type() const;

  /// Accessors; preconditions: matching type(). AsDouble additionally
  /// accepts kInteger (numeric widening).
  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsInteger() const { return std::get<int64_t>(data_); }
  double AsDouble() const;
  const std::string& AsString() const { return std::get<std::string>(data_); }
  int32_t AsDate() const { return std::get<DateRepr>(data_).days; }

  /// True for kInteger and kDouble.
  bool is_numeric() const;

  /// SQL equality between non-null values of comparable types (numeric types
  /// compare by value across INTEGER/DOUBLE). Returns error on incomparable
  /// types (e.g. STRING vs INTEGER). NULL operands are the caller's concern.
  Result<bool> SqlEquals(const Value& other) const;

  /// SQL ordering: negative/zero/positive like strcmp. Same preconditions
  /// as SqlEquals.
  Result<int> SqlCompare(const Value& other) const;

  /// Total ordering over all values including NULL, used by Sort/Distinct
  /// and hash containers: NULL < BOOLEAN < numeric < STRING < DATE, with
  /// numeric values interleaved by value.
  bool TotalLess(const Value& other) const;
  bool TotalEquals(const Value& other) const;
  size_t Hash() const;

  /// Display form: NULL, TRUE/FALSE, numbers, bare strings, MM/DD/YYYY.
  std::string ToString() const;

  /// SQL-literal form: strings quoted with doubled quotes, dates as
  /// DATE 'YYYY-MM-DD'. Used when generated queries embed constants.
  std::string ToSqlLiteral() const;

 private:
  struct DateRepr {
    int32_t days;
    bool operator==(const DateRepr&) const = default;
  };
  using Repr =
      std::variant<std::monostate, bool, int64_t, double, std::string,
                   DateRepr>;

  explicit Value(Repr data) : data_(std::move(data)) {}

  /// Rank used by TotalLess across different type classes.
  int TypeRank() const;

  Repr data_;
};

}  // namespace minerule

#endif  // MINERULE_RELATIONAL_VALUE_H_
