#ifndef MINERULE_RELATIONAL_TABLE_H_
#define MINERULE_RELATIONAL_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"

namespace minerule {

/// Returns a process-unique, monotonically increasing version stamp. Every
/// table mutation takes a fresh one, so "same name, same version" implies
/// identical contents — even across a DROP + re-CREATE of the name.
uint64_t NextTableVersion();

/// An in-memory row-store relation. Tables are owned by the Catalog and
/// referenced by shared_ptr so query results can outlive DDL.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  const Row& row(size_t i) const { return rows_[i]; }

  /// Modification epoch; bumped by every mutation entry point. Consumers
  /// (e.g. the preprocess cache) fold it into their keys to detect DML.
  uint64_t version() const { return version_; }

  /// Appends after checking arity and per-column type compatibility
  /// (NULL fits any column; INTEGER widens into DOUBLE columns).
  Status Append(Row row);

  /// Appends without checks; used by operators whose output schema is
  /// correct by construction.
  void AppendUnchecked(Row row) {
    rows_.push_back(std::move(row));
    version_ = NextTableVersion();
  }

  /// Drops every row after the first `n` (rolls back a failed INSERT).
  void Truncate(size_t n) {
    rows_.resize(std::min(n, rows_.size()));
    version_ = NextTableVersion();
  }

  void Clear() {
    rows_.clear();
    version_ = NextTableVersion();
  }
  void Reserve(size_t n) { rows_.reserve(n); }

  /// Direct row access for DML (DELETE rewrites the row vector in place).
  /// Conservatively counts as a mutation.
  std::vector<Row>& mutable_rows() {
    version_ = NextTableVersion();
    return rows_;
  }

  /// Renders an aligned ASCII table (for examples and debugging).
  std::string ToDisplayString(size_t max_rows = 100) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  uint64_t version_ = NextTableVersion();
};

/// Checks that `value` may be stored in a column of type `type`, coercing
/// INTEGER to DOUBLE when needed. Returns the possibly-coerced value.
Result<Value> CoerceValueToColumn(const Value& value, DataType type,
                                  const std::string& column_name);

}  // namespace minerule

#endif  // MINERULE_RELATIONAL_TABLE_H_
