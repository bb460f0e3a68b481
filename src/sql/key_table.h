#ifndef MINERULE_SQL_KEY_TABLE_H_
#define MINERULE_SQL_KEY_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/schema.h"

namespace minerule::sql {

// ---------------------------------------------------------------------------
// Canonical key encoding (DESIGN.md §17)
// ---------------------------------------------------------------------------
//
// The byte strings of two key tuples are equal exactly when RowEq holds on
// the tuples: one tag byte per value, then a payload whose form depends only
// on the value's equality class under Value::TotalEquals. INTEGER k and an
// integral DOUBLE k.0 in int64 range share the integer form (so -0.0 is 0);
// every NaN is one payload-free form; other doubles carry their bits;
// strings are length-prefixed so the concatenation of a tuple's values is
// unambiguous. The encoding is only for equality — its byte order is not
// the value order.

/// Appends the canonical encoding of `value` to *out.
void EncodeKeyValue(const Value& value, std::string* out);

/// Appends the canonical encoding of every value of `row`, in order.
void EncodeKeyRow(const Row& row, std::string* out);

// ---------------------------------------------------------------------------
// KeyTable
// ---------------------------------------------------------------------------

/// Open-addressing hash table mapping encoded keys to dense ids in first-
/// insert order (0, 1, 2, ...). All key bytes live in one arena, a slot is
/// eight bytes (a 32-bit hash tag and the id), and nothing is allocated
/// before the first insert. The single hashing mechanism behind the row
/// engine's joins, DISTINCT, GROUP BY and COUNT(DISTINCT) (DESIGN.md §17).
///
/// Not thread-safe for writers; concurrent Find() on a table no one writes
/// is safe.
class KeyTable {
 public:
  /// Returned by Find() for an absent key.
  static constexpr uint32_t kNotFound = UINT32_MAX;

  /// 64-bit hash of an encoded key. The table places keys by the low 32
  /// bits; callers that partition keys before inserting them (the parallel
  /// join build) should split on the high bits, which the placement never
  /// reads.
  static uint64_t Hash(std::string_view key);

  /// Inserts `key` unless present. Returns its id and whether it was new;
  /// a new key's id is the previous size().
  std::pair<uint32_t, bool> Insert(std::string_view key) {
    return Insert(key, Hash(key));
  }
  /// As above with a precomputed Hash(key).
  std::pair<uint32_t, bool> Insert(std::string_view key, uint64_t hash);

  /// The id of `key`, or kNotFound.
  uint32_t Find(std::string_view key) const { return Find(key, Hash(key)); }
  uint32_t Find(std::string_view key, uint64_t hash) const;

  size_t size() const { return ends_.size(); }

  /// The encoded key of `id`; valid until the next Insert.
  std::string_view key(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(arena_.data() + begin, ends_[id] - begin);
  }

  /// Heap bytes currently reserved by the table (slots, arena, offsets).
  size_t AllocatedBytes() const;

 private:
  struct Slot {
    uint32_t tag;  // low 32 bits of the key hash
    uint32_t id;   // key id + 1; 0 marks an empty slot
  };

  /// Index of the slot holding `key`, or of the empty slot ending its probe.
  size_t Probe(std::string_view key, uint32_t tag) const;
  void Grow();

  std::vector<Slot> slots_;    // power-of-two capacity
  std::vector<char> arena_;    // key bytes, in id order
  std::vector<size_t> ends_;   // id -> end offset of its key in arena_
};

/// Row references grouped by key: the bucket layout of the hash joins.
/// Add() interns a key and records one row reference under it; Seal()
/// then lays every key's references out contiguously, each group in Add()
/// order, so a probe walks its matches in build order.
class KeyBuckets {
 public:
  /// Interns `key` (with its precomputed KeyTable::Hash) and files `row`
  /// under it. Only valid before Seal().
  void Add(std::string_view key, uint64_t hash, uint32_t row);
  void Add(std::string_view key, uint32_t row) {
    Add(key, KeyTable::Hash(key), row);
  }

  /// Groups the added references by key (a stable counting sort).
  void Seal();

  /// The row references filed under `key` (after Seal), in Add() order;
  /// an empty range when the key is absent.
  std::pair<const uint32_t*, const uint32_t*> Find(std::string_view key,
                                                   uint64_t hash) const;
  std::pair<const uint32_t*, const uint32_t*> Find(
      std::string_view key) const {
    return Find(key, KeyTable::Hash(key));
  }

  /// Distinct keys.
  size_t size() const { return keys_.size(); }

 private:
  KeyTable keys_;
  std::vector<uint32_t> key_of_;   // until Seal: key id per Add()
  std::vector<uint32_t> rows_;     // Add() order; after Seal: grouped by key
  std::vector<uint32_t> starts_;   // after Seal: key id -> first in rows_
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_KEY_TABLE_H_
