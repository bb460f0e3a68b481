// The canonical key encoding and KeyTable (DESIGN.md §17): encoded bytes
// are equal exactly when RowEq holds, ids are dense and in first-insert
// order, and the operators built on them keep SQL's equality classes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "relational/catalog.h"
#include "sql/engine.h"
#include "sql/key_table.h"

namespace minerule::sql {
namespace {

std::string Encode(const Row& row) {
  std::string out;
  EncodeKeyRow(row, &out);
  return out;
}

// Both directions of the contract for one pair.
void ExpectContract(const Row& a, const Row& b) {
  const bool eq = RowEq{}(a, b);
  EXPECT_EQ(Encode(a) == Encode(b), eq)
      << "RowEq=" << eq << " for (" << a[0].ToString() << ", ...) vs ("
      << b[0].ToString() << ", ...)";
}

void ExpectSameKey(const Row& a, const Row& b) {
  ASSERT_TRUE(RowEq{}(a, b));
  EXPECT_EQ(Encode(a), Encode(b));
}

void ExpectDifferentKeys(const Row& a, const Row& b) {
  ASSERT_FALSE(RowEq{}(a, b));
  EXPECT_NE(Encode(a), Encode(b));
}

constexpr double kTwo53 = 9007199254740992.0;  // 2^53
constexpr double kTwo63 = 9223372036854775808.0;

TEST(KeyEncodingTest, IntegerAndIntegralDoubleShareOneForm) {
  ExpectSameKey({Value::Integer(1)}, {Value::Double(1.0)});
  ExpectSameKey({Value::Integer(-7)}, {Value::Double(-7.0)});
  ExpectDifferentKeys({Value::Integer(1)}, {Value::Double(1.5)});
}

TEST(KeyEncodingTest, IntegersAbove2To53StayExact) {
  const int64_t two53 = int64_t{1} << 53;
  ExpectSameKey({Value::Integer(two53)}, {Value::Double(kTwo53)});
  // 2^53 + 1 is not representable as a double; the nearest double is 2^53.
  ExpectDifferentKeys({Value::Integer(two53 + 1)}, {Value::Double(kTwo53)});
  ExpectDifferentKeys({Value::Integer(two53 + 1)}, {Value::Integer(two53)});
}

TEST(KeyEncodingTest, SignedZeroNaNAndInfinities) {
  ExpectSameKey({Value::Double(-0.0)}, {Value::Integer(0)});
  ExpectSameKey({Value::Double(-0.0)}, {Value::Double(0.0)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectSameKey({Value::Double(nan)}, {Value::Double(-nan)});
  ExpectSameKey({Value::Double(nan)},
                {Value::Double(std::numeric_limits<double>::signaling_NaN())});
  const double inf = std::numeric_limits<double>::infinity();
  ExpectSameKey({Value::Double(inf)}, {Value::Double(inf)});
  ExpectDifferentKeys({Value::Double(inf)}, {Value::Double(-inf)});
  ExpectDifferentKeys({Value::Double(nan)}, {Value::Double(inf)});
  ExpectDifferentKeys({Value::Double(inf)},
                      {Value::Integer(std::numeric_limits<int64_t>::max())});
}

TEST(KeyEncodingTest, DoublesOutsideInt64Range) {
  // -2^63 is an int64; 2^63 is not.
  ExpectSameKey({Value::Double(-kTwo63)},
                {Value::Integer(std::numeric_limits<int64_t>::min())});
  ExpectDifferentKeys({Value::Double(kTwo63)},
                      {Value::Integer(std::numeric_limits<int64_t>::max())});
  ExpectDifferentKeys(
      {Value::Double(kTwo63)},
      {Value::Integer(std::numeric_limits<int64_t>::min())});
  ExpectSameKey({Value::Double(kTwo63 * 4)}, {Value::Double(kTwo63 * 4)});
  ExpectDifferentKeys({Value::Double(kTwo63)}, {Value::Double(kTwo63 * 2)});
}

TEST(KeyEncodingTest, TypesWithTheSamePayloadDiffer) {
  ExpectDifferentKeys({Value::Null()}, {Value::Integer(0)});
  ExpectDifferentKeys({Value::Null()}, {Value::Double(0.0)});
  ExpectDifferentKeys({Value::Date(5)}, {Value::Integer(5)});
  ExpectDifferentKeys({Value::Boolean(true)}, {Value::Integer(1)});
  ExpectDifferentKeys({Value::Boolean(false)}, {Value::Null()});
  ExpectSameKey({Value::Null()}, {Value::Null()});
}

TEST(KeyEncodingTest, StringsAreLengthPrefixed) {
  ExpectDifferentKeys({Value::String("")}, {Value::Null()});
  const std::string with_nul("a\0b", 3);
  ExpectSameKey({Value::String(with_nul)}, {Value::String(with_nul)});
  ExpectDifferentKeys({Value::String(with_nul)}, {Value::String("a")});
  ExpectDifferentKeys({Value::String(std::string("a\0", 2))},
                      {Value::String("a")});
  ExpectDifferentKeys({Value::String("ab"), Value::String("c")},
                      {Value::String("a"), Value::String("bc")});
  ExpectDifferentKeys({Value::String(""), Value::String("x")},
                      {Value::String("x"), Value::String("")});
}

// Randomized tuples over every type, drawn from small domains so equal and
// near-equal pairs are common: encoded bytes equal <=> RowEq.
TEST(KeyEncodingTest, RandomTuplesSatisfyTheContract) {
  Random rng(20261017);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,    -0.0,   1.0,    1.5,    -2.0,
                             kTwo53, kTwo63, -kTwo63, nan,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  const int64_t ints[] = {0, 1, -2, int64_t{1} << 53, (int64_t{1} << 53) + 1,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  const std::string strings[] = {"", "a", "ab", "b", "bc",
                                 std::string("a\0", 2)};
  auto random_value = [&]() -> Value {
    switch (rng.NextBounded(6)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Boolean(rng.NextBounded(2) == 1);
      case 2:
        return Value::Integer(ints[rng.NextBounded(std::size(ints))]);
      case 3:
        return Value::Double(specials[rng.NextBounded(std::size(specials))]);
      case 4:
        return Value::String(strings[rng.NextBounded(std::size(strings))]);
      default:
        return Value::Date(static_cast<int32_t>(rng.NextBounded(3)));
    }
  };
  int equal_pairs = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t width = 1 + rng.NextBounded(3);
    Row a, b;
    for (size_t i = 0; i < width; ++i) {
      a.push_back(random_value());
      b.push_back(random_value());
    }
    ExpectContract(a, b);
    if (RowEq{}(a, b)) ++equal_pairs;
  }
  EXPECT_GT(equal_pairs, 100);  // the domains really produce equal pairs
}

TEST(KeyTableTest, EmptyTableAllocatesNothing) {
  KeyTable table;
  EXPECT_EQ(table.AllocatedBytes(), 0u);
  EXPECT_EQ(table.Find("x"), KeyTable::kNotFound);
  EXPECT_EQ(table.AllocatedBytes(), 0u);
  KeyBuckets buckets;
  EXPECT_EQ(buckets.size(), 0u);
}

TEST(KeyTableTest, IdsAreDenseAndInInsertionOrderAcrossRehashes) {
  KeyTable table;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    std::string key;
    EncodeKeyValue(Value::String("k" + std::to_string(i * 7919 % 5003)),
                   &key);
    keys.push_back(key);
    const auto [id, inserted] = table.Insert(key);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, static_cast<uint32_t>(i));
  }
  ASSERT_EQ(table.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(table.key(static_cast<uint32_t>(i)), keys[i]);
    EXPECT_EQ(table.Find(keys[i]), static_cast<uint32_t>(i));
    const auto [id, inserted] = table.Insert(keys[i]);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(id, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.size(), keys.size());
  EXPECT_EQ(table.Find("absent"), KeyTable::kNotFound);
}

TEST(KeyTableTest, EmptyKeyIsAKey) {
  KeyTable table;
  EXPECT_TRUE(table.Insert("").second);
  EXPECT_FALSE(table.Insert("").second);
  EXPECT_EQ(table.Find(""), 0u);
  EXPECT_EQ(table.key(0), "");
}

TEST(KeyTableTest, BucketsKeepAddOrderPerKey) {
  KeyBuckets buckets;
  const char* keys[] = {"b", "a", "b", "c", "a", "b"};
  for (uint32_t row = 0; row < 6; ++row) buckets.Add(keys[row], row);
  buckets.Seal();
  EXPECT_EQ(buckets.size(), 3u);
  auto rows_of = [&](const char* key) {
    const auto [first, last] = buckets.Find(key);
    return std::vector<uint32_t>(first, last);
  };
  EXPECT_EQ(rows_of("b"), (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_EQ(rows_of("a"), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(rows_of("c"), (std::vector<uint32_t>{3}));
  EXPECT_TRUE(rows_of("d").empty());
}

TEST(KeyTableTest, CountDistinctFoldsIntegerAndDouble) {
  Catalog catalog;
  SqlEngine engine(&catalog);
  ASSERT_TRUE(engine.Execute("CREATE TABLE m (g INTEGER, v DOUBLE)").ok());
  auto table = catalog.GetTable("m");
  ASSERT_TRUE(table.ok());
  // One column mixing INTEGER 1 and DOUBLE 1.0 (and -0.0 vs 0).
  table.value()->AppendUnchecked({Value::Integer(1), Value::Integer(1)});
  table.value()->AppendUnchecked({Value::Integer(1), Value::Double(1.0)});
  table.value()->AppendUnchecked({Value::Integer(1), Value::Double(-0.0)});
  table.value()->AppendUnchecked({Value::Integer(1), Value::Integer(0)});
  for (int threads : {1, 4}) {
    engine.set_num_threads(threads);
    auto result = engine.Execute("SELECT COUNT(DISTINCT v) FROM m");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value().rows[0][0].AsInteger(), 2) << threads;
    auto distinct = engine.Execute("SELECT DISTINCT v FROM m");
    ASSERT_TRUE(distinct.ok()) << distinct.status();
    ASSERT_EQ(distinct.value().rows.size(), 2u);
    // First-seen representatives survive.
    EXPECT_EQ(distinct.value().rows[0][0].type(), DataType::kInteger);
    EXPECT_EQ(distinct.value().rows[1][0].type(), DataType::kDouble);
  }
}

}  // namespace
}  // namespace minerule::sql
