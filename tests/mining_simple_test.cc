#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "common/random.h"
#include "datagen/quest_gen.h"
#include "mining/apriori.h"
#include "mining/gidlist_miner.h"
#include "mining/partition.h"
#include "mining/reference_miner.h"
#include "mining/simple_miner.h"

namespace minerule::mining {
namespace {

TransactionDb SmallDb() {
  // Groups: {1,2,3}, {1,2}, {2,3}, {1,3}, {1,2,3}.
  return TransactionDb::FromTransactions(
      {{1, 2, 3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3}}, 5);
}

std::vector<FrequentItemset> MustMine(FrequentItemsetMiner* miner,
                                      const TransactionDb& db,
                                      int64_t min_count,
                                      int64_t max_size = -1,
                                      SimpleMinerStats* stats = nullptr) {
  auto result = miner->Mine(db, min_count, max_size, stats);
  EXPECT_TRUE(result.ok()) << miner->name() << ": " << result.status();
  return result.ok() ? std::move(result).value()
                     : std::vector<FrequentItemset>{};
}

TEST(ItemsetTest, CanonicalizeSortsAndDedupes) {
  Itemset items = {3, 1, 2, 3, 1};
  Canonicalize(&items);
  EXPECT_EQ(items, (Itemset{1, 2, 3}));
  EXPECT_TRUE(IsCanonical(items));
  EXPECT_FALSE(IsCanonical(Itemset{2, 1}));
  EXPECT_FALSE(IsCanonical(Itemset{1, 1}));
}

TEST(ItemsetTest, SubsetChecks) {
  EXPECT_TRUE(IsSubset({}, {1, 2}));
  EXPECT_TRUE(IsSubset({2}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 2}, {2}));
}

TEST(ItemsetTest, WithItemInsertsInOrder) {
  EXPECT_EQ(WithItem({1, 3}, 2), (Itemset{1, 2, 3}));
  EXPECT_EQ(WithItem({1, 3}, 0), (Itemset{0, 1, 3}));
  EXPECT_EQ(WithItem({1, 3}, 9), (Itemset{1, 3, 9}));
  EXPECT_EQ(WithItem({}, 5), (Itemset{5}));
}

TEST(ItemsetTest, SubsetsOfSize) {
  auto subsets = SubsetsOfSize({1, 2, 3}, 2);
  ASSERT_EQ(subsets.size(), 3u);
  EXPECT_EQ(subsets[0], (Itemset{1, 2}));
  EXPECT_EQ(subsets[1], (Itemset{1, 3}));
  EXPECT_EQ(subsets[2], (Itemset{2, 3}));
  EXPECT_EQ(SubsetsOfSize({1, 2}, 3).size(), 0u);
  EXPECT_EQ(SubsetsOfSize({1, 2, 3, 4}, 1).size(), 4u);
}

TEST(GidListTest, Intersection) {
  EXPECT_EQ(IntersectGidLists({1, 3, 5, 7}, {2, 3, 5, 8}), (GidList{3, 5}));
  EXPECT_EQ(IntersectGidLists({}, {1}), GidList{});
  EXPECT_EQ(IntersectGidLists({1, 2, 3}, {1, 2, 3}), (GidList{1, 2, 3}));
  EXPECT_EQ(IntersectGidLists({1, 2}, {3, 4}), GidList{});
}

// ---------------------------------------------------------------------------
// Gid-sets: a bitmap exactly when count * 32 >= universe, else a list.
// ---------------------------------------------------------------------------

std::vector<TxPos> Intersect(const std::vector<TxPos>& a,
                             const std::vector<TxPos>& b) {
  std::vector<TxPos> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// The first `count` positions of the multiples of `step`.
std::vector<TxPos> Every(TxPos step, size_t count, TxPos offset = 0) {
  std::vector<TxPos> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(offset + static_cast<TxPos>(i) * step);
  }
  return out;
}

TEST(GidSetArenaTest, RepresentationFollowsSize) {
  // 320 positions: 10 members are exactly as large as the 5-word bitmap.
  GidSetArena sets(320);
  sets.Append(Every(3, 10));
  sets.Append(Every(3, 9));
  sets.Append({});
  EXPECT_TRUE(sets.is_bitmap(0));
  EXPECT_FALSE(sets.is_bitmap(1));
  EXPECT_FALSE(sets.is_bitmap(2));
  EXPECT_EQ(sets.count(0), 10);
  EXPECT_EQ(sets.Positions(0), Every(3, 10));
  EXPECT_EQ(sets.Positions(1), Every(3, 9));
  EXPECT_TRUE(sets.Positions(2).empty());
  // A universe that is no multiple of 64: the boundary is count 11.
  GidSetArena odd(330);
  odd.Append(Every(30, 11));
  odd.Append(Every(30, 10));
  EXPECT_TRUE(odd.is_bitmap(0));
  EXPECT_FALSE(odd.is_bitmap(1));
  EXPECT_EQ(odd.Positions(0), Every(30, 11));
}

TEST(GidSetArenaTest, EachRepresentationPair) {
  const size_t n = 320;  // bitmap from 10 members
  const std::vector<TxPos> dense_a = Every(2, 160);      // even positions
  const std::vector<TxPos> dense_b = Every(3, 100);      // multiples of 3
  const std::vector<TxPos> sparse_a = Every(6, 9, 6);    // 6, 12, ..., 54
  const std::vector<TxPos> sparse_b = Every(4, 9);       // 0, 4, ..., 32
  GidSetArena src(n);
  for (const auto& set : {dense_a, dense_b, sparse_a, sparse_b}) {
    src.Append(set);
  }
  ASSERT_TRUE(src.is_bitmap(0) && src.is_bitmap(1));
  ASSERT_FALSE(src.is_bitmap(2) || src.is_bitmap(3));
  const std::vector<std::vector<TxPos>> sets = {dense_a, dense_b, sparse_a,
                                                sparse_b};
  // Every ordered pair: bitmap∧bitmap, bitmap∧list, list∧bitmap, list∧list.
  for (size_t i = 0; i < sets.size(); ++i) {
    for (size_t j = 0; j < sets.size(); ++j) {
      GidSetArena out(n);
      const std::vector<TxPos> expected = Intersect(sets[i], sets[j]);
      EXPECT_EQ(out.AppendIntersection(src, i, src, j, 0),
                static_cast<int64_t>(expected.size()))
          << i << "," << j;
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out.Positions(0), expected) << i << "," << j;
      EXPECT_EQ(out.is_bitmap(0), UseBitmap(expected.size(), n))
          << i << "," << j;
    }
  }
}

TEST(GidSetArenaTest, IntersectionCrossesTheBoundary) {
  // Two bitmaps whose intersection has exactly 10 members stays a bitmap
  // (10 * 32 == 320); with 9 members it becomes a list.
  GidSetArena src(320);
  src.Append(Every(1, 100));        // 0..99
  src.Append(Every(10, 32));        // 0, 10, ..., 310: 10 below 100
  src.Append(Every(10, 32, 10));    // 10, 20, ..., 320: 9 below 100
  ASSERT_TRUE(src.is_bitmap(0) && src.is_bitmap(1) && src.is_bitmap(2));
  GidSetArena out(320);
  EXPECT_EQ(out.AppendIntersection(src, 0, src, 1, 0), 10);
  EXPECT_EQ(out.AppendIntersection(src, 0, src, 2, 0), 9);
  EXPECT_TRUE(out.is_bitmap(0));
  EXPECT_FALSE(out.is_bitmap(1));
  EXPECT_EQ(out.Positions(0), Every(10, 10));
  EXPECT_EQ(out.Positions(1), Every(10, 9, 10));
  // A list result fed back in intersects like any other list.
  GidSetArena again(320);
  EXPECT_EQ(again.AppendIntersection(out, 1, src, 0, 0), 9);
  EXPECT_EQ(again.Positions(0), Every(10, 9, 10));
}

TEST(GidSetArenaTest, EmptySetsAndThreshold) {
  GidSetArena src(320);
  src.Append({});
  src.Append(Every(1, 320));  // everything
  src.Append(Every(5, 5));
  GidSetArena out(320);
  EXPECT_EQ(out.AppendIntersection(src, 0, src, 1, 0), 0);
  EXPECT_EQ(out.AppendIntersection(src, 1, src, 0, 0), 0);
  EXPECT_EQ(out.AppendIntersection(src, 0, src, 2, 0), 0);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out.Positions(i).empty());
    EXPECT_FALSE(out.is_bitmap(i));
  }
  // Below min_count the count is returned and nothing is stored, for every
  // representation pair.
  EXPECT_EQ(out.AppendIntersection(src, 1, src, 1, 321), 320);
  EXPECT_EQ(out.AppendIntersection(src, 1, src, 2, 6), 5);
  EXPECT_EQ(out.AppendIntersection(src, 2, src, 2, 6), 5);
  EXPECT_EQ(out.size(), 3u);
  out.Clear();
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(out.AppendIntersection(src, 1, src, 1, 320), 320);
  EXPECT_TRUE(out.is_bitmap(0));
  EXPECT_EQ(out.Positions(0), Every(1, 320));
}

TEST(GidSetArenaTest, RandomSetsMatchSetIntersection) {
  Random rng(77);
  const size_t n = 1000;  // bitmap from 32 members
  std::vector<std::vector<TxPos>> sets;
  for (double density : {0.0, 0.005, 0.02, 0.031, 0.032, 0.05, 0.3, 0.9}) {
    std::vector<TxPos> set;
    for (TxPos p = 0; p < n; ++p) {
      if (rng.NextBool(density)) set.push_back(p);
    }
    sets.push_back(std::move(set));
  }
  GidSetArena src(n);
  for (const auto& set : sets) src.Append(set);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(src.is_bitmap(i), UseBitmap(sets[i].size(), n));
    EXPECT_EQ(src.Positions(i), sets[i]);
    for (size_t j = 0; j < sets.size(); ++j) {
      GidSetArena out(n);
      const std::vector<TxPos> expected = Intersect(sets[i], sets[j]);
      out.AppendIntersection(src, i, src, j, 0);
      EXPECT_EQ(out.Positions(0), expected);
      EXPECT_EQ(out.is_bitmap(0), UseBitmap(expected.size(), n));
    }
  }
}

TEST(TransactionDbTest, FromPairsBuildsBothLayouts) {
  TransactionDb db = TransactionDb::FromPairs(
      {{10, 1}, {10, 2}, {20, 2}, {20, 1}, {30, 3}, {10, 1}}, 4);
  EXPECT_EQ(db.num_transactions(), 3u);
  EXPECT_EQ(db.total_groups(), 4);
  EXPECT_EQ(db.items(), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_EQ(db.gid_list(1), (GidList{10, 20}));
  EXPECT_EQ(db.gid_list(2), (GidList{10, 20}));
  EXPECT_EQ(db.gid_list(3), (GidList{30}));
  EXPECT_EQ(db.gid_list(99), GidList{});
  // Duplicate pair (10,1) deduplicated.
  EXPECT_EQ(db.transactions()[0], (Itemset{1, 2}));
}

TEST(TransactionDbTest, SliceRestrictsTransactions) {
  TransactionDb db = SmallDb();
  TransactionDb slice = db.Slice(1, 4);
  EXPECT_EQ(slice.num_transactions(), 3u);
  EXPECT_EQ(slice.total_groups(), 3);
  EXPECT_EQ(slice.transactions()[0], (Itemset{1, 2}));
}

TEST(SimpleMinerTest, MinGroupCountRounding) {
  EXPECT_EQ(MinGroupCount(0.2, 10), 2);
  EXPECT_EQ(MinGroupCount(0.25, 10), 3);  // ceil(2.5)
  EXPECT_EQ(MinGroupCount(0.0, 10), 1);
  EXPECT_EQ(MinGroupCount(1.0, 10), 10);
  EXPECT_EQ(MinGroupCount(0.001, 10), 1);
  EXPECT_EQ(MinGroupCount(0.3, 10), 3);  // exact boundary stays 3
}

TEST(GenerateCandidatesTest, JoinAndPrune) {
  // L2 = {1,2},{1,3},{2,3},{2,4}: join gives {1,2,3} (kept: all subsets
  // present) and {2,3,4} (pruned: {3,4} missing).
  std::vector<Itemset> level = {{1, 2}, {1, 3}, {2, 3}, {2, 4}};
  auto candidates = GenerateCandidates(level);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0], (Itemset{1, 2, 3}));
}

TEST(AprioriTest, KnownCountsOnSmallDb) {
  AprioriMiner miner;
  SimpleMinerStats stats;
  auto itemsets = MustMine(&miner, SmallDb(), 3, -1, &stats);
  // Counts: 1:4, 2:4, 3:4, {1,2}:3, {1,3}:3, {2,3}:3, {1,2,3}:2.
  ASSERT_EQ(itemsets.size(), 6u);
  for (const FrequentItemset& fi : itemsets) {
    if (fi.items.size() == 1) {
      EXPECT_EQ(fi.group_count, 4) << fi.items[0];
    }
    if (fi.items.size() == 2) {
      EXPECT_EQ(fi.group_count, 3);
    }
  }
  EXPECT_GE(stats.passes, 3);  // levels 1..3 attempted
}

TEST(AprioriTest, MaxSizeCapsLevels) {
  AprioriMiner miner;
  auto itemsets = MustMine(&miner, SmallDb(), 1, 1);
  for (const FrequentItemset& fi : itemsets) {
    EXPECT_EQ(fi.items.size(), 1u);
  }
}

TEST(ReferenceMinerTest, RefusesWideDatabases) {
  std::vector<Itemset> txns(1);
  for (ItemId i = 0; i < 25; ++i) txns[0].push_back(i);
  TransactionDb db = TransactionDb::FromTransactions(std::move(txns), 1);
  ReferenceMiner miner;
  auto result = miner.Mine(db, 1, -1, nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RuleBuilderTest, PaperStyleRules) {
  // Itemsets over items {1=A, 2=B}: A:4, B:4, AB:3 of 5 groups.
  std::vector<FrequentItemset> itemsets = {
      {{1}, 4}, {{2}, 4}, {{1, 2}, 3}};
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.5, {1, -1}, {1, 1});
  // A=>B and B=>A, both confidence 3/4.
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].body, (Itemset{1}));
  EXPECT_EQ(rules[0].head, (Itemset{2}));
  EXPECT_DOUBLE_EQ(rules[0].Confidence(), 0.75);
  EXPECT_DOUBLE_EQ(rules[0].Support(5), 0.6);
}

TEST(RuleBuilderTest, ConfidenceFilter) {
  std::vector<FrequentItemset> itemsets = {
      {{1}, 10}, {{2}, 2}, {{1, 2}, 2}};
  // 1=>2: conf 0.2; 2=>1: conf 1.0.
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.5, {1, -1}, {1, 1});
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].body, (Itemset{2}));
}

TEST(RuleBuilderTest, CardinalityConstraints) {
  std::vector<FrequentItemset> itemsets = {
      {{1}, 5}, {{2}, 5}, {{3}, 5}, {{1, 2}, 5}, {{1, 3}, 5},
      {{2, 3}, 5}, {{1, 2, 3}, 5}};
  // Body exactly 2, head exactly 1.
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.0, {2, 2}, {1, 1});
  ASSERT_EQ(rules.size(), 3u);
  for (const MinedRule& rule : rules) {
    EXPECT_EQ(rule.body.size(), 2u);
    EXPECT_EQ(rule.head.size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Pool equivalence: every algorithm must produce the same frequent itemsets
// as the brute-force reference, across randomized databases and thresholds.
// ---------------------------------------------------------------------------

struct PoolCase {
  SimpleAlgorithm algorithm;
  uint64_t seed;
  double support;
};

class PoolEquivalenceTest : public ::testing::TestWithParam<PoolCase> {};

TransactionDb RandomDb(uint64_t seed, size_t num_groups, int num_items,
                       double density) {
  Random rng(seed);
  std::vector<Itemset> txns;
  txns.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    Itemset txn;
    for (ItemId item = 1; item <= num_items; ++item) {
      if (rng.NextBool(density)) txn.push_back(item);
    }
    txns.push_back(std::move(txn));
  }
  return TransactionDb::FromTransactions(std::move(txns),
                                         static_cast<int64_t>(num_groups));
}

TEST_P(PoolEquivalenceTest, MatchesReferenceMiner) {
  const PoolCase& param = GetParam();
  TransactionDb db = RandomDb(param.seed, 60, 12, 0.35);
  const int64_t min_count = MinGroupCount(param.support, db.total_groups());

  ReferenceMiner reference;
  auto expected = MustMine(&reference, db, min_count);

  SimpleMinerOptions options;
  options.partition_count = 3;
  options.sample_rate = 0.4;
  options.seed = param.seed + 1;
  auto miner = CreateMiner(param.algorithm, options);
  auto actual = MustMine(miner.get(), db, min_count);

  ASSERT_EQ(actual.size(), expected.size())
      << miner->name() << " support=" << param.support;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].items, expected[i].items) << i;
    EXPECT_EQ(actual[i].group_count, expected[i].group_count)
        << ItemsetToString(expected[i].items);
  }
}

std::vector<PoolCase> PoolCases() {
  std::vector<PoolCase> cases;
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    for (uint64_t seed : {7u, 21u, 99u}) {
      for (double support : {0.05, 0.15, 0.3}) {
        cases.push_back({algorithm, seed, support});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PoolEquivalenceTest, ::testing::ValuesIn(PoolCases()),
    [](const ::testing::TestParamInfo<PoolCase>& info) {
      return std::string(SimpleAlgorithmName(info.param.algorithm)) + "_s" +
             std::to_string(info.param.seed) + "_sup" +
             std::to_string(static_cast<int>(info.param.support * 100));
    });

// Rule-level equivalence across the pool.
class RulePoolTest : public ::testing::TestWithParam<SimpleAlgorithm> {};

TEST_P(RulePoolTest, SameRulesAsGidList) {
  TransactionDb db = RandomDb(1234, 80, 10, 0.4);
  SimpleMinerOptions options;
  options.sample_rate = 0.5;
  auto baseline = MineSimpleRules(db, 0.1, 0.4, {1, -1}, {1, 1},
                                  SimpleAlgorithm::kGidList, options);
  ASSERT_TRUE(baseline.ok());
  auto other =
      MineSimpleRules(db, 0.1, 0.4, {1, -1}, {1, 1}, GetParam(), options);
  ASSERT_TRUE(other.ok());
  ASSERT_EQ(other.value().size(), baseline.value().size());
  for (size_t i = 0; i < baseline.value().size(); ++i) {
    EXPECT_EQ(other.value()[i].body, baseline.value()[i].body);
    EXPECT_EQ(other.value()[i].head, baseline.value()[i].head);
    EXPECT_EQ(other.value()[i].group_count, baseline.value()[i].group_count);
    EXPECT_EQ(other.value()[i].body_group_count,
              baseline.value()[i].body_group_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Pool, RulePoolTest,
                         ::testing::Values(SimpleAlgorithm::kApriori,
                                           SimpleAlgorithm::kAprioriTid,
                                           SimpleAlgorithm::kDhp,
                                           SimpleAlgorithm::kPartition,
                                           SimpleAlgorithm::kSampling),
                         [](const auto& info) {
                           return SimpleAlgorithmName(info.param);
                         });

TEST(PoolEquivalenceTest2, EmptyGroupsInDenominator) {
  // CodedSource only carries groups with at least one large item, so
  // total_groups can exceed the transaction count. Every algorithm must
  // count thresholds against total_groups, not the transaction count.
  TransactionDb db = TransactionDb::FromTransactions(
      {{1, 2}, {1, 2}, {1}, {2}}, /*total_groups=*/10);
  // support 0.2 of 10 groups = 2 groups.
  const int64_t min_count = MinGroupCount(0.2, db.total_groups());
  EXPECT_EQ(min_count, 2);
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    SimpleMinerOptions options;
    options.sample_rate = 1.0;  // deterministic for this tiny input
    auto miner = CreateMiner(algorithm, options);
    auto itemsets = MustMine(miner.get(), db, min_count);
    // Lexicographic order: {1}: 3 groups, {1,2}: 2 groups, {2}: 3 groups.
    ASSERT_EQ(itemsets.size(), 3u) << miner->name();
    EXPECT_EQ(itemsets[1].items, (Itemset{1, 2})) << miner->name();
    EXPECT_EQ(itemsets[1].group_count, 2) << miner->name();
  }
  // At support 0.4 (4 groups) nothing survives.
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kGidList, SimpleAlgorithm::kPartition}) {
    auto miner = CreateMiner(algorithm);
    auto itemsets = MustMine(miner.get(), db, MinGroupCount(0.4, 10));
    EXPECT_TRUE(itemsets.empty()) << miner->name();
  }
}

TEST(SamplingMinerTest, DeterministicForFixedSeed) {
  TransactionDb db = RandomDb(5, 100, 10, 0.3);
  SimpleMinerOptions options;
  options.sample_rate = 0.3;
  options.seed = 17;
  auto a = CreateMiner(SimpleAlgorithm::kSampling, options);
  auto b = CreateMiner(SimpleAlgorithm::kSampling, options);
  auto ra = MustMine(a.get(), db, 10);
  auto rb = MustMine(b.get(), db, 10);
  ASSERT_EQ(ra.size(), rb.size());
}

TEST(PartitionMinerTest, MorePartitionsThanTransactions) {
  TransactionDb db = SmallDb();
  PartitionMiner miner(64);
  auto itemsets = MustMine(&miner, db, 3);
  EXPECT_EQ(itemsets.size(), 6u);
}

TEST(PartitionMinerTest, OversizedPartitionCountClampsToTransactions) {
  // Regression: partition_count far above the transaction count must clamp
  // to one transaction per slice (never an empty slice, whose threshold-1
  // local pass would blow up the candidate set) and still agree with the
  // reference miner — at every thread count.
  TransactionDb db = RandomDb(31, 7, 6, 0.5);
  ReferenceMiner reference;
  auto expected = MustMine(&reference, db, 2);
  for (int partition_count : {8, 1000}) {
    for (int threads : {1, 4}) {
      PartitionMiner miner(partition_count, threads);
      SimpleMinerStats stats;
      auto itemsets = MustMine(&miner, db, 2, -1, &stats);
      EXPECT_EQ(stats.passes, 2) << partition_count;
      ASSERT_EQ(itemsets.size(), expected.size())
          << "partitions=" << partition_count << " threads=" << threads;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(itemsets[i].items, expected[i].items);
        EXPECT_EQ(itemsets[i].group_count, expected[i].group_count);
      }
      // Phase 2 counted at most the candidates 7 one-transaction slices can
      // propose; an unclamped slice count would not change correctness but
      // this pins the clamp's candidate accounting.
      ASSERT_EQ(stats.candidates_per_level.size(), 1u);
      EXPECT_GE(stats.candidates_per_level[0],
                static_cast<int64_t>(itemsets.size()));
    }
  }
}

TEST(PartitionMinerTest, SingleTransactionAndSingletonSlices) {
  // One transaction, many partitions: clamps to one slice.
  TransactionDb one = TransactionDb::FromTransactions({{1, 2, 3}}, 1);
  PartitionMiner miner(16);
  auto itemsets = MustMine(&miner, one, 1);
  EXPECT_EQ(itemsets.size(), 7u);  // all non-empty subsets of {1,2,3}
}

TEST(SimpleMinerTest, EmptyDatabaseYieldsNothing) {
  TransactionDb db = TransactionDb::FromTransactions({}, 0);
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling}) {
    auto miner = CreateMiner(algorithm);
    auto itemsets = MustMine(miner.get(), db, 1);
    EXPECT_TRUE(itemsets.empty()) << miner->name();
  }
}

TEST(SimpleMinerTest, AlgorithmNamesRoundTrip) {
  for (SimpleAlgorithm algorithm :
       {SimpleAlgorithm::kApriori, SimpleAlgorithm::kAprioriTid,
        SimpleAlgorithm::kGidList, SimpleAlgorithm::kDhp,
        SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling,
        SimpleAlgorithm::kReference}) {
    auto parsed = SimpleAlgorithmFromName(SimpleAlgorithmName(algorithm));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), algorithm);
  }
  EXPECT_FALSE(SimpleAlgorithmFromName("fp-growth").ok());
}

// ---------------------------------------------------------------------------
// The gid-list miner against the brute-force reference, on sources whose
// frequent gid-sets are all bitmaps, all lists, or both.
// ---------------------------------------------------------------------------

void ExpectGidListMatchesReference(const TransactionDb& db,
                                   int64_t min_count) {
  for (int64_t max_size : {-1, 1, 2, 3}) {
    ReferenceMiner reference;
    GidListMiner gidlist;
    auto expected = MustMine(&reference, db, min_count, max_size);
    SimpleMinerStats stats;
    auto actual = MustMine(&gidlist, db, min_count, max_size, &stats);
    ASSERT_EQ(actual.size(), expected.size()) << "max_size=" << max_size;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].items, expected[i].items) << i;
      EXPECT_EQ(actual[i].group_count, expected[i].group_count)
          << ItemsetToString(expected[i].items);
    }
    // large_per_level counts the result by size (a last level may be 0).
    std::vector<int64_t> per_size;
    for (const FrequentItemset& fi : actual) {
      if (per_size.size() < fi.items.size()) per_size.resize(fi.items.size());
      ++per_size[fi.items.size() - 1];
    }
    std::vector<int64_t> levels = stats.large_per_level;
    while (!levels.empty() && levels.back() == 0) levels.pop_back();
    EXPECT_EQ(levels, per_size) << "max_size=" << max_size;
    EXPECT_EQ(stats.candidates_per_level.size(), stats.large_per_level.size());
  }
}

TEST(GidListMinerTest, DenseQuestAllBitmaps) {
  datagen::QuestParams params;
  params.num_transactions = 64;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 4;
  params.num_items = 16;
  params.num_patterns = 8;
  TransactionDb db = datagen::GenerateQuestDb(params);
  const int64_t min_count = 2;
  // Every frequent set has at least 2 of 64 groups: all bitmaps.
  ASSERT_TRUE(UseBitmap(min_count, db.num_transactions()));
  ExpectGidListMatchesReference(db, min_count);
}

TEST(GidListMinerTest, SparseAllLists) {
  // 3200 groups: a bitmap needs 100 members, and no item reaches that.
  TransactionDb db = RandomDb(41, 3200, 16, 0.02);
  for (ItemId item : db.items()) {
    ASSERT_FALSE(UseBitmap(db.gid_list(item).size(), db.num_transactions()));
  }
  ExpectGidListMatchesReference(db, 2);
}

TEST(GidListMinerTest, MixedQuest) {
  datagen::QuestParams params;
  params.num_transactions = 1000;
  params.avg_transaction_size = 4;
  params.avg_pattern_size = 3;
  params.num_items = 20;
  params.num_patterns = 10;
  TransactionDb db = datagen::GenerateQuestDb(params);
  const int64_t min_count = 8;
  // Items are bitmaps (32 of 1000 groups or more) while most frequent
  // pairs and triples are lists.
  size_t bitmaps = 0;
  for (ItemId item : db.items()) {
    bitmaps += UseBitmap(db.gid_list(item).size(), 1000) ? 1 : 0;
  }
  ASSERT_GT(bitmaps, 0u);
  ASSERT_FALSE(UseBitmap(min_count, 1000));
  ExpectGidListMatchesReference(db, min_count);
}

// ---------------------------------------------------------------------------
// Rule derivation: the same rules, in the same order, as the straightforward
// derivation (every head subset, a map lookup of the body, a RuleLess sort).
// ---------------------------------------------------------------------------

std::vector<MinedRule> StraightforwardRules(
    const std::vector<FrequentItemset>& itemsets, int64_t min_group_count,
    double min_confidence, const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card) {
  std::map<Itemset, int64_t> counts;
  for (const FrequentItemset& fi : itemsets) counts[fi.items] = fi.group_count;
  std::vector<MinedRule> rules;
  for (const FrequentItemset& fi : itemsets) {
    if (fi.items.size() < 2 || fi.group_count < min_group_count) continue;
    for (size_t head_size = 1; head_size < fi.items.size(); ++head_size) {
      if (!head_card.Allows(head_size) ||
          !body_card.Allows(fi.items.size() - head_size)) {
        continue;
      }
      for (Itemset& head : SubsetsOfSize(fi.items, head_size)) {
        Itemset body;
        std::set_difference(fi.items.begin(), fi.items.end(), head.begin(),
                            head.end(), std::back_inserter(body));
        auto it = counts.find(body);
        if (it == counts.end()) continue;
        const double confidence = static_cast<double>(fi.group_count) /
                                  static_cast<double>(it->second);
        if (confidence + 1e-12 < min_confidence) continue;
        rules.push_back({std::move(body), std::move(head), fi.group_count,
                         it->second});
      }
    }
  }
  std::sort(rules.begin(), rules.end(), RuleLess);
  return rules;
}

void ExpectSameRules(const std::vector<FrequentItemset>& itemsets,
                     int64_t min_count, double min_confidence,
                     const CardinalityConstraint& body_card,
                     const CardinalityConstraint& head_card) {
  const auto expected = StraightforwardRules(itemsets, min_count,
                                             min_confidence, body_card,
                                             head_card);
  const auto actual = BuildRulesFromItemsets(itemsets, min_count,
                                             min_confidence, body_card,
                                             head_card);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].ToString(), expected[i].ToString()) << i;
    EXPECT_EQ(actual[i].group_count, expected[i].group_count) << i;
    EXPECT_EQ(actual[i].body_group_count, expected[i].body_group_count) << i;
  }
}

TEST(RuleBuilderTest, AnyHeadSizeMatchesStraightforwardDerivation) {
  TransactionDb db = RandomDb(8, 60, 9, 0.5);
  GidListMiner miner;
  auto itemsets = MustMine(&miner, db, 6);
  ASSERT_GT(itemsets.size(), 100u);
  for (double confidence : {0.0, 0.5, 0.9}) {
    ExpectSameRules(itemsets, 6, confidence, {1, -1}, {1, -1});  // 1..n
    ExpectSameRules(itemsets, 6, confidence, {1, 2}, {2, 3});
    ExpectSameRules(itemsets, 10, confidence, {2, -1}, {1, 1});
  }
  // Input order does not matter: ranks come from sorting the itemsets.
  std::reverse(itemsets.begin(), itemsets.end());
  ExpectSameRules(itemsets, 6, 0.5, {1, -1}, {1, -1});
}

TEST(RuleBuilderTest, NonDownwardClosedInput) {
  // {3} and {2, 3} are missing: rules with those heads still appear and
  // sort like any other, while a missing body ({3} or {2, 3}) skips its
  // rule.
  std::vector<FrequentItemset> itemsets = {
      {{1}, 9}, {{1, 2}, 6}, {{1, 2, 3}, 4}, {{1, 3}, 5}, {{2}, 8}};
  ExpectSameRules(itemsets, 1, 0.0, {1, -1}, {1, -1});
  auto rules = BuildRulesFromItemsets(itemsets, 1, 0.0, {1, -1}, {1, -1});
  std::vector<std::string> names;
  for (const MinedRule& rule : rules) names.push_back(rule.ToString());
  EXPECT_EQ(names, (std::vector<std::string>{
                       "{1} => {2}", "{1} => {2, 3}", "{1} => {3}",
                       "{1, 2} => {3}", "{1, 3} => {2}", "{2} => {1}",
                       "{2} => {1, 3}"}));
}

TEST(RuleBuilderTest, TiesAndRepeatedItemsets) {
  // Equal counts everywhere, so every rule ties on confidence and support;
  // order comes from the itemsets alone. A repeated itemset yields its
  // rules twice, as it always did.
  std::vector<FrequentItemset> itemsets = {
      {{1}, 5}, {{2}, 5}, {{3}, 5}, {{1, 2}, 5}, {{1, 3}, 5},
      {{2, 3}, 5}, {{1, 2, 3}, 5}, {{1, 2}, 5}};
  ExpectSameRules(itemsets, 1, 1.0, {1, -1}, {1, -1});
  EXPECT_EQ(BuildRulesFromItemsets(itemsets, 1, 1.0, {1, -1}, {1, -1}).size(),
            14u);
}

TEST(RuleLessTest, OrdersByBodyThenHead) {
  auto rule = [](Itemset body, Itemset head) {
    return MinedRule{std::move(body), std::move(head), 1, 1};
  };
  EXPECT_TRUE(RuleLess(rule({1}, {3}), rule({1, 2}, {0})));  // prefix body
  EXPECT_TRUE(RuleLess(rule({1, 2}, {9}), rule({1, 3}, {0})));
  EXPECT_TRUE(RuleLess(rule({1}, {2}), rule({1}, {2, 3})));
  EXPECT_FALSE(RuleLess(rule({1}, {2}), rule({1}, {2})));
  EXPECT_FALSE(RuleLess(rule({2}, {1}), rule({1}, {5})));
}

}  // namespace
}  // namespace minerule::mining
