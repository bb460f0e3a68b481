#include "mining/rule.h"

#include <algorithm>
#include <numeric>

namespace minerule::mining {

std::string MinedRule::ToString() const {
  return ItemsetToString(body) + " => " + ItemsetToString(head);
}

bool RuleLess(const MinedRule& a, const MinedRule& b) {
  if (const auto order = a.body <=> b.body; order != 0) return order < 0;
  return a.head < b.head;
}

namespace {

/// The distinct input itemsets in lexicographic order, found by content
/// through a flat open-addressing table. An itemset's rank is its position
/// in that order, so comparing ranks compares itemsets.
class RankIndex {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  explicit RankIndex(const std::vector<FrequentItemset>& itemsets)
      : itemsets_(itemsets) {
    std::vector<uint32_t> order(itemsets.size());
    std::iota(order.begin(), order.end(), 0u);
    auto less = [&](uint32_t a, uint32_t b) {
      return itemsets[a].items < itemsets[b].items;
    };
    if (std::adjacent_find(order.begin(), order.end(),
                           [&](uint32_t a, uint32_t b) {
                             return !less(a, b);
                           }) != order.end()) {
      std::stable_sort(order.begin(), order.end(), less);
    }
    // A repeated itemset takes its last count, as a map keyed on the items
    // and filled in input order would.
    for (uint32_t i : order) {
      if (!rank_to_input_.empty() &&
          itemsets[rank_to_input_.back()].items == itemsets[i].items) {
        rank_to_input_.back() = i;
      } else {
        rank_to_input_.push_back(i);
      }
    }
    size_t capacity = 2;
    while (capacity < 2 * rank_to_input_.size()) capacity *= 2;
    mask_ = capacity - 1;
    table_.assign(capacity, kMissing);
    for (uint32_t rank = 0; rank < rank_to_input_.size(); ++rank) {
      const Itemset& items = at(rank).items;
      size_t slot = Hash(items.data(), items.size()) & mask_;
      while (table_[slot] != kMissing) slot = (slot + 1) & mask_;
      table_[slot] = rank;
    }
  }

  /// Rank of the itemset holding exactly these n items, or kMissing.
  uint32_t Find(const ItemId* items, size_t n) const {
    for (size_t slot = Hash(items, n) & mask_;; slot = (slot + 1) & mask_) {
      const uint32_t rank = table_[slot];
      if (rank == kMissing) return kMissing;
      const Itemset& candidate = at(rank).items;
      if (candidate.size() == n &&
          std::equal(items, items + n, candidate.begin())) {
        return rank;
      }
    }
  }

  const FrequentItemset& at(uint32_t rank) const {
    return itemsets_[rank_to_input_[rank]];
  }

 private:
  /// ItemsetHash over a span.
  static size_t Hash(const ItemId* items, size_t n) {
    size_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<size_t>(items[i]) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  }

  const std::vector<FrequentItemset>& itemsets_;
  std::vector<uint32_t> rank_to_input_;
  std::vector<uint32_t> table_;  // ranks, kMissing = empty
  size_t mask_ = 0;
};

/// A rule before it is materialized: (rank(body) << 32) | head, where head
/// is rank(head), or kMissingHead | an index into the missing heads when the
/// head is not among the input itemsets.
struct RuleKey {
  uint64_t key;
  int64_t group_count;

  bool operator<(const RuleKey& other) const {
    return key != other.key ? key < other.key
                            : group_count < other.group_count;
  }
};

constexpr uint32_t kMissingHead = 0x80000000u;

}  // namespace

std::vector<MinedRule> BuildRulesFromItemsets(
    const std::vector<FrequentItemset>& itemsets, int64_t min_group_count,
    double min_confidence, const CardinalityConstraint& body_card,
    const CardinalityConstraint& head_card) {
  const RankIndex index(itemsets);
  std::vector<RuleKey> keys;
  // Heads that are not input itemsets (the input was not downward closed),
  // back to back; missing_start[m] is where head m begins.
  std::vector<ItemId> missing_items;
  std::vector<size_t> missing_start(1, 0);

  std::vector<size_t> pick;  // head positions within the itemset, ascending
  std::vector<ItemId> head;
  std::vector<ItemId> body;
  for (const FrequentItemset& fi : itemsets) {
    const size_t size = fi.items.size();
    if (size < 2) continue;
    if (fi.group_count < min_group_count) continue;
    // Head sizes compatible with both constraints.
    for (size_t head_size = 1; head_size < size; ++head_size) {
      if (!head_card.Allows(head_size)) continue;
      if (!body_card.Allows(size - head_size)) continue;
      pick.resize(head_size);
      std::iota(pick.begin(), pick.end(), size_t{0});
      head.resize(head_size);
      body.resize(size - head_size);
      while (true) {
        for (size_t m = 0, h = 0, b = 0; m < size; ++m) {
          if (h < head_size && pick[h] == m) {
            head[h++] = fi.items[m];
          } else {
            body[b++] = fi.items[m];
          }
        }
        const uint32_t body_rank = index.Find(body.data(), body.size());
        // A body that was not mined (size cap) yields no rule.
        if (body_rank != RankIndex::kMissing) {
          const int64_t body_count = index.at(body_rank).group_count;
          const double confidence = static_cast<double>(fi.group_count) /
                                    static_cast<double>(body_count);
          if (confidence + 1e-12 >= min_confidence) {
            uint32_t head_ref = index.Find(head.data(), head_size);
            if (head_ref == RankIndex::kMissing) {
              head_ref = kMissingHead |
                         static_cast<uint32_t>(missing_start.size() - 1);
              missing_items.insert(missing_items.end(), head.begin(),
                                   head.end());
              missing_start.push_back(missing_items.size());
            }
            keys.push_back({(uint64_t{body_rank} << 32) | head_ref,
                            fi.group_count});
          }
        }
        // Next head combination in lexicographic order.
        size_t h = head_size;
        while (h > 0 && pick[h - 1] == size - head_size + h - 1) --h;
        if (h == 0) break;
        ++pick[h - 1];
        for (size_t m = h; m < head_size; ++m) pick[m] = pick[m - 1] + 1;
      }
    }
  }

  // Ranks order like the itemsets they stand for, so sorting the keys puts
  // the rules in RuleLess order before any of them is built.
  const bool ranked = missing_start.size() == 1;
  if (ranked) std::sort(keys.begin(), keys.end());
  std::vector<MinedRule> rules(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    const FrequentItemset& body_set =
        index.at(static_cast<uint32_t>(keys[r].key >> 32));
    const uint32_t head_ref = static_cast<uint32_t>(keys[r].key);
    MinedRule& rule = rules[r];
    rule.body = body_set.items;
    if (head_ref & kMissingHead) {
      const size_t m = head_ref & ~kMissingHead;
      rule.head.assign(missing_items.begin() + missing_start[m],
                       missing_items.begin() + missing_start[m + 1]);
    } else {
      rule.head = index.at(head_ref).items;
    }
    rule.group_count = keys[r].group_count;
    rule.body_group_count = body_set.group_count;
  }
  // A missing head has no rank to sort by.
  if (!ranked) std::sort(rules.begin(), rules.end(), RuleLess);
  return rules;
}

}  // namespace minerule::mining
