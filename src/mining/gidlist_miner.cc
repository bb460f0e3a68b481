#include "mining/gidlist_miner.h"

#include <algorithm>

#include "common/trace.h"

namespace minerule::mining {

namespace {

/// One level of the search: its k-itemsets as a flat `k × size` array in
/// lexicographic order, their counts, and where each one's children start in
/// the next level. Items are the ranks of the frequent items (0, 1, ...), so
/// the order is the same as over the item ids. An entry's children extend
/// it by one larger item and are generated in order, so the children of
/// entry i are next[first_child[i], first_child[i + 1]): the levels form a
/// prefix tree.
struct Level {
  size_t k = 0;
  std::vector<uint32_t> items;
  std::vector<int64_t> counts;
  std::vector<uint32_t> first_child;

  size_t size() const { return counts.size(); }
  const uint32_t* at(size_t i) const { return items.data() + i * k; }
};

/// True when the k-itemset `set` is in levels[k - 1]: a walk down the
/// prefix tree, binary searching one item per level among the children of
/// the previous match.
bool IsLarge(const std::vector<Level>& levels, const uint32_t* set,
             size_t k) {
  size_t match = set[0];  // level 0 holds every frequent item in rank order
  for (size_t d = 1; d < k; ++d) {
    const Level& parent = levels[d - 1];
    const Level& level = levels[d];
    size_t lo = parent.first_child[match];
    const size_t end = parent.first_child[match + 1];
    size_t hi = end;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (level.at(mid)[d] < set[d]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == end || level.at(lo)[d] != set[d]) return false;
    match = lo;
  }
  return true;
}

/// Frequent item id -> rank, as a flat open-addressing table: the level-1
/// build looks up every item occurrence of the database.
class RankTable {
 public:
  explicit RankTable(const std::vector<ItemId>& item_of_rank) {
    while ((size_t{1} << bits_) < 2 * item_of_rank.size()) ++bits_;
    slots_.assign(size_t{1} << bits_, {0, -1});
    for (size_t r = 0; r < item_of_rank.size(); ++r) {
      size_t slot = Home(item_of_rank[r]);
      while (slots_[slot].rank >= 0) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = {item_of_rank[r], static_cast<int64_t>(r)};
    }
  }

  /// The item's rank, or -1 when it is not frequent.
  int64_t Find(ItemId item) const {
    for (size_t slot = Home(item);; slot = (slot + 1) & (slots_.size() - 1)) {
      if (slots_[slot].rank < 0 || slots_[slot].item == item) {
        return slots_[slot].rank;
      }
    }
  }

 private:
  struct Slot {
    ItemId item;
    int64_t rank;
  };

  size_t Home(ItemId item) const {
    return (static_cast<uint32_t>(item) * 0x9e3779b1u) >> (32 - bits_);
  }

  int bits_ = 1;
  std::vector<Slot> slots_;
};

/// Appends level `depth`'s entries [begin, end) and their descendants in
/// lexicographic order (an itemset sorts right before its extensions),
/// mapping item ranks back to item ids.
void EmitPreorder(const std::vector<Level>& levels,
                  const std::vector<ItemId>& item_of_rank, size_t depth,
                  size_t begin, size_t end,
                  std::vector<FrequentItemset>* out) {
  const Level& level = levels[depth];
  const bool has_children = depth + 1 < levels.size();
  for (size_t i = begin; i < end; ++i) {
    FrequentItemset& fi = out->emplace_back();
    fi.items.reserve(level.k);
    for (size_t m = 0; m < level.k; ++m) {
      fi.items.push_back(item_of_rank[level.at(i)[m]]);
    }
    fi.group_count = level.counts[i];
    if (has_children) {
      EmitPreorder(levels, item_of_rank, depth + 1, level.first_child[i],
                   level.first_child[i + 1], out);
    }
  }
}

}  // namespace

Result<std::vector<FrequentItemset>> GidListMiner::Mine(
    const TransactionDb& db, int64_t min_group_count, int64_t max_size,
    SimpleMinerStats* stats) {
  const std::vector<ItemId>& items = db.items();
  const std::vector<Itemset>& transactions = db.transactions();

  // Level 1: the frequent items in id order. Their position lists are laid
  // out back to back by a counting sort over the transactions.
  std::vector<ItemId> item_of_rank;
  std::vector<size_t> start(1, 0);
  for (ItemId item : items) {
    const size_t support = db.gid_list(item).size();
    if (static_cast<int64_t>(support) < min_group_count) continue;
    item_of_rank.push_back(item);
    start.push_back(start.back() + support);
  }
  const RankTable rank_of(item_of_rank);
  std::vector<TxPos> positions(start.back());
  std::vector<size_t> fill(start.begin(), start.end() - 1);
  for (size_t t = 0; t < transactions.size(); ++t) {
    for (ItemId item : transactions[t]) {
      const int64_t rank = rank_of.Find(item);
      if (rank >= 0) positions[fill[rank]++] = static_cast<TxPos>(t);
    }
  }
  GidSetArena item_sets(transactions.size());
  std::vector<Level> levels(1);
  levels[0].k = 1;
  for (uint32_t r = 0; r < item_of_rank.size(); ++r) {
    item_sets.Append({positions.data() + start[r], start[r + 1] - start[r]});
    levels[0].items.push_back(r);
    levels[0].counts.push_back(item_sets.count(r));
  }
  positions = {};
  if (stats != nullptr) {
    stats->passes = 1;  // only the vertical build touches the data
    stats->candidates_per_level.push_back(static_cast<int64_t>(items.size()));
    stats->large_per_level.push_back(static_cast<int64_t>(levels[0].size()));
  }

  // The groups of a candidate a ∪ {y} (a and its sibling b = p ∪ {y} share
  // the prefix p) are those of a that also hold item y, so each candidate
  // intersects its left parent's set with one item's set.
  GidSetArena level_sets[2] = {GidSetArena(transactions.size()),
                               GidSetArena(transactions.size())};
  const GidSetArena* sets = &item_sets;
  std::vector<uint32_t> candidate;
  std::vector<uint32_t> subset;
  while (levels.back().size() > 0) {
    Level& level = levels.back();
    const size_t k = level.k;
    ScopedSpan level_span("core.gidlist.level", "core",
                          static_cast<int64_t>(k));
    if (max_size >= 0 && static_cast<int64_t>(k) >= max_size) break;

    // Join entries sharing their first k-1 items. For a fixed i the
    // candidates ascend with j, and across i they ascend with i, so the
    // next level comes out sorted.
    Level next;
    next.k = k + 1;
    GidSetArena& next_sets = level_sets[k % 2];
    next_sets.Clear();
    candidate.resize(k + 1);
    subset.resize(k);
    level.first_child.resize(level.size() + 1);
    int64_t candidate_count = 0;
    for (size_t i = 0; i < level.size(); ++i) {
      level.first_child[i] = static_cast<uint32_t>(next.size());
      const uint32_t* a = level.at(i);
      std::copy(a, a + k, candidate.begin());
      for (size_t j = i + 1; j < level.size(); ++j) {
        const uint32_t* b = level.at(j);
        if (!std::equal(a, a + k - 1, b)) break;
        candidate[k] = b[k - 1];
        // Apriori prune: every k-subset must be large. Dropping either of
        // the last two items gives a parent, so only the first k-1 drops
        // need a lookup.
        bool keep = true;
        for (size_t drop = 0; drop + 1 < k && keep; ++drop) {
          std::copy(candidate.begin(), candidate.begin() + drop,
                    subset.begin());
          std::copy(candidate.begin() + drop + 1, candidate.end(),
                    subset.begin() + drop);
          keep = IsLarge(levels, subset.data(), k);
        }
        if (!keep) continue;
        ++candidate_count;
        const int64_t count = next_sets.AppendIntersection(
            *sets, i, item_sets, candidate[k], min_group_count);
        if (count >= min_group_count) {
          next.items.insert(next.items.end(), candidate.begin(),
                            candidate.end());
          next.counts.push_back(count);
        }
      }
    }
    level.first_child[level.size()] = static_cast<uint32_t>(next.size());
    if (stats != nullptr) {
      stats->candidates_per_level.push_back(candidate_count);
      stats->large_per_level.push_back(static_cast<int64_t>(next.size()));
    }
    sets = &next_sets;
    levels.push_back(std::move(next));
  }

  size_t total = 0;
  for (const Level& level : levels) total += level.size();
  std::vector<FrequentItemset> result;
  result.reserve(total);
  EmitPreorder(levels, item_of_rank, 0, 0, levels[0].size(), &result);
  return result;
}

}  // namespace minerule::mining
