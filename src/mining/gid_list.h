#ifndef MINERULE_MINING_GID_LIST_H_
#define MINERULE_MINING_GID_LIST_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mining/itemset.h"

namespace minerule::mining {

/// A sorted list of the group identifiers containing some itemset. This is
/// the support-counting structure the paper describes for the simple core
/// ("counting elements in an associated list that contains identifiers of
/// groups in which the itemset is present").
using GidList = std::vector<Gid>;

/// Sorted-merge intersection.
GidList IntersectGidLists(const GidList& a, const GidList& b);

/// A group's dense position in a TransactionDb (its index in
/// transactions()), the member type of a GidSetArena.
using TxPos = uint32_t;

/// The representation rule of a gid-set of `count` members out of
/// `universe` positions: a bitmap (universe / 8 bytes) exactly when it is no
/// larger than the position list (4 bytes a member).
inline bool UseBitmap(size_t count, size_t universe) {
  return count * 32 >= universe;
}

/// The gid-sets of one level of the gid-list miner, stored back to back in
/// two flat arrays so that adding a set allocates nothing once the arrays
/// have grown (DESIGN.md §19). Each set is either a bitmap over the
/// positions 0..universe-1 or an ascending position list, as UseBitmap picks
/// from its size.
class GidSetArena {
 public:
  explicit GidSetArena(size_t universe = 0)
      : universe_(universe), num_words_((universe + 63) / 64) {}

  size_t size() const { return slots_.size(); }
  int64_t count(size_t i) const { return slots_[i].count; }
  bool is_bitmap(size_t i) const { return slots_[i].bitmap; }

  /// Drops every set and keeps the capacity.
  void Clear();

  /// Appends the set of these ascending positions.
  void Append(std::span<const TxPos> positions);

  /// Appends a[i] ∩ b[j] when it has at least `min_count` members and
  /// returns its member count either way. `a` and `b` are other arenas
  /// over the same universe.
  int64_t AppendIntersection(const GidSetArena& a, size_t i,
                             const GidSetArena& b, size_t j,
                             int64_t min_count);

  /// The members of set i, ascending.
  std::vector<TxPos> Positions(size_t i) const;

 private:
  struct Slot {
    size_t offset;  // into words_ or positions_
    uint32_t count;
    bool bitmap;
  };

  size_t universe_;
  size_t num_words_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> words_;
  std::vector<TxPos> positions_;
};

}  // namespace minerule::mining

#endif  // MINERULE_MINING_GID_LIST_H_
