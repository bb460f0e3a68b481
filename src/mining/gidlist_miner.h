#ifndef MINERULE_MINING_GIDLIST_MINER_H_
#define MINERULE_MINING_GIDLIST_MINER_H_

#include "mining/simple_miner.h"

namespace minerule::mining {

/// The counting scheme the paper describes for its simple core (§4.3.1):
/// levelwise growth where each itemset carries the set of groups containing
/// it (a bitmap or a sorted list, whichever is smaller); the support of a
/// new (k+1)-itemset is the size of the intersection of its left parent's
/// set with its new item's. No further database passes are needed after
/// the vertical layout is built (pass count 1). DESIGN.md §19.
class GidListMiner : public FrequentItemsetMiner {
 public:
  const char* name() const override { return "gidlist"; }

  Result<std::vector<FrequentItemset>> Mine(const TransactionDb& db,
                                            int64_t min_group_count,
                                            int64_t max_size,
                                            SimpleMinerStats* stats) override;
};

}  // namespace minerule::mining

#endif  // MINERULE_MINING_GIDLIST_MINER_H_
