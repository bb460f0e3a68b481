// Experiment §3 (algorithm interoperability): the pool of simple-core
// algorithms on Quest workloads, reproducing the qualitative shapes of the
// cited literature [1,3,12,13,7]:
//   - gid-list intersection wins once the vertical layout is built;
//   - DHP prunes pass-2 candidates vs plain Apriori at low supports;
//   - Partition does the work in 2 passes; Sampling in ~1 pass when the
//     sample is representative;
//   - everything degrades as minimum support drops.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/quest_gen.h"
#include "mining/simple_miner.h"

namespace {

using namespace minerule;
using mining::SimpleAlgorithm;

mining::TransactionDb& SharedDb(int64_t transactions) {
  static std::map<int64_t, mining::TransactionDb>* dbs =
      new std::map<int64_t, mining::TransactionDb>();
  auto it = dbs->find(transactions);
  if (it == dbs->end()) {
    datagen::QuestParams params;  // T10.I4, 1000 items
    params.num_transactions = transactions;
    params.avg_transaction_size = 10;
    params.avg_pattern_size = 4;
    params.num_items = 1000;
    params.num_patterns = 100;
    it = dbs->emplace(transactions, datagen::GenerateQuestDb(params)).first;
  }
  return it->second;
}

void RunMiner(benchmark::State& state, SimpleAlgorithm algorithm) {
  const int64_t transactions = state.range(0);
  const double support = static_cast<double>(state.range(1)) / 10000.0;
  // Third axis: worker threads for the parallel miners (1 = serial).
  const int threads = static_cast<int>(state.range(2));
  mining::TransactionDb& db = SharedDb(transactions);
  const int64_t min_count = mining::MinGroupCount(support, db.total_groups());
  mining::SimpleMinerOptions options;
  options.partition_count = 4;
  options.sample_rate = 0.2;
  options.num_threads = threads;
  auto miner = mining::CreateMiner(algorithm, options);

  mining::SimpleMinerStats stats;
  int64_t itemsets = 0;
  for (auto _ : state) {
    stats = {};
    auto result = miner->Mine(db, min_count, -1, &stats);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    itemsets = static_cast<int64_t>(result.value().size());
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
  state.counters["passes"] = static_cast<double>(stats.passes);
  int64_t candidates = 0;
  for (int64_t c : stats.candidates_per_level) candidates += c;
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["minsup_bp"] = static_cast<double>(state.range(1));
  state.counters["threads"] = static_cast<double>(threads);
}

#define POOL_BENCH(name, algorithm)                       \
  void name(benchmark::State& state) {                    \
    RunMiner(state, algorithm);                           \
  }                                                       \
  BENCHMARK(name)                                         \
      ->ArgsProduct({{2000}, {200, 100, 50}, {1}})        \
      ->Unit(benchmark::kMillisecond)

POOL_BENCH(BM_Apriori, SimpleAlgorithm::kApriori);
POOL_BENCH(BM_AprioriTid, SimpleAlgorithm::kAprioriTid);
POOL_BENCH(BM_GidList, SimpleAlgorithm::kGidList);
POOL_BENCH(BM_Dhp, SimpleAlgorithm::kDhp);
POOL_BENCH(BM_Partition, SimpleAlgorithm::kPartition);
POOL_BENCH(BM_Sampling, SimpleAlgorithm::kSampling);

// Database-size scaling at fixed support (the |D| sweep of [3]).
void BM_GidListScaleD(benchmark::State& state) {
  RunMiner(state, SimpleAlgorithm::kGidList);
}
BENCHMARK(BM_GidListScaleD)
    ->ArgsProduct({{1000, 4000, 16000}, {100}, {1}})
    ->Unit(benchmark::kMillisecond);

void BM_AprioriScaleD(benchmark::State& state) {
  RunMiner(state, SimpleAlgorithm::kApriori);
}
BENCHMARK(BM_AprioriScaleD)
    ->ArgsProduct({{1000, 4000, 16000}, {100}, {1}})
    ->Unit(benchmark::kMillisecond);

// Thread-count scaling of the parallel miners on a larger Quest set: the
// speedup axis of the parallel mining core (Partition mines its slices
// concurrently; Apriori/DHP count candidates over transaction ranges).
#define THREADS_BENCH(name, algorithm)                    \
  void name(benchmark::State& state) {                    \
    RunMiner(state, algorithm);                           \
  }                                                       \
  BENCHMARK(name)                                         \
      ->ArgsProduct({{16000}, {50}, {1, 2, 4, 8}})        \
      ->Unit(benchmark::kMillisecond)->UseRealTime()

THREADS_BENCH(BM_PartitionThreads, SimpleAlgorithm::kPartition);
THREADS_BENCH(BM_AprioriThreads, SimpleAlgorithm::kApriori);
THREADS_BENCH(BM_DhpThreads, SimpleAlgorithm::kDhp);

// --smoke: one run per pool member on each of four shapes, pass counters
// (including the DHP filter sizes and Partition slice sizes) emitted as
// JSON and validated. On every shape every member must find the same large
// itemsets with the same counts, the shape must have large itemsets of
// size >= 2 (otherwise the agreement checks nothing), and a levelwise
// member's large_per_level must match what it returned.
struct SmokeShape {
  const char* name;
  mining::TransactionDb db;
  double support;
};

std::vector<SmokeShape> SmokeShapes() {
  std::vector<SmokeShape> shapes;
  {
    datagen::QuestParams qp;
    qp.num_transactions = 300;
    qp.avg_transaction_size = 8;
    qp.avg_pattern_size = 3;
    qp.num_items = 100;
    qp.num_patterns = 20;
    shapes.push_back({"quest_small", datagen::GenerateQuestDb(qp), 0.02});
  }
  {
    // 12 uniform draws over 40 items: about 10.5 distinct items per
    // transaction, so a pair's support is near 7% and a triple's near 2%.
    // At 5% nearly every pair is large and no triple is.
    Random rng(4242);
    std::vector<mining::Itemset> txns;
    for (int64_t i = 0; i < 8000; ++i) {
      mining::Itemset t;
      for (int k = 0; k < 12; ++k) {
        t.push_back(static_cast<mining::ItemId>(rng.NextBounded(40)));
      }
      std::sort(t.begin(), t.end());
      t.erase(std::unique(t.begin(), t.end()), t.end());
      txns.push_back(std::move(t));
    }
    shapes.push_back(
        {"dense_shallow",
         mining::TransactionDb::FromTransactions(std::move(txns), 8000),
         0.05});
  }
  {
    datagen::QuestParams qp;
    qp.num_transactions = 10000;
    qp.avg_transaction_size = 10;
    qp.avg_pattern_size = 4;
    qp.num_items = 500;
    qp.num_patterns = 80;
    shapes.push_back({"sparse", datagen::GenerateQuestDb(qp), 0.01});
  }
  {
    datagen::QuestParams qp;
    qp.num_transactions = 2000;
    qp.avg_transaction_size = 12;
    qp.avg_pattern_size = 5;
    qp.num_items = 60;
    qp.num_patterns = 15;
    shapes.push_back({"deep_lattice", datagen::GenerateQuestDb(qp), 0.04});
  }
  return shapes;
}

int RunSmoke() {
  const SimpleAlgorithm algorithms[] = {
      SimpleAlgorithm::kApriori,   SimpleAlgorithm::kAprioriTid,
      SimpleAlgorithm::kGidList,   SimpleAlgorithm::kDhp,
      SimpleAlgorithm::kPartition, SimpleAlgorithm::kSampling};

  JsonWriter w;
  w.BeginObject();
  for (const SmokeShape& shape : SmokeShapes()) {
    const int64_t min_count =
        mining::MinGroupCount(shape.support, shape.db.total_groups());
    w.Key(shape.name).BeginObject();
    std::vector<mining::FrequentItemset> expected;  // the first member's
    for (SimpleAlgorithm algorithm : algorithms) {
      const char* name = mining::SimpleAlgorithmName(algorithm);
      mining::SimpleMinerOptions options;
      options.partition_count = 4;
      options.sample_rate = 0.2;
      auto miner = mining::CreateMiner(algorithm, options);
      mining::SimpleMinerStats stats;
      auto result = miner->Mine(shape.db, min_count, -1, &stats);
      if (!result.ok()) {
        std::fprintf(stderr, "%s %s: %s\n", shape.name, name,
                     result.status().ToString().c_str());
        return 1;
      }
      std::vector<mining::FrequentItemset> found = std::move(result.value());
      std::sort(found.begin(), found.end(),
                [](const mining::FrequentItemset& a,
                   const mining::FrequentItemset& b) {
                  return a.items < b.items;
                });
      std::vector<int64_t> per_size;
      for (const mining::FrequentItemset& fi : found) {
        if (per_size.size() < fi.items.size()) per_size.resize(fi.items.size());
        ++per_size[fi.items.size() - 1];
      }
      if (per_size.size() < 2) {
        std::fprintf(stderr, "SMOKE FAIL %s %s: no large itemset of size "
                     ">= 2\n", shape.name, name);
        return 1;
      }
      if (algorithm == algorithms[0]) expected = found;
      const bool same = std::equal(
          found.begin(), found.end(), expected.begin(), expected.end(),
          [](const mining::FrequentItemset& a,
             const mining::FrequentItemset& b) {
            return a.items == b.items && a.group_count == b.group_count;
          });
      if (!same) {
        std::fprintf(stderr, "SMOKE FAIL %s %s: large itemsets differ "
                     "from %s's\n", shape.name, name,
                     mining::SimpleAlgorithmName(algorithms[0]));
        return 1;
      }
      // Levelwise members count each level; the last may be an empty one.
      std::vector<int64_t> levels = stats.large_per_level;
      while (!levels.empty() && levels.back() == 0) levels.pop_back();
      if (levels.size() > 1 && levels != per_size) {
        std::fprintf(stderr, "SMOKE FAIL %s %s: large_per_level disagrees "
                     "with the itemsets it returned\n", shape.name, name);
        return 1;
      }
      w.Key(name).BeginObject();
      w.Key("itemsets").Int(static_cast<int64_t>(found.size()));
      w.Key("passes").Int(stats.passes);
      w.Key("candidates_per_level").BeginArray();
      for (int64_t c : stats.candidates_per_level) w.Int(c);
      w.EndArray();
      w.Key("large_per_level").BeginArray();
      for (int64_t c : stats.large_per_level) w.Int(c);
      w.EndArray();
      w.Key("dhp_unfiltered_pairs").Int(stats.dhp_unfiltered_pairs);
      w.Key("dhp_filtered_pairs").Int(stats.dhp_filtered_pairs);
      w.Key("partition_slice_sizes").BeginArray();
      for (int64_t s : stats.partition_slice_sizes) w.Int(s);
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  const std::string json = w.str();
  auto valid = ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "smoke JSON invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("%s\nSMOKE OK\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
  }
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
