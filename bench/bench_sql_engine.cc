// Substrate benchmark: the embedded SQL engine's primitive operations —
// the building blocks every generated Q0..Q11 program decomposes into.
// The architecture assumes these are "effectively and efficiently evaluated
// by the SQL server itself" (§3); this binary quantifies that for our
// server's row-at-a-time engine.
//
//   bench_sql_engine                # full Google-benchmark sweep
//   bench_sql_engine --plan-smoke   # CI gate: cost-based planning (DESIGN.md
//                                   # §14) vs the syntactic planner on skewed
//                                   # retail data + the simple core's
//                                   # algorithm=auto, JSON report, "PLAN SMOKE OK"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "mining/simple_miner.h"
#include "relational/catalog.h"
#include "sql/engine.h"
#include "sql/parser.h"

namespace {

using namespace minerule;

void FillTables(Catalog* catalog, int64_t rows) {
  Random rng(77);
  {
    auto table = catalog->CreateTable(
        "facts", Schema({{"id", DataType::kInteger},
                         {"grp", DataType::kInteger},
                         {"val", DataType::kDouble},
                         {"tag", DataType::kString}}));
    for (int64_t i = 0; i < rows; ++i) {
      table.value()->AppendUnchecked(
          {Value::Integer(i), Value::Integer(static_cast<int64_t>(
                                  rng.NextBounded(rows / 10 + 1))),
           Value::Double(rng.NextDouble() * 100),
           Value::String("tag" + std::to_string(rng.NextBounded(50)))});
    }
  }
  {
    auto table = catalog->CreateTable(
        "dims", Schema({{"grp", DataType::kInteger},
                        {"name", DataType::kString}}));
    for (int64_t g = 0; g <= rows / 10; ++g) {
      table.value()->AppendUnchecked(
          {Value::Integer(g), Value::String("g" + std::to_string(g))});
    }
  }
}

class EngineFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    catalog_ = std::make_unique<Catalog>();
    engine_ = std::make_unique<sql::SqlEngine>(catalog_.get());
    FillTables(catalog_.get(), state.range(0));
  }
  void TearDown(const benchmark::State&) override {
    engine_.reset();
    catalog_.reset();
  }

 protected:
  void Run(benchmark::State& state, const std::string& sql) {
    int64_t rows = 0;
    for (auto _ : state) {
      auto result = engine_->Execute(sql);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      rows = static_cast<int64_t>(result.value().rows.size());
    }
    state.counters["out_rows"] = static_cast<double>(rows);
    state.SetItemsProcessed(state.iterations() * state.range(0));
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

// Row counts of the facts table.
const std::vector<std::vector<int64_t>> kRows = {{10000, 100000}};

BENCHMARK_DEFINE_F(EngineFixture, Scan)(benchmark::State& state) {
  Run(state, "SELECT id, val FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, Scan)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Filter)(benchmark::State& state) {
  Run(state, "SELECT id FROM facts WHERE val > 90.0");
}
BENCHMARK_REGISTER_F(EngineFixture, Filter)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, HashJoin)(benchmark::State& state) {
  Run(state,
      "SELECT f.id, d.name FROM facts f, dims d WHERE f.grp = d.grp");
}
BENCHMARK_REGISTER_F(EngineFixture, HashJoin)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, GroupByAggregate)(benchmark::State& state) {
  Run(state,
      "SELECT grp, COUNT(*), SUM(val) FROM facts GROUP BY grp "
      "HAVING COUNT(*) > 5");
}
BENCHMARK_REGISTER_F(EngineFixture, GroupByAggregate)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

// The Q-pool shape: int-keyed join feeding an int-keyed aggregation, the
// skeleton of the preprocessor's Q4/Q7-style programs.
BENCHMARK_DEFINE_F(EngineFixture, JoinThenGroupBy)(benchmark::State& state) {
  Run(state,
      "SELECT d.grp, COUNT(*), SUM(f.val) FROM facts f, dims d "
      "WHERE f.grp = d.grp GROUP BY d.grp");
}
BENCHMARK_REGISTER_F(EngineFixture, JoinThenGroupBy)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, CountDistinct)(benchmark::State& state) {
  Run(state, "SELECT COUNT(DISTINCT grp) FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, CountDistinct)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Distinct)(benchmark::State& state) {
  Run(state, "SELECT DISTINCT tag FROM facts");
}
BENCHMARK_REGISTER_F(EngineFixture, Distinct)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, Sort)(benchmark::State& state) {
  Run(state, "SELECT id FROM facts ORDER BY val DESC LIMIT 100");
}
BENCHMARK_REGISTER_F(EngineFixture, Sort)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(EngineFixture, InsertSelect)(benchmark::State& state) {
  (void)engine_->Execute("CREATE TABLE sink (id INTEGER, val DOUBLE)");
  int64_t inserted = 0;
  for (auto _ : state) {
    (void)engine_->Execute("DELETE FROM sink");
    auto result = engine_->Execute(
        "INSERT INTO sink (SELECT id, val FROM facts WHERE val > 50.0)");
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    inserted = result.value().affected_rows;
  }
  state.counters["inserted"] = static_cast<double>(inserted);
}
BENCHMARK_REGISTER_F(EngineFixture, InsertSelect)
    ->ArgsProduct(kRows)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Skewed-join axis (EXPERIMENTS.md): facts.grp drawn uniform or Zipf(1.0)
// over the dim keys, with the small dim FIRST in the FROM list — the order a
// naive statement writer produces and the worst case for the syntactic
// planner, which always builds the hash table over the right (big) input.
// Arg 2 toggles the cost-based planner (DESIGN.md §14), so the
// {uniform, zipf} x {syntactic, cost-based} grid quantifies what the
// build-side choice buys as skew grows.

void FillSkewTables(Catalog* catalog, int64_t rows, bool zipf) {
  const int64_t groups = rows / 100 + 1;
  std::vector<double> cdf;
  if (zipf) {
    cdf.resize(static_cast<size_t>(groups));
    double total = 0;
    for (int64_t g = 0; g < groups; ++g) {
      total += 1.0 / static_cast<double>(g + 1);
      cdf[static_cast<size_t>(g)] = total;
    }
    for (double& c : cdf) c /= total;
  }
  Random rng(77);
  auto facts = catalog->CreateTable(
      "facts", Schema({{"id", DataType::kInteger},
                       {"grp", DataType::kInteger},
                       {"val", DataType::kDouble}}));
  for (int64_t i = 0; i < rows; ++i) {
    int64_t g;
    if (zipf) {
      const double u = rng.NextDouble();
      g = static_cast<int64_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    } else {
      g = static_cast<int64_t>(rng.NextBounded(groups));
    }
    facts.value()->AppendUnchecked({Value::Integer(i), Value::Integer(g),
                                    Value::Double(rng.NextDouble() * 100)});
  }
  auto dims = catalog->CreateTable(
      "dims", Schema({{"grp", DataType::kInteger},
                      {"name", DataType::kString}}));
  for (int64_t g = 0; g < groups; ++g) {
    dims.value()->AppendUnchecked(
        {Value::Integer(g), Value::String("g" + std::to_string(g))});
  }
}

class SkewFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    catalog_ = std::make_unique<Catalog>();
    engine_ = std::make_unique<sql::SqlEngine>(catalog_.get());
    FillSkewTables(catalog_.get(), state.range(0), state.range(1) == 1);
    engine_->set_cost_based(state.range(2) == 1);
    (void)engine_->Execute("ANALYZE");
  }
  void TearDown(const benchmark::State&) override {
    engine_.reset();
    catalog_.reset();
  }

 protected:
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

BENCHMARK_DEFINE_F(SkewFixture, SmallDimFirstJoin)(benchmark::State& state) {
  const std::string sql =
      "SELECT d.name, f.val FROM dims d, facts f WHERE d.grp = f.grp";
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = engine_->Execute(sql);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    rows = static_cast<int64_t>(result.value().rows.size());
  }
  state.counters["out_rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// {rows} x {uniform, zipf} x {syntactic, cost-based}.
BENCHMARK_REGISTER_F(SkewFixture, SmallDimFirstJoin)
    ->ArgsProduct({{100000}, {0, 1}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_ParseOnly(benchmark::State& state) {
  const char* sql =
      "SELECT DISTINCT V.Gid, B.Bid FROM Source AS S, ValidGroups AS V, "
      "Bset AS B WHERE S.customer = V.customer AND S.item = B.item";
  for (auto _ : state) {
    auto tokens = sql::ParseSqlScript(sql);
    benchmark::DoNotOptimize(tokens.ok());
  }
}
BENCHMARK(BM_ParseOnly);

// ---------------------------------------------------------------------------
// Timing and result helpers for the --plan-smoke gate below.

/// Median of `v` (odd sizes pick the middle element).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median over repetitions of base[i] / candidate[i]: the speedup of the
/// candidate. Each pair ran back to back, so the ratio cancels the host's
/// drift, which a best-of-N per side (or all repetitions of one side before
/// the other) leaves in the comparison.
double MedianSpeedup(const std::vector<double>& base_ms,
                     const std::vector<double>& candidate_ms) {
  std::vector<double> ratios;
  for (size_t i = 0; i < base_ms.size(); ++i) {
    ratios.push_back(base_ms[i] / candidate_ms[i]);
  }
  return Median(std::move(ratios));
}

std::string RenderResult(const sql::QueryResult& result) {
  std::string out;
  for (const Row& row : result.rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// --plan-smoke: the cost-based planning CI gate (DESIGN.md §14). Two parts:
//
//  1. SQL planning on skewed retail data: every query runs under the
//     syntactic planner and the cost-based planner; results must be
//     byte-identical, the cost-based plan must never be > 5% slower, and at
//     least one `checked` shape (build-side swap, join reorder) must improve
//     by >= 1.15x.
//  2. The simple core's algorithm=auto against the static gidlist member
//     on a dense-shallow, a sparse and a deep-lattice shape: identical rule
//     counts. auto resolves to gidlist, which measured fastest on all three
//     (DESIGN.md §19), so there is no choice left to time.
//
// Part 1 alternates the two sides within each repetition and judges a
// shape on the median of the paired ratios, not on the best run per side.
// A timed SQL sample repeats its query until it spans kMinSampleMs.
// Emits one validated JSON report and PLAN SMOKE OK / PLAN SMOKE FAIL.

struct PlanQuery {
  const char* name;
  const char* sql;
  bool checked;  // expected to improve under cost-based planning
};

int RunPlanSmoke() {
  constexpr int kReps = 21;
  constexpr double kSlowdownTolerance = 1.05;
  constexpr double kRequiredSpeedup = 1.15;
  constexpr double kMinSampleMs = 150.0;

  Catalog catalog;
  sql::SqlEngine engine(&catalog);

  // Skewed retail data: ~90k purchases over ~200 items, so the purchase
  // table fans out ~450:1 against the per-item dim tables built below.
  datagen::RetailParams rp;
  rp.num_customers = 3000;
  rp.num_items = 200;
  rp.visits_per_customer = 6;
  rp.items_per_visit = 5;
  auto purchase = datagen::GenerateRetailTable(&catalog, "purchase", rp);
  if (!purchase.ok()) {
    std::fprintf(stderr, "retail gen: %s\n",
                 purchase.status().ToString().c_str());
    return 1;
  }
  {
    // product: one row per item; promo: three rows per item. Built from the
    // generated item universe so the join keys actually match.
    auto items = engine.Execute("SELECT DISTINCT item FROM purchase");
    if (!items.ok()) {
      std::fprintf(stderr, "item scan: %s\n",
                   items.status().ToString().c_str());
      return 1;
    }
    auto product = catalog.CreateTable(
        "product", Schema({{"item", DataType::kString},
                           {"pid", DataType::kInteger}}));
    // returns / restock: ~2000 rows each, joined to each other only through
    // product — the shape where FROM order decides between a 4M-row cross
    // product and a 20k-row chain.
    auto returns = catalog.CreateTable(
        "returns", Schema({{"item", DataType::kString},
                           {"qty", DataType::kInteger}}));
    auto restock = catalog.CreateTable(
        "restock", Schema({{"item", DataType::kString},
                           {"qty", DataType::kInteger}}));
    const int64_t num_items =
        static_cast<int64_t>(items.value().rows.size());
    int64_t id = 0;
    for (const Row& row : items.value().rows) {
      product.value()->AppendUnchecked({row[0], Value::Integer(id)});
      ++id;
    }
    for (int64_t i = 0; i < 10 * num_items; ++i) {
      const Row& row = items.value().rows[static_cast<size_t>(i % num_items)];
      returns.value()->AppendUnchecked({row[0], Value::Integer(i % 7)});
      restock.value()->AppendUnchecked({row[0], Value::Integer(i % 5)});
    }
  }
  (void)engine.Execute("ANALYZE");

  const PlanQuery queries[] = {
      // Build side: the 200-row dim is on the left, so the syntactic plan
      // builds the hash table over the ~90k-row purchase side; the
      // cost-based plan swaps the build to the dim.
      {"build_swap",
       "SELECT p.pid, s.price FROM product p, purchase s "
       "WHERE p.item = s.item AND s.price > 50.0",
       true},
      // Join order: returns and restock have no direct predicate, so the
      // syntactic left-deep plan crosses them (4M rows) before product can
      // restrict anything; the cost-based plan joins each through product
      // and never exceeds ~20k intermediate rows.
      {"join_reorder",
       "SELECT COUNT(*), SUM(r.qty + k.qty) FROM returns r, restock k, "
       "product p WHERE r.item = p.item AND k.item = p.item",
       true},
      // Guard rails: shapes the syntactic planner already handles well
      // must not regress.
      {"filter_scan", "SELECT tr FROM purchase WHERE price > 100.0", false},
      {"group_by",
       "SELECT item, COUNT(*), SUM(price) FROM purchase GROUP BY item",
       false},
      {"good_join",
       "SELECT s.tr, p.pid FROM purchase s, product p WHERE s.item = p.item",
       false},
  };

  JsonWriter w;
  w.BeginObject();
  bool ok = true;
  int improved = 0;
  w.Key("sql").BeginArray();
  for (const PlanQuery& q : queries) {
    std::vector<double> ms_of[2];
    std::string dump[2];
    double warmup_ms[2] = {0.0, 0.0};
    int runs_per_sample = 1;
    // Interleaved with alternating order, for the same reason as the
    // mining loop below: both modes should see the same allocator state.
    // Repetition 0 is an untimed warm-up of both modes. Every timed sample
    // then runs the query back to back until it spans kMinSampleMs (by the
    // slower warm-up): with single 10-20 ms executions, the paired ratios
    // of two identical plans spread past the 5% bound.
    for (int rep = 0; rep <= kReps; ++rep) {
      for (int pos = 0; pos < 2; ++pos) {
        const int cost = (pos + rep) % 2;
        engine.set_cost_based(cost == 1);
        auto start = std::chrono::steady_clock::now();
        Result<sql::QueryResult> result = engine.Execute(q.sql);
        for (int run = 1; rep > 0 && run < runs_per_sample && result.ok();
             ++run) {
          result = engine.Execute(q.sql);
        }
        auto stop = std::chrono::steady_clock::now();
        if (!result.ok()) {
          std::fprintf(stderr, "PLAN SMOKE FAIL %s (%s): %s\n", q.name,
                       cost ? "cost-based" : "syntactic",
                       result.status().ToString().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        if (rep == 0) {
          dump[cost] = RenderResult(result.value());
          warmup_ms[cost] = ms;
        } else {
          ms_of[cost].push_back(ms / runs_per_sample);
        }
      }
      if (rep == 0) {
        const double slower =
            std::max({warmup_ms[0], warmup_ms[1], 1.0});
        runs_per_sample =
            std::max(1, static_cast<int>(std::ceil(kMinSampleMs / slower)));
      }
    }
    if (dump[0] != dump[1]) {
      std::fprintf(stderr,
                   "PLAN SMOKE FAIL %s: cost-based result differs from "
                   "syntactic\n",
                   q.name);
      return 1;
    }
    // Judged on the median of the paired ratios.
    const double speedup = MedianSpeedup(ms_of[0], ms_of[1]);
    const bool pass = speedup * kSlowdownTolerance >= 1.0;
    if (!pass) ok = false;
    if (q.checked && speedup >= kRequiredSpeedup) ++improved;
    w.BeginObject();
    w.Key("query").String(q.name);
    w.Key("syntactic_ms").Double(Median(ms_of[0]));
    w.Key("cost_based_ms").Double(Median(ms_of[1]));
    w.Key("speedup").Double(speedup);
    w.Key("checked").Bool(q.checked);
    w.Key("pass").Bool(pass);
    w.EndObject();
  }
  w.EndArray();

  // Part 2: algorithm=auto must mine what the static gidlist member mines.
  struct MineWorkload {
    const char* name;
    mining::TransactionDb db;
    double support;
  };
  std::vector<MineWorkload> workloads;
  {
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
    workloads.push_back(
        {"dense_shallow",
         mining::TransactionDb::FromTransactions(std::move(txns), 8000),
         0.15});
  }
  {
    datagen::QuestParams qp;
    qp.num_transactions = 10000;
    qp.avg_transaction_size = 10;
    qp.avg_pattern_size = 4;
    qp.num_items = 500;
    qp.num_patterns = 80;
    workloads.push_back({"sparse", datagen::GenerateQuestDb(qp), 0.01});
  }
  {
    datagen::QuestParams qp;
    qp.num_transactions = 2000;
    qp.avg_transaction_size = 12;
    qp.avg_pattern_size = 5;
    qp.num_items = 60;
    qp.num_patterns = 15;
    workloads.push_back({"deep_lattice", datagen::GenerateQuestDb(qp), 0.04});
  }

  w.Key("mining").BeginArray();
  for (const MineWorkload& load : workloads) {
    const mining::SimpleAlgorithm algs[2] = {
        mining::SimpleAlgorithm::kGidList, mining::SimpleAlgorithm::kAuto};
    size_t rule_count[2] = {0, 0};
    for (int a = 0; a < 2; ++a) {
      auto rules = mining::MineSimpleRules(load.db, load.support, 0.3,
                                           mining::CardinalityConstraint{},
                                           mining::CardinalityConstraint{},
                                           algs[a], {});
      if (!rules.ok()) {
        std::fprintf(stderr, "PLAN SMOKE FAIL %s: %s\n", load.name,
                     rules.status().ToString().c_str());
        return 1;
      }
      rule_count[a] = rules.value().size();
    }
    if (rule_count[0] != rule_count[1]) {
      std::fprintf(stderr, "PLAN SMOKE FAIL %s: auto found %zu rules, "
                   "static found %zu\n",
                   load.name, rule_count[1], rule_count[0]);
      return 1;
    }
    w.BeginObject();
    w.Key("workload").String(load.name);
    w.Key("rules").Int(static_cast<int64_t>(rule_count[0]));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  const std::string json = w.str();
  auto valid = ValidateJson(json);
  if (!valid.ok()) {
    std::fprintf(stderr, "plan-smoke JSON invalid: %s\n",
                 valid.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  if (improved == 0) {
    std::printf("PLAN SMOKE FAIL: no checked query improved >= 1.15x\n");
    return 1;
  }
  if (!ok) {
    std::printf("PLAN SMOKE FAIL: a shape regressed past 5%%\n");
    return 1;
  }
  std::printf("PLAN SMOKE OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plan-smoke") == 0) return RunPlanSmoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
