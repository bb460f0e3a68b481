// Substrate benchmark: the embedded SQL engine's primitive operations —
// the building blocks every generated Q0..Q11 program decomposes into.
// The architecture assumes these are "effectively and efficiently evaluated
// by the SQL server itself" (§3); this binary quantifies that for our
// server's row-at-a-time engine.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
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

}  // namespace

BENCHMARK_MAIN();
