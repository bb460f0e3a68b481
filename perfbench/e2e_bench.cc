// End-to-end MINE RULE benchmark: one workload per invocation.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   e2e_bench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones of the traced run. README.md maps
// each metric to the layer and workload it is meant to move.
//
// End-to-end latencies are reported relative to a reference task timed just
// before each statement (ReferenceMs): the shared hosts this runs on swing
// in speed by a third over tens of seconds, and the ratio cancels that.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "datagen/quest_gen.h"
#include "datagen/retail_gen.h"
#include "server/server.h"
#include "server/session.h"

namespace perfbench {
namespace {

using namespace minerule;

// Set-up is repeated this many times per run and its median reported, so
// that work moved into set-up shows against a steady baseline.
constexpr int kSetupRepeats = 15;
// The traced run's server phase: closed-loop clients, one session each.
constexpr int kServerClients = 4;
// Untimed iterations before the measured window: statement times settle
// only after the first few runs have recycled the heap.
constexpr int kWarmupIterations = 3;
// The traced run's spans must cover the traced statement to this share.
constexpr double kMaxUnattributedShare = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Statement counts, latency samples and check failures of one client (or
/// of all clients once merged).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;  // statement errors plus output-check mismatches
  int64_t statements = 0;  // statements run in the measured window
  std::vector<double> mine_ms;
  std::vector<double> readback_ms;  // one sample per read-back of the rules
  // Single client: each statement's and read-back's latency over the
  // reference task's time, and that time.
  std::vector<double> mine_rel;
  std::vector<double> readback_rel;
  std::vector<double> reference_ms;
  std::vector<double> queue_wait_ms;  // server: SessionResult attribution
  std::vector<double> exec_ms;        // server: Execute time minus queue wait
  int64_t queued = 0;
  std::vector<std::string> errors;  // the first few failure messages

  void Fail(std::string why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
  void ClearTimings() {
    statements = 0;
    mine_ms.clear();
    readback_ms.clear();
    mine_rel.clear();
    readback_rel.clear();
    reference_ms.clear();
    queue_wait_ms.clear();
    exec_ms.clear();
    queued = 0;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    statements += other.statements;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&mine_ms, other.mine_ms);
    append(&readback_ms, other.readback_ms);
    append(&mine_rel, other.mine_rel);
    append(&readback_rel, other.readback_rel);
    append(&reference_ms, other.reference_ms);
    append(&queue_wait_ms, other.queue_wait_ms);
    append(&exec_ms, other.exec_ms);
    queued += other.queued;
    for (const std::string& e : other.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// Samples of the traced run: untraced statement times and the layer
/// values of the traced statements interleaved with them.
struct TraceSamples {
  std::vector<double> untraced_ms;
  std::vector<LayerValues> traced;
};

struct Outcome {
  Tally tally;
  double window_s = 0;
  std::vector<double> setup_s;
  TraceSamples trace;
};

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Workloads. The program sees only the generated tables and statements.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  /// Source tables in a fresh catalog.
  std::function<Status(Catalog*, uint64_t seed)> load;
  /// The MINE RULE statement, mining into `out`.
  std::function<std::string(const std::string& out)> statement;
  /// The server phase's read of the source table.
  std::string source_read;
};

// The seed draws the labelling and order of a dataset whose shape is fixed
// by the generators' default seeds: item and customer labels are permuted
// and transactions shuffled, so every seed asks for the same mining work
// on different inputs and runs with different seeds stay comparable.

template <typename T>
std::map<T, T> SeededRelabel(std::vector<T> labels, std::mt19937_64* rng) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::vector<T> shuffled = labels;
  std::shuffle(shuffled.begin(), shuffled.end(), *rng);
  std::map<T, T> relabel;
  for (size_t i = 0; i < labels.size(); ++i) relabel[labels[i]] = shuffled[i];
  return relabel;
}

Status LoadRetail(Catalog* catalog, uint64_t seed, int64_t customers) {
  datagen::RetailParams params;
  params.num_customers = customers;
  params.num_items = 50;
  Catalog base;
  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> generated,
                      datagen::GenerateRetailTable(&base, "Purchase", params));
  // Columns: tr, customer, item, date, price, qty.
  std::mt19937_64 rng(Mix(seed, 1));
  std::vector<std::string> customer_labels, item_labels;
  std::map<int64_t, std::vector<const Row*>> by_transaction;
  for (const Row& row : generated->rows()) {
    customer_labels.push_back(row[1].AsString());
    item_labels.push_back(row[2].AsString());
    by_transaction[row[0].AsInteger()].push_back(&row);
  }
  const auto customer = SeededRelabel(std::move(customer_labels), &rng);
  const auto item = SeededRelabel(std::move(item_labels), &rng);
  std::vector<const std::vector<const Row*>*> order;
  for (const auto& [tr, rows] : by_transaction) order.push_back(&rows);
  std::shuffle(order.begin(), order.end(), rng);

  MR_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                      catalog->CreateTable("Purchase", generated->schema()));
  for (const std::vector<const Row*>* rows : order) {
    for (const Row* row : *rows) {
      Row copy = *row;
      copy[1] = Value::String(customer.at(row->at(1).AsString()));
      copy[2] = Value::String(item.at(row->at(2).AsString()));
      table->AppendUnchecked(std::move(copy));
    }
  }
  return Status::OK();
}

Status LoadQuest(Catalog* catalog, uint64_t seed) {
  datagen::QuestParams params;  // T8 I4 D10K, N=500, 60 patterns
  params.num_transactions = 10000;
  params.avg_transaction_size = 8;
  params.avg_pattern_size = 4;
  params.num_items = 500;
  params.num_patterns = 60;
  std::vector<mining::Itemset> transactions =
      datagen::GenerateQuestTransactions(params);
  std::mt19937_64 rng(Mix(seed, 2));
  std::vector<mining::ItemId> item_labels;
  for (const mining::Itemset& t : transactions) {
    item_labels.insert(item_labels.end(), t.begin(), t.end());
  }
  const auto item = SeededRelabel(std::move(item_labels), &rng);
  std::shuffle(transactions.begin(), transactions.end(), rng);

  MR_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      catalog->CreateTable("Basket", Schema({{"tid", DataType::kInteger},
                                             {"item", DataType::kInteger}})));
  for (size_t t = 0; t < transactions.size(); ++t) {
    std::vector<mining::ItemId> items;
    for (mining::ItemId i : transactions[t]) items.push_back(item.at(i));
    std::sort(items.begin(), items.end());
    for (mining::ItemId i : items) {
      table->AppendUnchecked({Value::Integer(static_cast<int64_t>(t + 1)),
                              Value::Integer(i)});
    }
  }
  return Status::OK();
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      // §2's general statement over a retail Purchase table: the general
      // class Q-program (Q4b/Q8/Q9/Q10 joins) and the lattice core.
      {"retail_general",
       [](Catalog* c, uint64_t seed) { return LoadRetail(c, seed, 1600); },
       [](const std::string& out) {
         return "MINE RULE " + out +
                " AS SELECT DISTINCT 1..2 item AS BODY, 1..1 item AS HEAD, "
                "SUPPORT, CONFIDENCE WHERE BODY.price >= 100 AND HEAD.price "
                "< 100 FROM Purchase GROUP BY customer CLUSTER BY date "
                "HAVING BODY.date < HEAD.date EXTRACTING RULES WITH "
                "SUPPORT: 0.03, CONFIDENCE: 0.2";
       },
       "SELECT item, COUNT(*), SUM(qty) FROM Purchase GROUP BY item"},
      // IBM Quest baskets (T8 I4 D10K, N=500, 60 patterns): simple class,
      // gidlist core, large fetch and rule decoding.
      {"quest_simple",
       LoadQuest,
       [](const std::string& out) {
         return "MINE RULE " + out +
                " AS SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, "
                "SUPPORT, CONFIDENCE FROM Basket GROUP BY tid EXTRACTING "
                "RULES WITH SUPPORT: 0.005, CONFIDENCE: 0.5";
       },
       "SELECT item, COUNT(*) FROM Basket GROUP BY item"},
  };
  return workloads;
}

// Injected by the self-test: must fail and be counted, not dropped.
const char* kMalformed = "MINE RULE Broken AS SELECT DISTINCT FROM Purchase";

/// Digests of the read-back (and, for the server phase, the source read)
/// after one run of the statement: the oracle. It runs with the other
/// thread setting than the runs it checks (parallel for the serial single
/// client, serial for the server phase's default sessions), so the serial
/// and the parallel paths must agree byte for byte.
Result<std::vector<uint64_t>> OracleDigests(Catalog* catalog,
                                            const Workload& w,
                                            const std::string& out,
                                            bool server) {
  mr::DataMiningSystem oracle(catalog);
  mr::MiningOptions options;
  options.num_threads = server ? 1 : 0;
  options.keep_encoded_tables = !server;
  MR_RETURN_IF_ERROR(oracle.ExecuteMineRule(w.statement(out), options).status());
  std::vector<std::string> reads = RuleTableReads(out);
  if (server) reads.push_back(w.source_read);
  std::vector<uint64_t> digests;
  for (const std::string& read : reads) {
    MR_ASSIGN_OR_RETURN(sql::QueryResult result, oracle.ExecuteSql(read));
    digests.push_back(DigestResult(result));
  }
  return digests;
}

/// Times one statement, counts it, and checks a read's digest.
void Count(const std::function<Result<sql::QueryResult>()>& run,
           std::vector<double>* samples, const uint64_t* expected,
           const std::string& what, Tally* t) {
  const Clock::time_point start = Clock::now();
  Result<sql::QueryResult> result = run();
  samples->push_back(MsBetween(start, Clock::now()));
  ++t->attempted;
  ++t->statements;
  if (!result.ok()) {
    t->Fail(what + ": " + result.status().ToString());
  } else if (expected != nullptr && DigestResult(*result) != *expected) {
    t->Fail(what + ": output differs from the oracle");
  }
}

/// Keeps one traced statement's layer values. The drive fails the run when
/// it errs or when its layer spans do not account for the statement.
void KeepTraced(Result<LayerValues> layers, Tally* t, TraceSamples* samples) {
  ++t->attempted;
  if (!layers.ok()) {
    t->Fail("traced MINE RULE: " + layers.status().ToString());
    return;
  }
  if ((*layers)["trace.unattributed_ms"] >
      kMaxUnattributedShare * (*layers)["trace.total_ms"]) {
    t->Fail("traced MINE RULE: layer spans do not account for the total");
  }
  samples->traced.push_back(std::move(*layers));
}

// ---------------------------------------------------------------------------
// Single client: DataMiningSystem, back to back.
// ---------------------------------------------------------------------------

Outcome RunSingleClient(const Workload& w, const Args& args, double seconds) {
  Outcome o;
  const std::string out = "BenchRules";
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<mr::DataMiningSystem> system;
  for (int i = 0; i < kSetupRepeats; ++i) {
    system.reset();
    catalog.reset();
    const Clock::time_point start = Clock::now();
    catalog = std::make_unique<Catalog>();
    Status loaded = w.load(catalog.get(), args.seed);
    system = std::make_unique<mr::DataMiningSystem>(catalog.get());
    o.setup_s.push_back(MsBetween(start, Clock::now()) / 1e3);
    if (!loaded.ok()) {
      o.tally.attempted = 1;
      o.tally.Fail("setup: " + loaded.ToString());
      return o;
    }
  }
  Result<std::vector<uint64_t>> expected =
      OracleDigests(catalog.get(), w, out, /*server=*/false);
  if (!expected.ok()) {
    o.tally.attempted = 1;
    o.tally.Fail("oracle: " + expected.status().ToString());
    return o;
  }
  const std::string statement = w.statement(out);
  const std::vector<std::string> reads = RuleTableReads(out);
  // The engine's defaults except num_threads: a parallel statement on a
  // shared host measures which cores the neighbours leave free (medians of
  // the same code moved by 2x between runs), while a serial one slows with
  // the host as the single-threaded reference task does, so the ratio holds.
  mr::MiningOptions options;
  options.num_threads = 1;
  SpanLog spans;
  int64_t statement_id = 0;

  auto read_back = [&](Tally* t) {
    const Clock::time_point start = Clock::now();
    std::vector<double> per_read;
    for (size_t i = 0; i < reads.size(); ++i) {
      Count([&] { return system->ExecuteSql(reads[i]); }, &per_read,
            &(*expected)[i], reads[i], t);
    }
    t->readback_ms.push_back(MsBetween(start, Clock::now()));
  };
  auto untraced = [&](Tally* t) {
    const double reference_ms = ReferenceMs();
    Count(
        [&]() -> Result<sql::QueryResult> {
          MR_RETURN_IF_ERROR(
              system->ExecuteMineRule(statement, options).status());
          return sql::QueryResult{};
        },
        &t->mine_ms, nullptr, "MINE RULE", t);
    read_back(t);
    t->reference_ms.push_back(reference_ms);
    t->mine_rel.push_back(t->mine_ms.back() / reference_ms);
    t->readback_rel.push_back(t->readback_ms.back() / reference_ms);
  };
  auto traced = [&](Tally* t) {
    KeepTraced(DriveMineRule(catalog.get(), system->sql_engine(), statement,
                             options, &spans, ++statement_id),
               t, &o.trace);
    read_back(t);
  };

  // Warm-up: caches fill and lazy set-up finishes before timing.
  for (int i = 0; i < kWarmupIterations; ++i) {
    untraced(&o.tally);
    if (args.trace) traced(&o.tally);
  }
  o.tally.ClearTimings();
  o.trace = {};

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (Clock::now() < deadline) {
    untraced(&o.tally);
    if (args.trace) {
      o.trace.untraced_ms.push_back(o.tally.mine_ms.back());
      traced(&o.tally);
    }
  }
  o.window_s = MsBetween(start, Clock::now()) / 1e3;
  if (!args.trace_out.empty()) {
    std::ofstream(args.trace_out) << spans.ChromeTraceJson();
  }
  return o;
}

// ---------------------------------------------------------------------------
// Server phase of the traced run: closed-loop clients, each with its own
// Server::Connect() session over one shared catalog.
// ---------------------------------------------------------------------------

Outcome RunServer(const Workload& w, const Args& args, double seconds,
                  bool inject_malformed) {
  Outcome o;
  auto catalog = std::make_unique<Catalog>();
  Status loaded = w.load(catalog.get(), args.seed);
  if (!loaded.ok()) {
    o.tally.attempted = 1;
    o.tally.Fail("setup: " + loaded.ToString());
    return o;
  }
  // The oracle runs before any client, with the server idle.
  Result<std::vector<uint64_t>> expected =
      OracleDigests(catalog.get(), w, "OracleRules", /*server=*/true);
  for (const char* suffix : {"", "_Bodies", "_Heads"}) {
    catalog->DropTableIfExists(std::string("OracleRules") + suffix);
  }
  if (!expected.ok()) {
    o.tally.attempted = 1;
    o.tally.Fail("oracle: " + expected.status().ToString());
    return o;
  }
  server::Server srv(catalog.get());
  std::vector<std::unique_ptr<server::Session>> sessions;
  for (int c = 0; c < kServerClients; ++c) sessions.push_back(srv.Connect());

  auto execute = [](server::Session* s, const std::string& text,
                    std::vector<double>* samples, const uint64_t* want,
                    Tally* t) {
    Count(
        [&]() -> Result<sql::QueryResult> {
          const Clock::time_point start = Clock::now();
          MR_ASSIGN_OR_RETURN(server::SessionResult r, s->Execute(text));
          const double wait_ms = static_cast<double>(r.queue_wait_micros) / 1e3;
          t->queue_wait_ms.push_back(wait_ms);
          t->exec_ms.push_back(MsBetween(start, Clock::now()) - wait_ms);
          if (r.queued) ++t->queued;
          return std::move(r.query);
        },
        samples, want, text, t);
  };
  auto iteration = [&](int client, Tally* t) {
    server::Session* s = sessions[client].get();
    const std::string out = "Rules_c" + std::to_string(client);
    execute(s, w.statement(out), &t->mine_ms, nullptr, t);
    const std::vector<std::string> reads = RuleTableReads(out);
    const Clock::time_point start = Clock::now();
    std::vector<double> per_read;
    for (size_t i = 0; i < reads.size(); ++i) {
      execute(s, reads[i], &per_read, &(*expected)[i], t);
    }
    execute(s, w.source_read, &per_read, &(*expected)[reads.size()], t);
    t->readback_ms.push_back(MsBetween(start, Clock::now()));
  };

  for (int c = 0; c < kServerClients; ++c) iteration(c, &o.tally);
  o.tally.ClearTimings();

  std::vector<Tally> tallies(kServerClients);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kServerClients; ++c) {
      clients.emplace_back([&, c] {
        Tally* t = &tallies[c];
        if (inject_malformed) {
          std::vector<double> ignored;
          execute(sessions[c].get(), kMalformed, &ignored, nullptr, t);
        }
        do {
          iteration(c, t);
        } while (Clock::now() < deadline);
      });
    }
  }  // joins every client
  for (const Tally& t : tallies) o.tally.Merge(t);
  sessions.clear();  // sessions must not outlive their server
  return o;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

std::vector<Metric> EndToEndMetrics(const Outcome& o) {
  const Tally& t = o.tally;
  return {
      {"mine_rel_p50", Median(t.mine_rel), "x"},
      {"readback_rel_p50", Median(t.readback_rel), "x"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Median(o.setup_s), "s"},
  };
}

/// Raw wall-clock figures for the summary lines: they follow the host's
/// speed, so they are printed for reading and not reported as metrics.
std::vector<Metric> RawMetrics(const Outcome& o) {
  const Tally& t = o.tally;
  const double statements = static_cast<double>(t.statements);
  return {
      {"mine_ms_p50", Median(t.mine_ms), "ms"},
      {"readback_ms_p50", Median(t.readback_ms), "ms"},
      {"reference_ms_p50", Median(t.reference_ms), "ms"},
      {"stmts_per_s", o.window_s > 0 ? statements / o.window_s : 0, "1/s"},
  };
}

std::vector<Metric> LayerMetricValues(const Outcome& o) {
  const TraceSamples& samples = o.trace;
  auto median_of = [&](const std::string& name) {
    std::vector<double> values;
    for (const LayerValues& v : samples.traced) {
      auto it = v.find(name);
      values.push_back(it == v.end() ? 0 : it->second);
    }
    return Median(values);
  };
  const Tally& t = o.tally;
  const double untraced = Median(samples.untraced_ms);
  const double traced = median_of("trace.total_ms");
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerMetrics()) {
    double value = median_of(name);
    if (name == "server.queue_wait_ms_p50") {
      value = Median(t.queue_wait_ms);
    } else if (name == "server.queue_wait_ms_p90") {
      value = Percentile(t.queue_wait_ms, 90);
    } else if (name == "server.queued_frac") {
      value = t.queue_wait_ms.empty()
                  ? 0
                  : static_cast<double>(t.queued) /
                        static_cast<double>(t.queue_wait_ms.size());
    } else if (name == "server.exec_ms_p50") {
      value = Median(t.exec_ms);
    } else if (name == "bench.reference_ms") {
      value = Median(t.reference_ms);
    } else if (name == "engine.untraced_ms") {
      value = untraced;
    } else if (name == "engine.self_ms") {
      value = untraced - median_of("trace.layers_ms");
    } else if (name == "trace.overhead_frac") {
      value = untraced > 0 ? traced / untraced - 1 : 0;
    }
    metrics.push_back({name, value, unit});
  }
  return metrics;
}

bool ValidName(const std::string& name) {
  static const std::regex pattern("[A-Za-z0-9_.-]+");
  return std::regex_match(name, pattern);
}

bool ValidUnit(const std::string& unit) {
  static const std::regex pattern("[A-Za-z0-9_/%.-]+");
  return std::regex_match(unit, pattern);
}

/// The result line; fails if a name is malformed or the JSON does not
/// parse.
Result<std::string> ResultJson(bool correct, const Tally& t,
                               const std::vector<Metric>& metrics) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Int(t.attempted);
  w.Key("failed").Int(t.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    if (!ValidName(m.name) || !ValidUnit(m.unit)) {
      return Status::Internal("malformed metric name or unit: " + m.name);
    }
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  MR_RETURN_IF_ERROR(ValidateJson(w.str()));
  return w.str();
}

struct RunReport {
  bool correct = false;
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<Metric> raw;  // summary lines only
};

RunReport RunWorkload(const Workload& w, const Args& args) {
  Tally startup;
  ++startup.attempted;
  Status paper = CheckPaperExample();
  if (!paper.ok()) startup.Fail("Figure 1 -> Figure 2.b: " + paper.ToString());

  Outcome o;
  if (args.trace) {
    // First half: the layer drive interleaved with untraced statements.
    // Second half: the server phase, whose SessionResults give server.*;
    // its statement timings are left out of the layer medians.
    o = RunSingleClient(w, args, args.seconds / 2);
    Tally mix =
        RunServer(w, args, args.seconds / 2, /*inject_malformed=*/false).tally;
    mix.statements = 0;
    mix.mine_ms.clear();
    mix.readback_ms.clear();
    o.tally.Merge(mix);
  } else {
    o = RunSingleClient(w, args, args.seconds);
  }
  o.tally.attempted += startup.attempted;
  o.tally.failed += startup.failed;
  startup.errors.insert(startup.errors.end(), o.tally.errors.begin(),
                        o.tally.errors.end());
  o.tally.errors = startup.errors;

  RunReport report;
  report.tally = o.tally;
  report.correct = o.tally.failed == 0 && !o.tally.mine_ms.empty();
  report.metrics = args.trace ? LayerMetricValues(o) : EndToEndMetrics(o);
  report.raw = RawMetrics(o);
  return report;
}

void PrintSummary(const std::string& workload, const RunReport& r) {
  const Tally& t = r.tally;
  std::printf("workload %s: %zu MINE RULE, %zu read-backs, %lld attempted, "
              "%lld failed, failed_frac %.6f\n",
              workload.c_str(), t.mine_ms.size(), t.readback_ms.size(),
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed),
              t.attempted > 0 ? static_cast<double>(t.failed) /
                                    static_cast<double>(t.attempted)
                              : 0.0);
  for (const Metric& m : r.metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.raw) {
    std::printf("  (wall clock) %-15s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& e : t.errors) {
    std::fprintf(stderr, "failure: %s\n", e.c_str());
  }
}

int SelfTest() {
  const Workload& workload = Workloads().front();
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  Args args;
  args.workload = workload.name;
  args.seconds = 1;
  Tally bad = RunServer(workload, args, args.seconds,
                        /*inject_malformed=*/true).tally;
  expect(bad.failed == kServerClients,
         "malformed statements are counted in failed_frac");
  expect(bad.attempted > bad.failed,
         "malformed statements do not stop the run");

  for (bool trace : {false, true}) {
    args.trace = trace;
    RunReport good = RunWorkload(workload, args);
    expect(good.correct, trace ? "short traced run is correct"
                               : "short untraced run is correct");
    bool names_ok = true;
    for (const Metric& m : good.metrics) {
      names_ok = names_ok && ValidName(m.name) && ValidUnit(m.unit);
    }
    expect(names_ok, "every emitted name matches [A-Za-z0-9_.-]+");
    Result<std::string> json = ResultJson(good.correct, good.tally,
                                          good.metrics);
    expect(json.ok() && ValidateJson(*json).ok(),
           "the result line parses with ValidateJson");
  }
  expect(!ValidName("bad name") && !ValidName(""),
         "the name check rejects malformed names");
  Result<std::string> rejected =
      ResultJson(true, Tally{}, {{"bad name", 1, "ms"}});
  expect(!rejected.ok(), "a malformed name fails the result line");

  std::printf(failures == 0 ? "SELFTEST OK\n" : "SELFTEST FAILED\n");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] | --selftest\n");
    return 2;
  }
  if (args.selftest) return SelfTest();

  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  RunReport report = RunWorkload(*workload, args);
  PrintSummary(workload->name, report);
  Result<std::string> json =
      ResultJson(report.correct, report.tally, report.metrics);
  if (!json.ok()) {
    std::fprintf(stderr, "%s\n", json.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", json->c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
