#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end MINE RULE benchmark: output digests, the
// Figure 1 -> Figure 2.b start-up check, and the traced layer-by-layer
// drive of one statement. Everything here only calls the system's public
// entry points; the spans and stopwatches live in the benchmark.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/data_mining_system.h"
#include "relational/catalog.h"
#include "sql/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank percentile, `p` in (0, 100]; 0 for an empty vector.
double Percentile(std::vector<double> values, double p);

/// FNV-1a digest of a query result: column names and types, then every
/// value (type tag plus exact bytes) in returned row order. Two results
/// digest equal only if they are byte-identical.
uint64_t DigestResult(const minerule::sql::QueryResult& result);

/// The read-back a client runs after mining into `out`: the three output
/// tables in full (their digests are the output check), then one
/// aggregate over the rule table.
std::vector<std::string> RuleTableReads(const std::string& out);

/// Times one run of the reference task: a fixed in-memory group-by and
/// sort over integer and string keys, built from the C++ standard library
/// only, so no change to the system can change its work. Its time tracks
/// how fast this host runs memory-bound code at the moment; dividing a
/// statement's latency by the reference time taken just before it cancels
/// the host's speed swings. Returns milliseconds.
double ReferenceMs();

/// Runs the paper's Figure 1 table through PaperExampleStatement() in a
/// fresh catalog and checks the mined rules against Figure 2.b.
minerule::Status CheckPaperExample();

/// In-memory span record of the traced run (Chrome trace "X" events). A
/// span's parent is the span that caused it; spans of one statement share
/// the statement id.
class SpanLog {
 public:
  /// Opens a span and returns its index.
  int Begin(std::string name, int parent, int64_t statement);
  /// Closes span `index` and returns its duration in milliseconds.
  double End(int index);

  /// The spans as a Chrome trace JSON document.
  std::string ChromeTraceJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    int64_t statement = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-layer values of one traced statement, keyed by metric name (the
/// per_layer names of BENCHMARK.json, e.g. "sql.Q8_ms").
using LayerValues = std::map<std::string, double>;

/// Per-layer metric names the traced run reports, with their units, in
/// output order. Layers a workload does not reach report 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics();

/// Executes one MINE RULE statement the way DataMiningSystem does, but
/// layer by layer through the public entry points, timing each call:
/// ParseMineRule + Translator::Translate, GeneratePreprocessProgram, one
/// SqlEngine::Execute per generated query (carrying :totg/:mingroups),
/// the coded-table SELECTs, RunCoreOperator and Postprocessor::Run.
/// `engine` is the engine the untraced path uses; `options` are the
/// options that path runs with. Fills the per-statement layer values plus
/// "trace.total_ms" (the whole drive), "trace.layers_ms" (the sum of the
/// top-level layers) and "trace.unattributed_ms" (their difference).
minerule::Result<LayerValues> DriveMineRule(
    minerule::Catalog* catalog, minerule::sql::SqlEngine* engine,
    std::string_view text, const minerule::mr::MiningOptions& options,
    SpanLog* log, int64_t statement);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
