// fuzz_minerule: seeded, deterministic fuzzing of the whole MINE RULE
// pipeline against a differential oracle (see DESIGN.md §10).
//
//   fuzz_minerule --seed=1 --cases=200            # fuzz, print a report
//   fuzz_minerule --replay=tests/fuzz_corpus      # replay a corpus dir
//   fuzz_minerule --minimize=failing.repro        # shrink a repro file
//
// Exit code 0 and a final "FUZZ OK seed=<S> cases=<K> digest=<D>" line on a
// clean run; the digest is bit-identical for identical seeds and options.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "fuzz/harness.h"

namespace {

using minerule::fuzz::CaseOutcome;
using minerule::fuzz::FuzzCase;
using minerule::fuzz::FuzzOptions;
using minerule::fuzz::FuzzReport;
using minerule::fuzz::MinimizeResult;
using minerule::fuzz::OracleFailure;

int Usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_minerule [--seed=N] [--cases=N] [--threads=N]\n"
      "                     [--mutants=N] [--max-failures=N]\n"
      "                     [--repro-dir=DIR] [--no-minimize] [--verbose]\n"
      "                     [--metrics]\n"
      "                     [--no-reference] [--no-decoupled]\n"
      "                     [--no-metamorphic] [--no-alt-algorithm]\n"
      "                     [--no-dup-invariance]\n"
      "                     [--no-memory-budget] [--memory-budget=BYTES]\n"
      "                     [--no-cost-based] [--no-concurrent]\n"
      "                     [--concurrent-sessions=N] [--no-oplog]\n"
      "       fuzz_minerule --replay=FILE_OR_DIR [--threads=N] ...\n"
      "       fuzz_minerule --minimize=FILE [--out=FILE] ...\n");
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  return false;
}

int ReplayPath(const std::string& path, const FuzzOptions& options) {
  std::vector<std::string> files;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      if (entry.path().extension() == ".repro") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "no .repro files under %s\n", path.c_str());
      return 2;
    }
  } else {
    files.push_back(path);
  }
  int failures = 0;
  for (const std::string& file : files) {
    minerule::Result<CaseOutcome> outcome =
        minerule::fuzz::ReplayReproFile(file, options.oracle);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", file.c_str(),
                   outcome.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (outcome->failures.empty()) {
      std::printf("%s: ok (%s, %lld rules, routes:", file.c_str(),
                  outcome->executed ? outcome->directives.c_str()
                                    : outcome->reject_stage.c_str(),
                  static_cast<long long>(outcome->num_rules));
      for (const std::string& route : outcome->routes) {
        std::printf(" %s", route.c_str());
      }
      std::printf(")\n");
    } else {
      ++failures;
      std::printf("%s: FAIL\n", file.c_str());
      for (const OracleFailure& failure : outcome->failures) {
        std::printf("  [%s] %s\n", failure.check.c_str(),
                    failure.detail.c_str());
      }
    }
  }
  if (failures > 0) {
    std::printf("FUZZ FAIL replayed=%zu failures=%d\n", files.size(),
                failures);
    return 1;
  }
  std::printf("FUZZ OK replayed=%zu\n", files.size());
  return 0;
}

int MinimizePath(const std::string& path, const std::string& out_path,
                 const FuzzOptions& options) {
  minerule::Result<FuzzCase> repro = minerule::fuzz::ReadReproFile(path);
  if (!repro.ok()) {
    std::fprintf(stderr, "%s\n", repro.status().ToString().c_str());
    return 2;
  }
  minerule::Result<MinimizeResult> minimized =
      minerule::fuzz::MinimizeCase(*repro, options.oracle);
  if (!minimized.ok()) {
    std::fprintf(stderr, "%s\n", minimized.status().ToString().c_str());
    return 2;
  }
  std::printf("minimized (%d/%d shrinks accepted, preserves [%s]):\n%s",
              minimized->steps_accepted, minimized->steps_tried,
              minimized->check.c_str(),
              minimized->minimized.Serialize().c_str());
  if (!out_path.empty()) {
    minerule::Status status = minerule::fuzz::WriteReproFile(
        out_path, minimized->minimized, "minimized from " + path +
                                            "; preserves " + minimized->check);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fuzzing deliberately executes failing statements; without an explicit
  // override, silence the server's warn-level failure logs (and their
  // flight-recorder dumps) so the report stays readable.
  if (std::getenv("MINERULE_LOG_LEVEL") == nullptr) {
    minerule::GlobalLog().set_min_level(minerule::LogLevel::kError);
  }
  FuzzOptions options;
  std::string replay_path, minimize_path, out_path, value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseFlag(arg, "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--cases", &value)) {
      options.cases = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--threads", &value)) {
      options.oracle.threads = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--mutants", &value)) {
      options.mutants_per_case = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--max-failures", &value)) {
      options.max_failures = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--repro-dir", &value)) {
      options.repro_dir = value;
    } else if (ParseFlag(arg, "--replay", &value)) {
      replay_path = value;
    } else if (ParseFlag(arg, "--minimize", &value)) {
      minimize_path = value;
    } else if (ParseFlag(arg, "--out", &value)) {
      out_path = value;
    } else if (std::strcmp(arg, "--no-minimize") == 0) {
      options.minimize_failures = false;
    } else if (std::strcmp(arg, "--no-reference") == 0) {
      options.oracle.run_reference = false;
    } else if (std::strcmp(arg, "--no-decoupled") == 0) {
      options.oracle.run_decoupled = false;
    } else if (std::strcmp(arg, "--no-metamorphic") == 0) {
      options.oracle.run_metamorphic = false;
    } else if (std::strcmp(arg, "--no-alt-algorithm") == 0) {
      options.oracle.run_alternate_algorithm = false;
    } else if (std::strcmp(arg, "--no-dup-invariance") == 0) {
      options.oracle.run_duplicate_invariance = false;
    } else if (std::strcmp(arg, "--no-memory-budget") == 0) {
      options.oracle.run_memory_budget = false;
    } else if (std::strcmp(arg, "--no-cost-based") == 0) {
      options.oracle.run_cost_based = false;
    } else if (std::strcmp(arg, "--no-concurrent") == 0) {
      options.oracle.run_concurrent = false;
    } else if (std::strcmp(arg, "--no-oplog") == 0) {
      options.oracle.run_oplog = false;
    } else if (ParseFlag(arg, "--concurrent-sessions", &value)) {
      options.oracle.concurrent_sessions = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--memory-budget", &value)) {
      options.oracle.memory_budget_bytes = std::atoll(value.c_str());
    } else if (std::strcmp(arg, "--metrics") == 0) {
      options.print_metrics = true;
    } else if (std::strcmp(arg, "--verbose") == 0) {
      options.verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return Usage();
    }
  }
  if (!replay_path.empty()) return ReplayPath(replay_path, options);
  if (!minimize_path.empty()) {
    return MinimizePath(minimize_path, out_path, options);
  }

  minerule::Result<FuzzReport> report = minerule::fuzz::RunFuzz(options);
  if (!report.ok()) {
    std::fprintf(stderr, "harness error: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", report->Summary().c_str());
  if (options.print_metrics) {
    std::printf("-- metrics --\n%s",
                minerule::MetricsRegistry::Format(
                    minerule::GlobalMetrics().Snapshot())
                    .c_str());
  }
  if (!report->AllDirectiveBitsCovered() && options.cases >= 50) {
    std::printf("WARNING: not every directive bit was covered both ways\n");
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(report->digest));
  if (!report->failures.empty()) {
    std::printf("FUZZ FAIL seed=%llu cases=%d failures=%zu digest=%s\n",
                static_cast<unsigned long long>(options.seed),
                report->cases_run, report->failures.size(), digest);
    return 1;
  }
  std::printf("FUZZ OK seed=%llu cases=%d digest=%s\n",
              static_cast<unsigned long long>(options.seed),
              report->cases_run, digest);
  return 0;
}
