#ifndef MINERULE_SQL_OPERATORS_H_
#define MINERULE_SQL_OPERATORS_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "relational/table.h"
#include "sql/aggregates.h"
#include "sql/ast.h"
#include "sql/expr_eval.h"
#include "sql/key_table.h"

namespace minerule::sql {

/// Rows per morsel for morsel-driven parallel execution (DESIGN.md §9).
/// Morsel boundaries are a pure function of the input size, never of the
/// thread count, so per-morsel results merged in morsel order are
/// bit-identical at any parallelism.
inline constexpr size_t kMorselRows = 1024;

/// Partition fanout of the parallel hash-join build (DESIGN.md §9). Fixed so
/// the partition assignment of a key never depends on the thread count.
inline constexpr size_t kJoinPartitions = 16;

/// Execution statistics for one operator, snapshotted from an executed plan
/// (EXPLAIN ANALYZE, preprocess query profiles).
struct OperatorProfile {
  std::string name;
  std::string detail;
  int depth = 0;       // position in the pre-order flattening of the plan
  int64_t rows = 0;    // rows produced
  int64_t micros = 0;  // inclusive wall time; 0 unless timing was enabled
  std::vector<std::pair<std::string, int64_t>> counters;
  /// Cost-based-planner estimates (DESIGN.md §14); -1 when the planner ran
  /// without statistics (the default, estimate-free EXPLAIN output).
  double est_rows = -1;
  double est_cost = -1;
};

/// Base class of the volcano-style (Open/Next) executor nodes. A node's
/// output schema is fixed at construction; Next() produces one row at a
/// time until it returns false.
///
/// The public Open/Next are non-virtual wrappers that count produced rows
/// (always — a branch and an increment) and, when timing is enabled via
/// EnableTimingTree, accumulate wall time in nanoseconds (converted to
/// microseconds only when read, so sub-microsecond calls still count).
/// Timing is *inclusive*: a parent
/// pulls from its children inside NextImpl, so child time is counted in the
/// parent as well (like EXPLAIN ANALYZE's "actual time" in most engines).
///
/// Morsel protocol (DESIGN.md §9): nodes that can evaluate disjoint input
/// ranges independently report SupportsMorsels() and serve RunMorsel(begin,
/// end) calls from concurrent workers. A driver (CollectRowsParallel or a
/// pipeline-breaking parent) claims morsels over [0, MorselInputRows()) and
/// concatenates the per-morsel outputs in morsel order, which reproduces the
/// serial row order exactly. A plan is driven either through Next() or
/// through RunMorsel(), never both at once. The row/time counters are
/// relaxed atomics so concurrent morsels on a fused chain stay race-free.
class ExecNode {
 public:
  explicit ExecNode(Schema schema) : schema_(std::move(schema)) {}
  virtual ~ExecNode() = default;

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  Status Open() {
    if (!timing_) return OpenImpl();
    Stopwatch watch;
    Status status = OpenImpl();
    nanos_.fetch_add(watch.ElapsedNanos(), std::memory_order_relaxed);
    return status;
  }

  /// Produces the next row into *out; returns false at end of stream.
  Result<bool> Next(Row* out) {
    if (!timing_) {
      Result<bool> more = NextImpl(out);
      if (more.ok() && *more) rows_out_.fetch_add(1, std::memory_order_relaxed);
      return more;
    }
    Stopwatch watch;
    Result<bool> more = NextImpl(out);
    nanos_.fetch_add(watch.ElapsedNanos(), std::memory_order_relaxed);
    if (more.ok() && *more) rows_out_.fetch_add(1, std::memory_order_relaxed);
    return more;
  }

  /// True when this node can serve RunMorsel calls. Only meaningful after
  /// Open() (a HashJoin, for instance, decides at Open whether it
  /// materialized its probe side). Implies the served subtree is free of
  /// side-effecting expressions (NEXTVAL).
  virtual bool SupportsMorsels() const { return false; }

  /// Number of input rows morsel ranges are defined over; valid after
  /// Open(). RunMorsel may emit fewer or more rows than the range covers
  /// (filters drop, joins multiply).
  virtual size_t MorselInputRows() const { return 0; }

  /// Evaluates input range [begin, end) and appends the resulting rows to
  /// *out. Safe to call concurrently for disjoint ranges after Open().
  /// Counts rows/time like Next() (relaxed atomics) and tallies the morsel.
  Status RunMorsel(size_t begin, size_t end, std::vector<Row>* out) {
    const size_t before = out->size();
    if (!timing_) {
      Status status = EvaluateMorselImpl(begin, end, out);
      if (status.ok()) CountMorsel(static_cast<int64_t>(out->size() - before));
      return status;
    }
    Stopwatch watch;
    Status status = EvaluateMorselImpl(begin, end, out);
    nanos_.fetch_add(watch.ElapsedNanos(), std::memory_order_relaxed);
    if (status.ok()) CountMorsel(static_cast<int64_t>(out->size() - before));
    return status;
  }

  /// True when executing this subtree has no observable side effects — no
  /// NEXTVAL anywhere in its expressions. Plan-static (valid before Open).
  /// Lets a hash join skip its probe side entirely when the build side is
  /// empty. Conservative default: assume side effects.
  virtual bool SideEffectFree() const { return false; }

  /// Estimated number of output rows before execution, for sizing hash
  /// tables; -1 when unknown. Leaf scans know their size exactly; filters
  /// and projections forward the child's estimate as an upper bound.
  virtual int64_t EstimatedRowCount() const { return -1; }

  /// Records the number of workers that drove this node in parallel (max
  /// over recordings). Nodes that delegate morsels to a child (Filter,
  /// Project) forward the recording down the fused chain.
  virtual void RecordParallelWorkers(int workers) { NoteWorkers(workers); }

  const Schema& schema() const { return schema_; }

  /// Operator name as shown in EXPLAIN (e.g. "HashJoin").
  virtual const char* name() const = 0;

  /// One-line operator argument (predicate, table name, key list, ...).
  /// Deterministic: depends only on the plan, never on execution.
  virtual std::string detail() const { return ""; }

  /// Child operators in plan order (build/probe inputs, etc.).
  virtual std::vector<ExecNode*> children() { return {}; }

  /// Operator-specific counters (hash-table build size, ...), only
  /// meaningful after execution.
  virtual void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* /*out*/) const {}

  int64_t rows_out() const { return rows_out_.load(std::memory_order_relaxed); }
  int64_t micros() const {
    return nanos_.load(std::memory_order_relaxed) / 1000;
  }

  /// Morsels this node evaluated (via RunMorsel) or drove over its input
  /// (pipeline breakers aggregating child morsels); 0 on the serial path.
  int64_t parallel_morsels() const {
    return morsels_.load(std::memory_order_relaxed);
  }
  /// Max worker count recorded for this node; 0 on the serial path.
  int parallel_workers() const {
    return workers_.load(std::memory_order_relaxed);
  }

  /// Turns per-operator wall-time accounting on/off for this whole subtree.
  void EnableTimingTree(bool enabled) {
    timing_ = enabled;
    for (ExecNode* child : children()) child->EnableTimingTree(enabled);
  }

  /// Cost-based-planner estimates for EXPLAIN (DESIGN.md §14). Plan-static:
  /// set once at plan time, never updated by execution; -1 (the default)
  /// means "not estimated" and renders nothing, so estimate-free plans keep
  /// their historical EXPLAIN output.
  void SetPlanEstimates(double est_rows, double est_cost) {
    plan_est_rows_ = est_rows;
    plan_est_cost_ = est_cost;
  }
  double plan_est_rows() const { return plan_est_rows_; }
  double plan_est_cost() const { return plan_est_cost_; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Row* out) = 0;

  /// Morsel evaluation body; only reached when SupportsMorsels() is true.
  virtual Status EvaluateMorselImpl(size_t /*begin*/, size_t /*end*/,
                                    std::vector<Row>* /*out*/) {
    return Status::Internal(std::string(name()) +
                            " does not support morsel evaluation");
  }

  /// Max-updates the recorded worker count (relaxed CAS loop).
  void NoteWorkers(int workers) {
    int seen = workers_.load(std::memory_order_relaxed);
    while (workers > seen &&
           !workers_.compare_exchange_weak(seen, workers,
                                           std::memory_order_relaxed)) {
    }
  }

  /// For pipeline breakers that drive their child by morsels internally:
  /// tallies the morsels processed on this node's own counter.
  void NoteDrivenMorsels(int64_t morsels) {
    morsels_.fetch_add(morsels, std::memory_order_relaxed);
  }

  Schema schema_;

 private:
  void CountMorsel(int64_t rows_added) {
    rows_out_.fetch_add(rows_added, std::memory_order_relaxed);
    morsels_.fetch_add(1, std::memory_order_relaxed);
  }

  bool timing_ = false;
  double plan_est_rows_ = -1;
  double plan_est_cost_ = -1;
  std::atomic<int64_t> rows_out_{0};
  std::atomic<int64_t> nanos_{0};
  std::atomic<int64_t> morsels_{0};
  std::atomic<int> workers_{0};
};

using ExecNodePtr = std::unique_ptr<ExecNode>;

class MemoryAccountant;  // sql/spill.h

/// Estimated in-memory footprint of one materialized row: the inline Value
/// storage plus string heap payloads. Used with sampled rows for the
/// rows-times-width working-set estimates (DESIGN.md §11).
int64_t EstimateRowBytes(const Row& row);

/// rows times the mean EstimateRowBytes over up to 64 evenly spaced sample
/// rows; 0 for an empty buffer. A single-row sample badly misestimates
/// variable-width data, which is why the working-set estimates sample.
int64_t SampledRowsBytes(const std::vector<Row>& rows);

/// SampledRowsBytes, additionally raising the named process-wide peak gauge
/// so memory spikes survive into mr_metrics.
int64_t AccountBufferBytes(const char* gauge, const std::vector<Row>& rows);

/// Drains an already-opened node into *out. When the node supports morsels
/// and num_threads != 1, workers claim fixed-size morsels and the per-morsel
/// outputs are concatenated in morsel order — bit-identical to the serial
/// drain. Appends to *out. When `accountant` is given, the drained rows are
/// accounted while the buffer grows (per row on the serial path, per morsel
/// slot during the parallel concatenation) so the peak gauge reflects the
/// buffer before it is complete.
Status DrainOpenedNode(ExecNode* node, int num_threads, std::vector<Row>* out,
                       MemoryAccountant* accountant = nullptr);

/// Drains a plan into a vector of rows.
Result<std::vector<Row>> CollectRows(ExecNode* node);

/// Drains a plan into a vector of rows, claiming fixed-size morsels with up
/// to `num_threads` workers when the (opened) root supports morsels, and
/// falling back to the serial drain otherwise. The per-morsel outputs are
/// concatenated in morsel order, so the result is bit-identical to
/// CollectRows at every thread count. num_threads == 1 is exactly the
/// serial path; <= 0 means hardware concurrency.
Result<std::vector<Row>> CollectRowsParallel(ExecNode* node, int num_threads);

/// Pre-order flattening of the plan's statistics (root first, children at
/// depth + 1). Call after execution for meaningful rows/micros.
std::vector<OperatorProfile> FlattenPlanProfile(ExecNode* root);

/// Renders the plan as indented text lines, one per operator. With
/// `analyze` the lines append actual rows, time and extra counters; without
/// it the output is fully deterministic (golden-testable).
std::vector<std::string> RenderPlan(ExecNode* root, bool analyze);

/// Full scan over a catalog table. The row count is snapshotted at Open()
/// so `INSERT INTO t SELECT ... FROM t` terminates.
class TableScanNode : public ExecNode {
 public:
  explicit TableScanNode(std::shared_ptr<Table> table);
  const char* name() const override { return "TableScan"; }
  std::string detail() const override;
  bool SupportsMorsels() const override { return true; }
  size_t MorselInputRows() const override { return snapshot_size_; }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  std::shared_ptr<Table> table_;
  size_t pos_ = 0;
  size_t snapshot_size_ = 0;
};

/// Emits a fixed in-memory row set (subquery materialization, VALUES,
/// and the implicit single empty row of a FROM-less SELECT).
class RowsNode : public ExecNode {
 public:
  RowsNode(Schema schema, std::vector<Row> rows);
  const char* name() const override { return "Rows"; }
  std::string detail() const override;
  bool SupportsMorsels() const override { return true; }
  size_t MorselInputRows() const override { return rows_.size(); }
  bool SideEffectFree() const override { return true; }
  int64_t EstimatedRowCount() const override {
    return static_cast<int64_t>(rows_.size());
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Scan over a system table (mr_runs, mr_metrics, ...) materialized from
/// the process-wide observability registries at plan time (DESIGN.md §11).
/// Execution-wise a RowsNode; it only reports itself distinctly in EXPLAIN.
class SystemScanNode : public RowsNode {
 public:
  SystemScanNode(std::string table, Schema schema, std::vector<Row> rows)
      : RowsNode(std::move(schema), std::move(rows)),
        table_(std::move(table)) {}
  const char* name() const override { return "SystemScan"; }
  std::string detail() const override { return table_; }

 private:
  std::string table_;
};

/// WHERE / HAVING filter. Fuses with a morsel-capable child: a morsel is
/// evaluated by pulling the child's range and filtering it in place, so
/// scan+filter run in the same worker without materialization in between.
class FilterNode : public ExecNode {
 public:
  FilterNode(ExecNodePtr child, ExprPtr predicate, ExecContext* ctx);
  const char* name() const override { return "Filter"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SupportsMorsels() const override {
    return pure_ && child_->SupportsMorsels();
  }
  size_t MorselInputRows() const override { return child_->MorselInputRows(); }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();  // upper bound (filter only drops)
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    child_->RecordParallelWorkers(workers);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  ExecNodePtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_;
  bool pure_ = false;  // predicate free of NEXTVAL
};

/// SELECT-list projection (expressions already bound / rewritten). Fuses
/// with a morsel-capable child like FilterNode.
class ProjectNode : public ExecNode {
 public:
  ProjectNode(ExecNodePtr child, std::vector<ExprPtr> exprs, Schema out_schema,
              ExecContext* ctx);
  const char* name() const override { return "Project"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SupportsMorsels() const override {
    return pure_ && child_->SupportsMorsels();
  }
  size_t MorselInputRows() const override { return child_->MorselInputRows(); }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();  // exact: projection is 1:1
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    child_->RecordParallelWorkers(workers);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  ExecNodePtr child_;
  std::vector<ExprPtr> exprs_;
  ExecContext* ctx_;
  bool pure_ = false;  // all projections free of NEXTVAL
};

/// Appends the 0-based source row index as a trailing INTEGER column
/// (display name "#ridN"). The cost-based planner wraps each base scan of a
/// reordered join with one of these; sorting the join output on the hidden
/// rowid tuple restores the canonical (syntactic-order) row order exactly,
/// because a left-deep hash-join chain emits rows in lexicographic
/// source-index order (DESIGN.md §14). 1:1 with its input, so morsel ranges
/// map directly to input indexes.
class RowNumberNode : public ExecNode {
 public:
  RowNumberNode(ExecNodePtr child, std::string column_name);
  const char* name() const override { return "RowNumber"; }
  std::string detail() const override { return column_name_; }
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SupportsMorsels() const override { return child_->SupportsMorsels(); }
  size_t MorselInputRows() const override { return child_->MorselInputRows(); }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }
  int64_t EstimatedRowCount() const override {
    return child_->EstimatedRowCount();
  }
  void RecordParallelWorkers(int workers) override {
    NoteWorkers(workers);
    child_->RecordParallelWorkers(workers);
  }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  ExecNodePtr child_;
  std::string column_name_;
  size_t pos_ = 0;
};

/// Nested-loop join with optional residual predicate evaluated over the
/// concatenated row. The right side is materialized at Open() for rescans.
class NestedLoopJoinNode : public ExecNode {
 public:
  NestedLoopJoinNode(ExecNodePtr left, ExecNodePtr right, ExprPtr predicate,
                     ExecContext* ctx);
  const char* name() const override { return "NestedLoopJoin"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override {
    return {left_.get(), right_.get()};
  }
  bool SideEffectFree() const override {
    return pure_ && left_->SideEffectFree() && right_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  ExecNodePtr left_;
  ExecNodePtr right_;
  ExprPtr predicate_;  // may be null (cross join)
  ExecContext* ctx_;
  bool pure_ = false;
  std::vector<Row> right_rows_;
  Row current_left_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Equi hash join: builds a hash table over the right input keyed on
/// `right_keys`, probes with `left_keys`. A residual predicate (the
/// non-equi part of the join condition) filters matches. SQL semantics:
/// NULL keys never match.
///
/// Build rows are kept in one vector and bucketed by their encoded key in a
/// KeyBuckets table (DESIGN.md §17); each bucket lists its rows in build
/// order.
///
/// Parallel mode (ctx->num_threads != 1, expressions NEXTVAL-free): the
/// build side is materialized and split into kJoinPartitions per-partition
/// bucket tables built concurrently (one task per partition, each scanning
/// the build rows in index order so bucket contents match the serial
/// insertion order); the probe side is materialized and this node becomes a
/// morsel source — each morsel probes a row range of the probe side, so a
/// fused parent (or CollectRowsParallel) parallelizes the probe. An empty
/// build side skips the probe-side scan entirely when that subtree is
/// side-effect free.
class HashJoinNode : public ExecNode {
 public:
  /// `swap_build` asks for the swapped build side (build over the *left*
  /// input, stream the right) — chosen by the cost-based planner when the
  /// left side is estimated much smaller (DESIGN.md §14). Honored only when
  /// the expressions are pure and no memory budget is set; ignored
  /// otherwise, falling back to the canonical right-side build. Output rows
  /// and their order are identical either way: swapped mode groups matches
  /// by probe-side arrival under each left row and emits them grouped in
  /// left order, which reproduces the canonical left-outer/right-inner
  /// emission order exactly.
  HashJoinNode(ExecNodePtr left, ExecNodePtr right,
               std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
               ExprPtr residual, ExecContext* ctx, bool swap_build = false);
  ~HashJoinNode() override;
  const char* name() const override { return "HashJoin"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override {
    return {left_.get(), right_.get()};
  }
  bool SupportsMorsels() const override { return parallel_ || swap_ready_; }
  size_t MorselInputRows() const override {
    return swap_ready_ ? swap_pairs_.size() : left_rows_.size();
  }
  bool SideEffectFree() const override {
    return pure_ && left_->SideEffectFree() && right_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;
  Status EvaluateMorselImpl(size_t begin, size_t end,
                            std::vector<Row>* out) override;

 private:
  struct Spill;  // grace-hash state, local to operators_spill.cc

  /// Key values of `row` (budgeted path, which accounts and spills them);
  /// false when a key is NULL.
  Result<bool> ComputeKey(const std::vector<ExprPtr>& exprs, const Row& row,
                          Row* key) const;
  /// Canonical encoding of the key of `row`, replacing *key; false when a
  /// key is NULL.
  Result<bool> EncodeKey(const std::vector<ExprPtr>& exprs, const Row& row,
                         std::string* key) const;
  /// The build-row indexes matching encoded `key`, in build order.
  std::pair<const uint32_t*, const uint32_t*> FindBucket(
      std::string_view key) const;
  Status BuildParallel(int num_threads);
  Result<bool> PullLeft(Row* out);
  Status ProbeRow(const Row& left_row, std::string* key,
                  std::vector<Row>* out);

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure expressions):
  /// streams the build side under a MemoryAccountant; within budget it
  /// degenerates to the exact serial in-memory join, past it it becomes a
  /// recursive grace-hash join whose merged output reproduces the serial
  /// probe order bit for bit (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Result<bool> NextSpill(Row* out);

  /// Swapped-build path (swap_build constructor flag): materializes both
  /// inputs, builds key -> left-row-index buckets over the (small) left
  /// input, streams the right input through them (morsel-parallel when
  /// num_threads != 1), and buffers each match as a (left index, right
  /// index) pair, flattened in left-major order — the canonical output
  /// order. Joined rows are constructed lazily at emission, so the swap
  /// never materializes the output twice. After this the node is a plain
  /// morsel source over swap_pairs_.
  Status OpenSwapped(int num_threads);

  /// The i-th output row of the swapped join, built on demand.
  Row SwappedRow(size_t i) const;

  ExecNodePtr left_;
  ExecNodePtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;  // may be null
  ExecContext* ctx_;
  bool pure_ = false;      // keys + residual free of NEXTVAL
  bool parallel_ = false;  // decided at Open()
  bool probe_skipped_ = false;
  const bool swap_build_;   // planner request (constructor)
  bool swap_ready_ = false;  // swapped pairs materialized (decided at Open)
  std::vector<Row> swap_build_rows_;  // materialized left input
  std::vector<Row> swap_probe_rows_;  // materialized right input
  std::vector<std::pair<size_t, size_t>> swap_pairs_;  // left-major matches
  size_t swap_pos_ = 0;
  int64_t swap_buckets_ = 0;
  std::vector<Row> build_side_rows_;    // build rows with non-NULL keys
  KeyBuckets hash_table_;               // serial mode
  std::vector<KeyBuckets> partitions_;  // parallel mode, size kJoinPartitions
  std::vector<Row> left_rows_;          // parallel mode: materialized probe side
  size_t left_pos_ = 0;
  int64_t build_rows_ = 0;
  int64_t build_bytes_ = 0;  // estimated build working set (rows x width)
  /// Build rows consumed including NULL-key rows, and their estimated
  /// footprint: an all-NULL-key build still materialized its input, so the
  /// working-set estimate must not read 0 (DESIGN.md §13).
  int64_t build_consumed_rows_ = 0;
  int64_t build_consumed_bytes_ = 0;
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // leaf partitions joined on the spill path
  std::unique_ptr<Spill> spill_;  // non-null only when the build overflowed
  Row current_left_;
  std::string probe_key_;  // serial probe's encoding buffer
  const uint32_t* bucket_pos_ = nullptr;  // next match of current_left_
  const uint32_t* bucket_end_ = nullptr;
};

/// One aggregate computed by HashAggregateNode.
struct AggSpec {
  AggFunc func = AggFunc::kCountStar;
  bool distinct = false;
  ExprPtr arg;  // bound against the child schema; null for COUNT(*)
};

/// GROUP BY via hashing. Output row layout: group expressions first, then
/// aggregate results, matching the slot rewriting done by the planner.
/// With no group expressions it emits exactly one row (global aggregate),
/// even over empty input.
///
/// Parallel mode (ctx->num_threads != 1, morsel-capable child, expressions
/// NEXTVAL-free, and every aggregate merge-exact per
/// AggAccumulator::MergeIsExact): workers aggregate child morsels into
/// thread-local tables which are then folded together in ascending morsel
/// order — a group's position is its (first morsel, first local index),
/// i.e. its global first occurrence, so the emission order and every
/// accumulator value are bit-identical to the serial pass. SUM/AVG are
/// order-sensitive and keep the serial path.
class HashAggregateNode : public ExecNode {
 public:
  HashAggregateNode(ExecNodePtr child, std::vector<ExprPtr> group_exprs,
                    std::vector<AggSpec> aggs, Schema out_schema,
                    ExecContext* ctx);
  ~HashAggregateNode() override;
  const char* name() const override { return "HashAggregate"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  struct GroupTable;  // operators_spill_state.h

  std::vector<AggAccumulator> MakeAccumulators() const;
  /// Group id of `key` in *groups, adding the group (a copy of `key` and
  /// fresh accumulators) when it is new; the bool is true for a new group.
  std::pair<size_t, bool> AddGroup(GroupTable* groups, const Row& key) const;
  Status AggregateSerial(GroupTable* groups, MemoryAccountant* accountant);
  Status AggregateParallel(int num_threads, GroupTable* groups);

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure expressions):
  /// buffers (input index, group key, aggregate args) tuples under a
  /// MemoryAccountant; within budget it aggregates the buffer exactly like
  /// the serial pass, past it the tuples spill to key-hash partitions that
  /// are aggregated independently (recursing on oversized ones) and the
  /// groups are re-emitted in serial first-seen order by their minimum
  /// input index (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Status AggregatePartition(const struct AggPartitionInput& input, int depth,
                            bool can_split,
                            std::vector<std::pair<uint64_t, Row>>* out);

  ExecNodePtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  ExecContext* ctx_;
  bool pure_ = false;        // group + agg expressions free of NEXTVAL
  bool merge_exact_ = false; // every aggregate is exactly mergeable
  std::vector<Row> results_;
  int64_t table_bytes_ = 0;  // estimated result-table working set
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // leaf partitions aggregated on disk
  size_t pos_ = 0;
};

/// Hash-based DISTINCT over encoded rows (a KeyTable, DESIGN.md §17).
/// Serial mode streams (emit on first sight); parallel mode
/// (ctx->num_threads != 1, morsel-capable child) deduplicates child morsels
/// locally and folds the survivors in morsel order through a global
/// seen-set, reproducing the serial first-seen emission order exactly.
class DistinctNode : public ExecNode {
 public:
  DistinctNode(ExecNodePtr child, ExecContext* ctx);
  const char* name() const override { return "Distinct"; }
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  ExecNodePtr child_;
  ExecContext* ctx_;
  KeyTable seen_;        // serial mode: encodings of the rows emitted so far
  std::string scratch_;  // serial mode's encoding buffer
  bool materialized_ = false;  // parallel mode: results_ holds the output
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// ORDER BY: materializes and sorts at Open() using the total value order.
/// std::stable_sort keeps input order among ties, so the output is a
/// deterministic function of the input order alone. In parallel mode the
/// input is materialized morsel-parallel and the sort keys are computed
/// morsel-parallel into a pre-sized vector; the sort itself stays serial.
class SortNode : public ExecNode {
 public:
  struct SortKey {
    ExprPtr expr;  // bound against the child schema
    bool descending = false;
  };
  SortNode(ExecNodePtr child, std::vector<SortKey> keys, ExecContext* ctx);
  ~SortNode() override;
  const char* name() const override { return "Sort"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override {
    return pure_ && child_->SideEffectFree();
  }
  void AppendExtraCounters(
      std::vector<std::pair<std::string, int64_t>>* out) const override;

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  struct External;  // external-merge-sort state, local to operators_spill.cc

  /// Total key order of `a` vs `b` under keys_ (ties false, so stable
  /// sorting and run-order tie-breaking preserve input order).
  bool KeyLess(const Row& a, const Row& b) const;

  /// Budgeted serial path (ctx->memory_limit >= 0 and pure sort keys):
  /// streams the child into a (key, row) buffer under a MemoryAccountant;
  /// within budget it finishes with the exact in-memory stable sort, past
  /// it each overflow writes a sorted run and NextImpl streams a fan-in-
  /// capped multi-way merge that reproduces the stable order bit for bit
  /// (operators_spill.cc, DESIGN.md §13).
  Status OpenBudget();
  Result<bool> NextExternal(Row* out);

  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  ExecContext* ctx_;
  bool pure_ = false;  // sort keys free of NEXTVAL
  std::vector<Row> rows_;
  int64_t buffer_bytes_ = 0;  // estimated sort-buffer working set
  int64_t spill_bytes_ = 0;       // spill file bytes written by this open
  int64_t spill_partitions_ = 0;  // sorted runs written (incl. merge passes)
  std::unique_ptr<External> external_;  // non-null only when spilling
  size_t pos_ = 0;
};

/// LIMIT n. Stays serial: stopping early is the whole point, so driving the
/// child by morsels would evaluate rows the serial path never touches.
class LimitNode : public ExecNode {
 public:
  LimitNode(ExecNodePtr child, int64_t limit);
  const char* name() const override { return "Limit"; }
  std::string detail() const override;
  std::vector<ExecNode*> children() override { return {child_.get()}; }
  bool SideEffectFree() const override { return child_->SideEffectFree(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Row* out) override;

 private:
  ExecNodePtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_OPERATORS_H_
