#ifndef MINERULE_SQL_SPILL_H_
#define MINERULE_SQL_SPILL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "relational/schema.h"
#include "storage/spill.h"

namespace minerule::sql {

/// Partition fanout of the spilling (grace) hash join and of the spilling
/// hash aggregate (DESIGN.md §13). Fixed so the partition assignment of a
/// key never depends on the thread count or the budget value.
inline constexpr size_t kSpillPartitions = 16;

/// Recursion cap for re-partitioning a spill partition that still exceeds
/// the budget. At the cap the partition is processed in memory regardless —
/// the budget is a target for working sets, not a hard allocator limit.
inline constexpr int kMaxSpillDepth = 8;

/// Maximum spill runs merged in one pass (external sort, join output).
/// Larger run counts are first collapsed by intermediate merge passes so
/// the number of concurrently buffered run readers stays bounded.
inline constexpr size_t kMergeFanIn = 64;

/// Partition hash for spilled keys at a given recursion depth. Seeded by
/// the depth so each re-partitioning level splits on fresh bits — a
/// partition whose keys all collided at depth d still spreads at d+1 —
/// and computed from the key values (RowHash, re-mixed), never from the
/// key encoding, so it stays decorrelated from KeyTable::Hash and the
/// in-memory table of a leaf partition does not see slot pileups.
uint64_t SpillHash(const Row& key, int depth);

/// Tracks an operator's estimated working-set bytes against the query
/// memory budget (ExecContext::memory_limit) and keeps the named peak
/// gauge fresh *during* buffering — published every 64 additions and on
/// Publish()/Reset() — so a memory spike is visible in mr_metrics even if
/// the query never finishes filling the buffer.
class MemoryAccountant {
 public:
  /// `limit` < 0 disables the budget check (OverBudget is then never true);
  /// the gauge is maintained either way.
  MemoryAccountant(const char* gauge, int64_t limit)
      : gauge_(GlobalMetrics().GetGauge(gauge)), limit_(limit) {}

  ~MemoryAccountant() { Publish(); }

  MemoryAccountant(const MemoryAccountant&) = delete;
  MemoryAccountant& operator=(const MemoryAccountant&) = delete;

  void AddBytes(int64_t bytes) {
    bytes_ += bytes;
    if ((++adds_ & 63) == 0) Publish();
  }

  bool OverBudget() const { return limit_ >= 0 && bytes_ > limit_; }
  int64_t bytes() const { return bytes_; }
  int64_t peak() const { return peak_; }

  /// Publishes the running total to the peak gauge.
  void Publish() {
    peak_ = bytes_ > peak_ ? bytes_ : peak_;
    gauge_->UpdateMax(bytes_);
  }

  /// Publishes, then zeroes the running total — call after the tracked
  /// buffer was flushed to disk.
  void Reset() {
    Publish();
    bytes_ = 0;
  }

 private:
  Gauge* gauge_;
  int64_t limit_;
  int64_t bytes_ = 0;
  int64_t peak_ = 0;
  int adds_ = 0;
};

/// Scatters records into a fixed number of partitions inside ONE SpillFile.
/// A SpillFile's runs are sequential extents, so concurrently growing
/// partitions cannot interleave raw appends; instead each partition buffers
/// records and flushes them as a chunk-run when the buffer fills. A
/// partition's payload is therefore an ordered list of runs whose
/// concatenation holds the partition's records in exactly their append
/// order — the property every spill determinism argument leans on
/// (DESIGN.md §13).
class PartitionedSpillWriter {
 public:
  PartitionedSpillWriter(storage::SpillFile* file, size_t num_partitions)
      : file_(file), parts_(num_partitions) {}

  /// Buffers one record for `partition`, flushing that partition's chunk
  /// when it crosses kChunkBytes.
  Status Add(size_t partition, std::string_view record);

  /// Flushes every partition's pending chunk. Call before reading.
  Status Finish();

  /// The run list making up one partition, in record order.
  const std::vector<storage::SpillRun>& runs(size_t partition) const {
    return parts_[partition].runs;
  }
  uint64_t records(size_t partition) const { return parts_[partition].records; }
  /// Payload + framing bytes of one partition — the budget proxy deciding
  /// whether that partition must recurse.
  uint64_t bytes(size_t partition) const { return parts_[partition].bytes; }

 private:
  /// Per-partition staging buffer: small enough that all partitions pending
  /// at once stay an I/O-buffering constant, large enough to amortize run
  /// bookkeeping.
  static constexpr size_t kChunkBytes = 64 * 1024;

  struct Part {
    std::vector<std::string> pending;
    size_t pending_bytes = 0;
    std::vector<storage::SpillRun> runs;
    uint64_t records = 0;
    uint64_t bytes = 0;
  };

  Status FlushPartition(size_t partition);

  storage::SpillFile* file_;
  std::vector<Part> parts_;
};

/// Sequential reader over one partition's records: its run list, in order.
class PartitionReader {
 public:
  PartitionReader(const storage::SpillFile* file,
                  const std::vector<storage::SpillRun>& runs)
      : file_(file), runs_(&runs) {}

  /// Reads the next record; false once every run is exhausted.
  Result<bool> Next(std::string* record);

 private:
  const storage::SpillFile* file_;
  const std::vector<storage::SpillRun>* runs_;
  size_t next_run_ = 0;
  storage::SpillFile::Reader reader_;
  bool reader_open_ = false;
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_SPILL_H_
