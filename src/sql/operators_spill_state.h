#ifndef MINERULE_SQL_OPERATORS_SPILL_STATE_H_
#define MINERULE_SQL_OPERATORS_SPILL_STATE_H_

// Definitions of the spill-state structs owned by the buffering operators
// (DESIGN.md §13), of the aggregate's group table, which the in-memory and
// the budgeted paths share, and of the joined-row builder both join paths
// use. operators.cc needs the complete types to construct and reset the
// owning unique_ptrs; operators_spill.cc implements the budgeted paths that
// fill them. Internal to the sql library — not part of its API.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sql/operators.h"
#include "storage/row_codec.h"
#include "storage/spill.h"

namespace minerule::sql {

/// Overwrites *out with `a` followed by `b` (a joined row). Element-wise
/// assignment into the caller's row reuses its storage, string buffers
/// included, instead of building a fresh row per joined pair.
inline void ConcatInto(const Row& a, const Row& b, Row* out) {
  out->resize(a.size() + b.size());
  std::copy(a.begin(), a.end(), out->begin());
  std::copy(b.begin(), b.end(),
            out->begin() + static_cast<std::ptrdiff_t>(a.size()));
}

/// External-merge-sort state: one spill file holding sorted runs, plus the
/// open run readers of the final merge.
struct SortNode::External {
  std::unique_ptr<storage::SpillFile> file;
  std::vector<storage::SpillRun> runs;  // sorted runs, in input-chunk order

  /// One open run in a merge: the current record decoded just far enough to
  /// compare (its key); the row payload stays encoded until emitted.
  struct Source {
    storage::SpillFile::Reader reader;
    std::string record;
    Row key;
    size_t row_pos = 0;  // offset of the encoded row inside `record`
    bool done = true;
  };
  std::vector<Source> sources;  // final merge inputs, in run order

  static Status Advance(Source* source) {
    MR_ASSIGN_OR_RETURN(bool more, source->reader.Next(&source->record));
    if (!more) {
      source->done = true;
      return Status::OK();
    }
    size_t pos = 0;
    MR_RETURN_IF_ERROR(storage::DecodeRow(source->record.data(),
                                          source->record.size(), &pos,
                                          &source->key));
    source->row_pos = pos;
    source->done = false;
    return Status::OK();
  }
};

/// Group state of HashAggregateNode: encoded key -> dense group id, with the
/// first-seen key values and the accumulators indexed by that id, so groups
/// come out in first-seen order. Serves the serial pass, the per-morsel
/// local tables of the parallel pass and the budgeted path's partitions.
struct HashAggregateNode::GroupTable {
  KeyTable index;
  std::vector<Row> keys;
  std::vector<std::vector<AggAccumulator>> states;
  std::string scratch;  // encoding buffer of AddGroup
};

/// Grace-hash-join state: the partitioned build/probe scatter files, the
/// shared output file its leaves append to, and the open run readers of the
/// final probe-order merge.
struct HashJoinNode::Spill {
  std::unique_ptr<storage::SpillFile> build_file;  // [key][row] records
  std::unique_ptr<storage::SpillFile> probe_file;  // [index][key][row] records
  std::unique_ptr<storage::SpillFile> output;      // [index][joined] records
  std::vector<storage::SpillRun> output_runs;

  /// One open output run in a merge, positioned on its next record with the
  /// leading probe index decoded for comparison.
  struct Source {
    storage::SpillFile::Reader reader;
    std::string record;
    uint64_t index = 0;
    size_t row_pos = 0;  // offset of the encoded joined row inside `record`
    bool done = true;
  };
  std::vector<Source> sources;

  static Status Advance(Source* source) {
    MR_ASSIGN_OR_RETURN(bool more, source->reader.Next(&source->record));
    if (!more) {
      source->done = true;
      return Status::OK();
    }
    size_t pos = 0;
    MR_RETURN_IF_ERROR(storage::DecodeU64(source->record.data(),
                                          source->record.size(), &pos,
                                          &source->index));
    source->row_pos = pos;
    source->done = false;
    return Status::OK();
  }
};

}  // namespace minerule::sql

#endif  // MINERULE_SQL_OPERATORS_SPILL_STATE_H_
