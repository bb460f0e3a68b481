#include "sql/spill.h"

namespace minerule::sql {

uint64_t SpillHash(const Row& key, int depth) {
  // splitmix64 finalizer over the row hash, seeded by the depth. RowHash
  // hashes the values, not their KeyTable encoding, so the partition
  // assignment is independent of the slot placement inside the leaf
  // tables; the mixing round spreads RowHash's weak low bits.
  uint64_t h = static_cast<uint64_t>(RowHash{}(key)) +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth + 1);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

Status PartitionedSpillWriter::Add(size_t partition, std::string_view record) {
  Part& part = parts_[partition];
  part.pending.emplace_back(record);
  part.pending_bytes += record.size() + 4;  // + u32 length framing
  if (part.pending_bytes >= kChunkBytes) return FlushPartition(partition);
  return Status::OK();
}

Status PartitionedSpillWriter::FlushPartition(size_t partition) {
  Part& part = parts_[partition];
  if (part.pending.empty()) return Status::OK();
  for (const std::string& record : part.pending) {
    MR_RETURN_IF_ERROR(file_->Append(record));
  }
  MR_ASSIGN_OR_RETURN(storage::SpillRun run, file_->FinishRun());
  part.runs.push_back(run);
  part.records += run.records;
  part.bytes += run.bytes;
  part.pending.clear();
  part.pending_bytes = 0;
  return Status::OK();
}

Status PartitionedSpillWriter::Finish() {
  for (size_t p = 0; p < parts_.size(); ++p) {
    MR_RETURN_IF_ERROR(FlushPartition(p));
  }
  return Status::OK();
}

Result<bool> PartitionReader::Next(std::string* record) {
  while (true) {
    if (reader_open_) {
      MR_ASSIGN_OR_RETURN(bool more, reader_.Next(record));
      if (more) return true;
      reader_open_ = false;
    }
    if (next_run_ >= runs_->size()) return false;
    reader_ = file_->OpenRun((*runs_)[next_run_++]);
    reader_open_ = true;
  }
}

}  // namespace minerule::sql
