#include "sql/key_table.h"

#include <cmath>
#include <cstring>

namespace minerule::sql {

namespace {

// Tag bytes of the key encoding, one per equality class of value forms.
enum KeyTag : char {
  kTagNull = 0,
  kTagBoolean = 1,
  kTagInteger = 2,  // INTEGER, and integral DOUBLE in int64 range
  kTagDouble = 3,   // every other non-NaN DOUBLE, by its bits
  kTagNaN = 4,
  kTagString = 5,
  kTagDate = 6,
};

template <typename T>
void AppendRaw(T v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Initial slot count of a table on its first insert.
constexpr size_t kInitialSlots = 16;

}  // namespace

void EncodeKeyValue(const Value& value, std::string* out) {
  switch (value.type()) {
    case DataType::kNull:
      out->push_back(kTagNull);
      return;
    case DataType::kBoolean:
      out->push_back(kTagBoolean);
      out->push_back(value.AsBoolean() ? 1 : 0);
      return;
    case DataType::kInteger:
      out->push_back(kTagInteger);
      AppendRaw<int64_t>(value.AsInteger(), out);
      return;
    case DataType::kDouble: {
      const double d = value.AsDouble();
      if (std::isnan(d)) {
        out->push_back(kTagNaN);
        return;
      }
      // The same range test as Value::Hash: integral doubles in
      // [-2^63, 2^63) equal exactly one int64 (and -0.0 truncates to 0).
      if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
          std::trunc(d) == d) {
        out->push_back(kTagInteger);
        AppendRaw<int64_t>(static_cast<int64_t>(d), out);
        return;
      }
      out->push_back(kTagDouble);
      AppendRaw<double>(d, out);
      return;
    }
    case DataType::kString: {
      const std::string& s = value.AsString();
      out->push_back(kTagString);
      AppendRaw<uint32_t>(static_cast<uint32_t>(s.size()), out);
      out->append(s);
      return;
    }
    case DataType::kDate:
      out->push_back(kTagDate);
      AppendRaw<int32_t>(value.AsDate(), out);
      return;
  }
}

void EncodeKeyRow(const Row& row, std::string* out) {
  for (const Value& v : row) EncodeKeyValue(v, out);
}

uint64_t KeyTable::Hash(std::string_view key) {
  // Word-at-a-time multiply-xorshift over the bytes, finished with the
  // murmur3 64-bit finalizer so both the low bits (slot placement) and the
  // high bits (join partitions) are well mixed.
  const char* p = key.data();
  size_t n = key.size();
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(n);
  for (; n >= 8; p += 8, n -= 8) {
    h = (h ^ Load64(p)) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  if (n > 0) {
    uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = (h ^ tail) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

size_t KeyTable::Probe(std::string_view key, uint32_t tag) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == 0) return i;
    if (slot.tag == tag && this->key(slot.id - 1) == key) return i;
  }
}

std::pair<uint32_t, bool> KeyTable::Insert(std::string_view key,
                                           uint64_t hash) {
  if (slots_.empty()) slots_.resize(kInitialSlots);
  const uint32_t tag = static_cast<uint32_t>(hash);
  const size_t i = Probe(key, tag);
  if (slots_[i].id != 0) return {slots_[i].id - 1, false};
  const uint32_t id = static_cast<uint32_t>(ends_.size());
  arena_.insert(arena_.end(), key.begin(), key.end());
  ends_.push_back(arena_.size());
  slots_[i] = Slot{tag, id + 1};
  // Linear probing stays short up to a 3/4 load.
  if (ends_.size() * 4 > slots_.size() * 3) Grow();
  return {id, true};
}

uint32_t KeyTable::Find(std::string_view key, uint64_t hash) const {
  if (slots_.empty()) return kNotFound;
  const Slot& slot = slots_[Probe(key, static_cast<uint32_t>(hash))];
  return slot.id == 0 ? kNotFound : slot.id - 1;
}

void KeyTable::Grow() {
  // The tag holds the placement bits, so re-slotting never rehashes keys.
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{0, 0});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == 0) continue;
    size_t i = slot.tag & mask;
    while (slots_[i].id != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

size_t KeyTable::AllocatedBytes() const {
  return slots_.capacity() * sizeof(Slot) + arena_.capacity() +
         ends_.capacity() * sizeof(size_t);
}

void KeyBuckets::Add(std::string_view key, uint64_t hash, uint32_t row) {
  key_of_.push_back(keys_.Insert(key, hash).first);
  rows_.push_back(row);
}

void KeyBuckets::Seal() {
  // Counting sort on the key id; scanning in Add() order keeps each group
  // in Add() order.
  starts_.assign(keys_.size() + 1, 0);
  for (uint32_t k : key_of_) ++starts_[k + 1];
  for (size_t k = 1; k < starts_.size(); ++k) starts_[k] += starts_[k - 1];
  std::vector<uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  std::vector<uint32_t> grouped(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    grouped[cursor[key_of_[i]]++] = rows_[i];
  }
  rows_ = std::move(grouped);
  key_of_ = std::vector<uint32_t>();
}

std::pair<const uint32_t*, const uint32_t*> KeyBuckets::Find(
    std::string_view key, uint64_t hash) const {
  const uint32_t id = keys_.Find(key, hash);
  if (id == KeyTable::kNotFound) return {nullptr, nullptr};
  return {rows_.data() + starts_[id], rows_.data() + starts_[id + 1]};
}

}  // namespace minerule::sql
