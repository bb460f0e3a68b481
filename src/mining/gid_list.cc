#include "mining/gid_list.h"

#include <algorithm>
#include <bit>

namespace minerule::mining {

namespace {

/// Branchless sorted-merge intersection: writes a ∩ b to `out` (room for
/// min(na, nb) values) and returns its size. Every step stores the smaller
/// head and advances past it; the store is kept only when both heads match.
template <typename T>
size_t MergeIntersect(const T* a, size_t na, const T* b, size_t nb, T* out) {
  size_t i = 0, j = 0, n = 0;
  while (i < na && j < nb) {
    const T x = a[i];
    const T y = b[j];
    out[n] = x;
    n += x == y;
    i += x <= y;
    j += y <= x;
  }
  return n;
}

}  // namespace

GidList IntersectGidLists(const GidList& a, const GidList& b) {
  GidList out(std::min(a.size(), b.size()));
  out.resize(MergeIntersect(a.data(), a.size(), b.data(), b.size(),
                            out.data()));
  return out;
}

void GidSetArena::Clear() {
  slots_.clear();
  words_.clear();
  positions_.clear();
}

void GidSetArena::Append(std::span<const TxPos> positions) {
  if (UseBitmap(positions.size(), universe_)) {
    const size_t offset = words_.size();
    words_.resize(offset + num_words_, 0);
    uint64_t* bits = words_.data() + offset;
    for (TxPos p : positions) bits[p >> 6] |= uint64_t{1} << (p & 63);
    slots_.push_back(
        {offset, static_cast<uint32_t>(positions.size()), true});
    return;
  }
  const size_t offset = positions_.size();
  positions_.insert(positions_.end(), positions.begin(), positions.end());
  slots_.push_back({offset, static_cast<uint32_t>(positions.size()), false});
}

int64_t GidSetArena::AppendIntersection(const GidSetArena& a, size_t i,
                                        const GidSetArena& b, size_t j,
                                        int64_t min_count) {
  const Slot& x = a.slots_[i];
  const Slot& y = b.slots_[j];
  if (x.bitmap && y.bitmap) {
    // Count first: about half the candidates fail and store nothing.
    const uint64_t* xs = a.words_.data() + x.offset;
    const uint64_t* ys = b.words_.data() + y.offset;
    size_t count = 0;
    for (size_t w = 0; w < num_words_; ++w) {
      count += std::popcount(xs[w] & ys[w]);
    }
    if (static_cast<int64_t>(count) < min_count) {
      return static_cast<int64_t>(count);
    }
    if (UseBitmap(count, universe_)) {
      const size_t offset = words_.size();
      words_.resize(offset + num_words_);
      uint64_t* out = words_.data() + offset;
      for (size_t w = 0; w < num_words_; ++w) out[w] = xs[w] & ys[w];
      slots_.push_back({offset, static_cast<uint32_t>(count), true});
    } else {
      const size_t offset = positions_.size();
      positions_.resize(offset + count);
      TxPos* out = positions_.data() + offset;
      for (size_t w = 0; w < num_words_; ++w) {
        for (uint64_t bits = xs[w] & ys[w]; bits != 0; bits &= bits - 1) {
          *out++ = static_cast<TxPos>(w * 64 + std::countr_zero(bits));
        }
      }
      slots_.push_back({offset, static_cast<uint32_t>(count), false});
    }
    return static_cast<int64_t>(count);
  }

  // At least one side is a list, so the result is no longer than the
  // shorter list and, by the representation rule, a list too.
  const bool list_first =
      !x.bitmap && (y.bitmap || x.count <= y.count);
  const Slot& shorter = list_first ? x : y;
  const Slot& other = list_first ? y : x;
  const TxPos* list = (list_first ? a : b).positions_.data() + shorter.offset;
  const GidSetArena& other_arena = list_first ? b : a;
  const size_t offset = positions_.size();
  size_t count;
  if (other.bitmap) {
    // Count first, as above; only a kept result is written.
    const uint64_t* bits = other_arena.words_.data() + other.offset;
    auto member = [bits](TxPos p) -> size_t {
      return (bits[p >> 6] >> (p & 63)) & 1;
    };
    count = 0;
    for (size_t m = 0; m < shorter.count; ++m) count += member(list[m]);
    if (static_cast<int64_t>(count) < min_count) {
      return static_cast<int64_t>(count);
    }
    positions_.resize(offset + count + 1);  // room for a last dropped store
    TxPos* out = positions_.data() + offset;
    size_t n = 0;
    for (size_t m = 0; m < shorter.count; ++m) {
      out[n] = list[m];
      n += member(list[m]);
    }
  } else {
    // The merge is written in place at the end of positions_ and dropped
    // again if it is too small.
    positions_.resize(offset + shorter.count);
    count = MergeIntersect(list, shorter.count,
                           other_arena.positions_.data() + other.offset,
                           other.count, positions_.data() + offset);
    if (static_cast<int64_t>(count) < min_count) {
      positions_.resize(offset);
      return static_cast<int64_t>(count);
    }
  }
  positions_.resize(offset + count);
  slots_.push_back({offset, static_cast<uint32_t>(count), false});
  return static_cast<int64_t>(count);
}

std::vector<TxPos> GidSetArena::Positions(size_t i) const {
  const Slot& slot = slots_[i];
  if (!slot.bitmap) {
    const TxPos* list = positions_.data() + slot.offset;
    return std::vector<TxPos>(list, list + slot.count);
  }
  std::vector<TxPos> out;
  out.reserve(slot.count);
  const uint64_t* bits = words_.data() + slot.offset;
  for (size_t w = 0; w < num_words_; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      out.push_back(static_cast<TxPos>(w * 64 + std::countr_zero(word)));
    }
  }
  return out;
}

}  // namespace minerule::mining
