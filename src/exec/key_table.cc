#include "src/exec/key_table.h"

#include <array>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/thread_pool.h"

namespace tdp {
namespace exec {
namespace {

StatusOr<std::vector<int64_t>> TensorOrderCodes(const Tensor& values,
                                                bool* is_float) {
  if (values.dim() != 1) {
    return Status::TypeError(
        "tensor-valued columns cannot be grouping/join keys");
  }
  const bool floating =
      values.dtype() == DType::kFloat32 || values.dtype() == DType::kFloat64;
  if (is_float != nullptr) *is_float = floating;
  if (values.dtype() == DType::kInt64) return values.ToVector<int64_t>();
  if (!floating) return values.To(DType::kInt64).ToVector<int64_t>();
  const std::vector<double> d = values.To(DType::kFloat64).ToVector<double>();
  std::vector<int64_t> codes(d.size());
  for (size_t i = 0; i < d.size(); ++i) codes[i] = DoubleOrderCode(d[i]);
  return codes;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

// murmur3's 64-bit finalizer: every input bit flips each output bit with
// probability ~1/2, so keys differing only in high bits spread over the
// low bits the slot index is taken from.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

constexpr size_t kInitialSlots = 16;

}  // namespace

StatusOr<std::vector<int64_t>> OrderPreservingCodes(const Column& column,
                                                    bool* is_float) {
  if (column.encoding() == Encoding::kDictionary) {
    if (is_float != nullptr) *is_float = false;
    return column.data().ToVector<int64_t>();
  }
  return TensorOrderCodes(column.DecodeValues(), is_float);
}

StatusOr<JoinKeyCodes> ComputeJoinKeyCodes(const Chunk& chunk,
                                           const std::vector<int64_t>& cols) {
  const int64_t rows = chunk.num_rows();
  JoinKeyCodes out;
  out.columns.reserve(cols.size());
  out.never_match.assign(static_cast<size_t>(rows), 0);
  for (int64_t col : cols) {
    const Column& c = chunk.columns[static_cast<size_t>(col)];
    std::vector<int64_t> codes(static_cast<size_t>(rows));
    if (c.encoding() == Encoding::kDictionary) {
      // Hash each dictionary string once; rows then look their hash up.
      const std::vector<std::string>& dict = c.dictionary();
      std::vector<int64_t> dict_hash(dict.size());
      for (size_t i = 0; i < dict.size(); ++i) {
        dict_hash[i] = static_cast<int64_t>(Fnv1a(dict[i]));
      }
      const std::vector<int64_t> dict_codes = c.data().ToVector<int64_t>();
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t code = dict_codes[static_cast<size_t>(r)];
        if (code < 0 || code >= static_cast<int64_t>(dict.size())) {
          return Status::Internal("dictionary code out of range");
        }
        codes[static_cast<size_t>(r)] = dict_hash[static_cast<size_t>(code)];
      }
    } else {
      const Tensor vals = c.DecodeValues();
      if (vals.dim() != 1) {
        return Status::TypeError("join key must be a scalar column");
      }
      const std::vector<double> d = vals.To(DType::kFloat64).ToVector<double>();
      uint8_t* never_match = out.never_match.data();
      ParallelFor(0, rows, GrainForCost(2), [&](int64_t begin, int64_t end) {
        for (int64_t r = begin; r < end; ++r) {
          const double v = d[static_cast<size_t>(r)];
          if (std::isnan(v)) never_match[r] = 1;
          const double normalized = v == 0.0 ? 0.0 : v;  // -0 -> +0
          int64_t bits;
          static_assert(sizeof(bits) == sizeof(normalized));
          std::memcpy(&bits, &normalized, sizeof(bits));
          codes[static_cast<size_t>(r)] = bits;
        }
      });
    }
    out.columns.push_back(std::move(codes));
  }
  return out;
}

KeyColumns ColumnsOf(const std::vector<std::vector<int64_t>>& codes) {
  KeyColumns cols;
  cols.reserve(codes.size());
  for (const std::vector<int64_t>& c : codes) cols.push_back(c.data());
  return cols;
}

// ---- KeyTable ---------------------------------------------------------------

KeyTable::KeyTable(int64_t width) : width_(width), slots_(kInitialSlots) {}

uint64_t KeyTable::Hash(const KeyColumns& cols, int64_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const int64_t* c : cols) h = Mix64(h ^ static_cast<uint64_t>(c[row]));
  return h;
}

bool KeyTable::SameKey(int64_t id, const KeyColumns& cols,
                       int64_t row) const {
  // A one-code key's hash is a bijection of the code (an xor with a
  // constant, then Mix64, both invertible), so equal hashes already mean
  // equal keys and the probe never touches `keys_`.
  if (width_ == 1) return true;
  const int64_t* key = keys_.data() + id * width_;
  for (int64_t k = 0; k < width_; ++k) {
    if (key[k] != cols[static_cast<size_t>(k)][row]) return false;
  }
  return true;
}

int64_t KeyTable::Insert(const KeyColumns& cols, int64_t row,
                         bool* inserted) {
  const uint64_t h = Hash(cols, row);
  const size_t mask = slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id < 0) {
      const int64_t id = size_++;
      for (const int64_t* c : cols) keys_.push_back(c[row]);
      slot.hash = h;
      slot.id = id;
      if (2 * static_cast<size_t>(size_) > slots_.size()) Grow();
      if (inserted != nullptr) *inserted = true;
      return id;
    }
    if (slot.hash == h && SameKey(slot.id, cols, row)) {
      if (inserted != nullptr) *inserted = false;
      return slot.id;
    }
  }
}

int64_t KeyTable::Find(const KeyColumns& cols, int64_t row) const {
  const uint64_t h = Hash(cols, row);
  const size_t mask = slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id < 0) return -1;
    if (slot.hash == h && SameKey(slot.id, cols, row)) return slot.id;
  }
}

void KeyTable::Grow() {
  std::vector<Slot> grown(slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (const Slot& slot : slots_) {
    if (slot.id < 0) continue;
    size_t i = slot.hash & mask;
    while (grown[i].id >= 0) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_ = std::move(grown);
}

std::vector<int64_t> KeyTable::SortedRanks() const {
  // LSD radix sort of the ids by key: the last code column first, each
  // column a byte at a time from the low end, every pass a stable
  // counting sort. Flipping the sign bit makes unsigned byte order signed
  // code order. A byte on which all keys agree needs no pass, so small
  // integer codes sort in one or two passes.
  struct Entry {
    uint64_t code;
    int64_t id;
  };
  const size_t n = static_cast<size_t>(size_);
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), int64_t{0});
  std::vector<Entry> cur(n), next(n);
  for (int64_t k = width_ - 1; k >= 0 && n > 0; --k) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t id = order[i];
      cur[i] = {static_cast<uint64_t>(code(id, k)) ^ (uint64_t{1} << 63), id};
    }
    // A byte's histogram does not depend on the order, so all eight are
    // counted in one pass.
    std::array<std::array<size_t, 256>, 8> counts{};
    for (const Entry& e : cur) {
      for (int b = 0; b < 8; ++b) ++counts[b][(e.code >> (8 * b)) & 0xff];
    }
    for (int b = 0; b < 8; ++b) {
      std::array<size_t, 256>& count = counts[b];
      if (count[(cur[0].code >> (8 * b)) & 0xff] == n) continue;
      size_t pos = 0;
      for (size_t& c : count) pos += std::exchange(c, pos);
      for (const Entry& e : cur) next[count[(e.code >> (8 * b)) & 0xff]++] = e;
      cur.swap(next);
    }
    for (size_t i = 0; i < n; ++i) order[i] = cur[i].id;
  }
  std::vector<int64_t> rank(n);
  for (size_t i = 0; i < n; ++i) {
    rank[static_cast<size_t>(order[i])] = static_cast<int64_t>(i);
  }
  return rank;
}

// ---- JoinIndex --------------------------------------------------------------

void JoinIndex::Add(const KeyColumns& cols, int64_t row, int64_t build_row) {
  row_ids_.push_back(keys_.Insert(cols, row));
  rows_.push_back(build_row);
}

void JoinIndex::Finish() {
  // Counting sort of the added rows by key id. It is stable, so each key's
  // rows keep their (ascending) insertion order.
  offsets_.assign(static_cast<size_t>(keys_.size()) + 1, 0);
  for (int64_t id : row_ids_) ++offsets_[static_cast<size_t>(id) + 1];
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  std::vector<int64_t> next(offsets_.begin(), offsets_.end() - 1);
  std::vector<int64_t> grouped(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    grouped[static_cast<size_t>(next[static_cast<size_t>(row_ids_[i])]++)] =
        rows_[i];
  }
  rows_ = std::move(grouped);
  row_ids_ = {};
}

std::span<const int64_t> JoinIndex::Matches(const KeyColumns& cols,
                                            int64_t row) const {
  const int64_t id = keys_.Find(cols, row);
  if (id < 0) return {};
  const int64_t begin = offsets_[static_cast<size_t>(id)];
  const int64_t end = offsets_[static_cast<size_t>(id) + 1];
  return {rows_.data() + begin, static_cast<size_t>(end - begin)};
}

}  // namespace exec
}  // namespace tdp
