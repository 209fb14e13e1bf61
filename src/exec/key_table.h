#ifndef TDP_EXEC_KEY_TABLE_H_
#define TDP_EXEC_KEY_TABLE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"

namespace tdp {
namespace exec {

// Keys for GROUP BY, DISTINCT, COUNT(DISTINCT), hash joins, ORDER BY and
// top-k.
//
// A key is a fixed number of int64 codes, one per key column, and every
// kernel that groups or matches keys does it through one container: the
// open-addressing `KeyTable` below. (GROUP BY keys whose codes span no
// more values than there are rows skip it, and group by their slot in
// that range; see `FinalizeAggregate`.) Every kernel that orders rows
// does it through one comparator: `SortRows` below. Codes are ROW-LOCAL
// — a row's code depends on that row's value alone, never on the rest of
// its column — so codes computed per morsel or per aggregation page agree
// with codes computed over the whole relation. That is what lets the
// in-memory and the paged aggregate share one notion of key identity and
// key order, and stay byte-identical to each other.

// ---- Order codes ------------------------------------------------------------
//
// Each value maps to an int64 whose signed order and equality match the
// engine's value semantics exactly:
//   * integer-kind values (int64/int32/uint8/bool, dictionary codes) map
//     to themselves;
//   * float-kind values map through their double magnitude with the sign
//     folded in (-0 normalized to +0, every NaN to one canonical code that
//     sorts above +inf): -0 == +0, and all NaNs form one group that sorts
//     last.

/// Canonical NaN code: above every finite/inf code (NaN sorts last
/// ascending); `CompareKeyCodes` pins NaN last under descending too.
constexpr int64_t kNanOrderCode = 0x7ff8000000000000LL;

inline int64_t DoubleOrderCode(double d) {
  if (std::isnan(d)) return kNanOrderCode;
  if (d == 0.0) return 0;  // -0 and +0 share a code
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  const int64_t magnitude = static_cast<int64_t>(bits & 0x7fffffffffffffffULL);
  return (bits >> 63) != 0 ? -magnitude : magnitude;
}

/// Per-row order codes for one column (see above). `is_float`, when
/// given, reports whether the NaN-last rule applies to this key.
StatusOr<std::vector<int64_t>> OrderPreservingCodes(const Column& column,
                                                    bool* is_float = nullptr);

// ---- Sort keys --------------------------------------------------------------
//
// ORDER BY and both top-k paths rank rows the same way: by the keys in
// order, then by row index. The row index makes the order total, so every
// sorting algorithm yields the permutation a stable sort would, and a
// LIMIT is a partial sort of its first rows.

/// Three-way comparison of two codes of one sort key: <0, 0, >0. NaN
/// orders last under BOTH directions.
inline int CompareKeyCodes(int64_t a, int64_t b, bool descending,
                           bool is_float) {
  if (a == b) return 0;
  if (is_float) {
    const bool a_nan = a == kNanOrderCode;
    const bool b_nan = b == kNanOrderCode;
    if (a_nan != b_nan) return a_nan ? 1 : -1;
  }
  if (descending) return a < b ? 1 : -1;
  return a < b ? -1 : 1;
}

/// One sort key: the order code of each row, the direction, and whether
/// the NaN-last rule applies (a float key).
struct SortKey {
  std::vector<int64_t> codes;
  bool descending = false;
  bool is_float = false;
};

/// The keys of one sort, most significant first.
using SortKeys = std::vector<SortKey>;

/// The sort key over `column`. A tensor-valued column is a TypeError.
StatusOr<SortKey> MakeSortKey(const Column& column, bool descending);

/// True when row `a` sorts before row `b`: by the keys, then by row index.
inline bool SortsBefore(const SortKeys& keys, int64_t a, int64_t b) {
  for (const SortKey& key : keys) {
    const int c = CompareKeyCodes(key.codes[static_cast<size_t>(a)],
                                  key.codes[static_cast<size_t>(b)],
                                  key.descending, key.is_float);
    if (c != 0) return c < 0;
  }
  return a < b;
}

/// Rows 0 .. `n - 1` in sort order, cut to the first `limit` of them (all
/// of them when `limit` is negative).
std::vector<int64_t> SortRows(const SortKeys& keys, int64_t n, int64_t limit);

// ---- Join codes -------------------------------------------------------------

/// Per-row equi-join codes for one side of a join, one code column per key
/// column. The two sides are encoded independently, so codes must compare
/// by value across them: strings hash their decoded bytes (FNV-1a 64 —
/// the sides' dictionaries differ; collisions are astronomically unlikely
/// and accepted), numerics are their double bit patterns with -0 folded
/// into +0, so an int64 key matches an equal float key. A row whose key
/// holds a NaN is flagged in `never_match`: NaN equals nothing, NaN
/// included, exactly as the engine's `=` evaluates it.
struct JoinKeyCodes {
  std::vector<std::vector<int64_t>> columns;
  std::vector<uint8_t> never_match;  // one flag per row
};

StatusOr<JoinKeyCodes> ComputeJoinKeyCodes(const Chunk& chunk,
                                           const std::vector<int64_t>& cols);

// ---- The key table ----------------------------------------------------------

/// Column-major view of a set of key rows: code `k` of row `r` is
/// `cols[k][r]`. Aggregation pages, per-column code vectors and (group,
/// value) pairs all present their keys this way without copying them.
using KeyColumns = std::vector<const int64_t*>;

/// The view of `codes` (one vector per key column).
KeyColumns ColumnsOf(const std::vector<std::vector<int64_t>>& codes);

/// Open-addressing hash table over fixed-width int64 keys, assigning each
/// distinct key a dense id in first-occurrence order (0, 1, 2, ...).
///
/// Keys live flat in id order (`width` codes per id); the slot array holds
/// (hash, id) pairs under linear probing, kept at most half full and
/// doubled on demand, so memory follows the number of DISTINCT keys, not
/// the number of rows inserted. The hash is a full-avalanche mix of every
/// code: join codes are double bit patterns, whose low bits are all zero
/// for small integers, and the slot index is taken from the low bits.
///
/// `Find` never modifies the table: a finished table may be probed from
/// many threads at once without a lock (the cached join build side is).
class KeyTable {
 public:
  /// A table of keys `width` codes wide. Width 0 is allowed: every row
  /// then has the same, empty, key.
  explicit KeyTable(int64_t width);

  /// Number of distinct keys; ids run 0 .. size()-1.
  int64_t size() const { return size_; }

  /// Id of the key in row `row` of `cols` (which has `width` columns).
  /// A key not yet in the table gets the next id, size(); `inserted`,
  /// when given, reports whether that happened.
  int64_t Insert(const KeyColumns& cols, int64_t row,
                 bool* inserted = nullptr);

  /// Id of the key in row `row` of `cols`, or -1 if it is not present.
  int64_t Find(const KeyColumns& cols, int64_t row) const;

  /// Code `k` of key `id`.
  int64_t code(int64_t id, int64_t k) const {
    return keys_[static_cast<size_t>(id * width_ + k)];
  }

  /// `rank[id]` is the position of key `id` among all keys sorted
  /// ascending, lexicographically by signed code. Sorts the distinct keys
  /// only; with order-preserving codes this is value order.
  std::vector<int64_t> SortedRanks() const;

  /// The table's hash of row `row`'s key; slots are indexed by its low
  /// bits.
  static uint64_t Hash(const KeyColumns& cols, int64_t row);

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t id = -1;  // -1: empty
  };

  bool SameKey(int64_t id, const KeyColumns& cols, int64_t row) const;
  void Grow();

  int64_t width_;
  int64_t size_ = 0;
  std::vector<int64_t> keys_;  // width_ codes per id, in id order
  std::vector<Slot> slots_;    // power-of-two size, at most half full
};

/// The build side of an equi-join, indexed for probing: the distinct build
/// keys in a `KeyTable`, and for each key the build rows holding it in
/// ascending order — one flat row array cut by per-key offsets, not a
/// container per key. Probes therefore emit a probe row's matches in
/// ascending build-row order, the join's emission contract.
class JoinIndex {
 public:
  explicit JoinIndex(int64_t width = 0) : keys_(width) {}

  /// Adds build row `row`, whose key is row `row` of `cols`. Rows must be
  /// added in ascending order.
  void Add(const KeyColumns& cols, int64_t row);

  /// Groups the added rows by key. Call once, after the last `Add`.
  void Finish();

  /// The build rows whose key equals row `row` of `cols`, ascending;
  /// empty when none. Read-only, so concurrent probes need no lock.
  std::span<const int64_t> Matches(const KeyColumns& cols,
                                   int64_t row) const;

  int64_t num_keys() const { return keys_.size(); }

 private:
  KeyTable keys_;
  std::vector<int64_t> row_ids_;  // key id per added row; freed by Finish
  std::vector<int64_t> offsets_;  // num_keys() + 1 once finished
  std::vector<int64_t> rows_;     // added build rows, grouped by key id
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_KEY_TABLE_H_
