#ifndef TDP_STORAGE_COLUMN_H_
#define TDP_STORAGE_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/tensor/tensor.h"

namespace tdp {

/// Physical encoding of a column's tensor, per §2 of the paper ("Data
/// Encoding"): TDP does not store raw tensors but *encoded tensors* —
/// tensors plus metadata describing how values are represented. Operators
/// inspect the encoding to pick execution strategies.
enum class Encoding {
  /// Values stored directly. The tensor may be 1-d (scalar column) or
  /// higher-rank (each row is a vector/image/...).
  kPlain = 0,
  /// Order-preserving dictionary: the column stores int64 codes; the
  /// dictionary is sorted so code order equals lexicographic string order
  /// (range predicates run directly on codes).
  kDictionary,
  /// Probability Encoding (PE): each row is a distribution over a class
  /// domain ([n, k] float tensor + k domain values). Produced by ML
  /// classifiers inside TVFs; consumed by soft relational operators.
  kProbability,
};

std::string_view EncodingName(Encoding encoding);

/// One encoded column of a TDP table. Cheap to copy (tensor handles).
class Column {
 public:
  Column() = default;

  /// Plain column over any numeric/bool tensor; rank >= 1; dim 0 is rows.
  static Column Plain(Tensor data);

  /// Dictionary column from pre-built codes + sorted dictionary.
  static Column Dictionary(Tensor codes, std::vector<std::string> dictionary);

  /// Builds an order-preserving dictionary column from raw strings.
  static Column FromStrings(const std::vector<std::string>& values,
                            Device device = Device::kCpu);

  /// PE column: `probs` is [n, k] float32, `domain` the k class values.
  static Column Probability(Tensor probs, std::vector<double> domain);

  bool defined() const { return data_.defined(); }
  Encoding encoding() const { return encoding_; }
  const Tensor& data() const { return data_; }
  /// Number of rows (size of dim 0; rank-0 is disallowed).
  int64_t length() const { return data_.size(0); }
  /// True when each row is itself a tensor (rank >= 2 plain column).
  bool IsTensorColumn() const {
    return encoding_ == Encoding::kPlain && data_.dim() >= 2;
  }

  const std::vector<std::string>& dictionary() const {
    return dictionary_ ? *dictionary_ : EmptyDictionary();
  }
  const std::vector<double>& domain() const {
    return domain_ ? *domain_ : EmptyDomain();
  }

  /// Looks up the code for `value`; -1 if absent. O(log n).
  int64_t DictionaryCode(const std::string& value) const;

  /// First code whose string is >= `value` (may be dictionary size). With
  /// order-preserving encoding this turns string range predicates into
  /// integer comparisons on codes.
  int64_t LowerBoundCode(const std::string& value) const;
  /// First code whose string is > `value`.
  int64_t UpperBoundCode(const std::string& value) const;

  // ---- Decode APIs (paper: "encode/decode APIs to move back and forth") --

  /// Dictionary column -> row strings.
  std::vector<std::string> DecodeStrings() const;

  /// PE column -> hard values: domain[argmax(probs)] as float32 [n].
  /// Plain columns decode to themselves.
  Tensor DecodeValues() const;

  /// Moves the backing tensor to `device`; dictionary metadata is shared.
  Column To(Device device) const;

  /// Rows at `indices` (int64 1-d), preserving encoding + metadata.
  Column Select(const Tensor& indices) const;

  /// Zero-copy view of rows [start, start+count): the backing tensor is
  /// sliced along dim 0 (no allocation), dictionary/domain metadata is
  /// shared. The morsel source for streaming pipelines — a scan hands out
  /// bounded row-range views instead of copying the relation.
  Column SliceRows(int64_t start, int64_t count) const;

  /// Row-wise concatenation. All parts must share encoding, dtype, and
  /// (for PE columns) the same domain. Dictionary parts that share one
  /// dictionary object — morsel outputs of one evaluation — concatenate
  /// their codes; parts with different dictionaries (segments appended by
  /// DML each encode against their own) get the sorted union of the
  /// strings their rows use, each part's codes remapped through a
  /// per-part table: one integer lookup per row, no string work per row.
  static Column Concat(const std::vector<Column>& parts);

  std::string ToString() const;

 private:
  /// Concat's path for dictionary parts that do not share a dictionary.
  static Column ConcatDictionaries(const std::vector<Column>& parts);
  static const std::vector<std::string>& EmptyDictionary();
  static const std::vector<double>& EmptyDomain();

  Encoding encoding_ = Encoding::kPlain;
  Tensor data_;
  // Dictionary/domain metadata is immutable once built and shared across
  // every view of the column (copies, `SliceRows` morsels, `Select`
  // results), so slicing a dictionary column never copies its strings.
  std::shared_ptr<const std::vector<std::string>> dictionary_;  // kDictionary
  std::shared_ptr<const std::vector<double>> domain_;  // kProbability
};

}  // namespace tdp

#endif  // TDP_STORAGE_COLUMN_H_
