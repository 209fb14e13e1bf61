#ifndef TDP_TENSOR_OPS_INTERNAL_H_
#define TDP_TENSOR_OPS_INTERNAL_H_

#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace internal_ops {

/// Strides of `t` viewed at broadcast `out_shape`: right-aligned, with 0
/// stride where the input dimension is 1 (or missing).
inline std::vector<int64_t> BroadcastStrides(
    const std::vector<int64_t>& shape, const std::vector<int64_t>& strides,
    const std::vector<int64_t>& out_shape) {
  const size_t out_rank = out_shape.size();
  const size_t rank = shape.size();
  std::vector<int64_t> out(out_rank, 0);
  for (size_t i = 0; i < rank; ++i) {
    const size_t o = out_rank - rank + i;
    if (shape[i] == 1 && out_shape[o] != 1) {
      out[o] = 0;
    } else {
      out[o] = strides[i];
    }
  }
  return out;
}

/// Odometer over an index space that tracks element offsets into several
/// strided operands at once. Usage:
///   OffsetIterator it(shape, {strides_a, strides_b});
///   for (int64_t i = 0; i < n; ++i, it.Next()) {
///     ... it.offset(0), it.offset(1) ...
///   }
class OffsetIterator {
 public:
  OffsetIterator(const std::vector<int64_t>& shape,
                 std::vector<std::vector<int64_t>> strides)
      : shape_(shape),
        strides_(std::move(strides)),
        index_(shape.size(), 0),
        offsets_(strides_.size(), 0) {}

  int64_t offset(size_t operand) const { return offsets_[operand]; }

  /// Positions the iterator at linear index `flat` of the index space, as
  /// if Next() had been called `flat` times. Lets parallel kernels hand
  /// each shard its own iterator seeked to the shard's first element.
  void Seek(int64_t flat) {
    for (int64_t d = static_cast<int64_t>(shape_.size()) - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      index_[ud] = shape_[ud] > 0 ? flat % shape_[ud] : 0;
      flat = shape_[ud] > 0 ? flat / shape_[ud] : flat;
    }
    for (size_t k = 0; k < strides_.size(); ++k) {
      int64_t off = 0;
      for (size_t d = 0; d < shape_.size(); ++d) {
        off += index_[d] * strides_[k][d];
      }
      offsets_[k] = off;
    }
  }

  void Next() {
    for (int64_t d = static_cast<int64_t>(shape_.size()) - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      ++index_[ud];
      for (size_t k = 0; k < strides_.size(); ++k) {
        offsets_[k] += strides_[k][ud];
      }
      if (index_[ud] < shape_[ud]) return;
      for (size_t k = 0; k < strides_.size(); ++k) {
        offsets_[k] -= index_[ud] * strides_[k][ud];
      }
      index_[ud] = 0;
    }
  }

 private:
  const std::vector<int64_t>& shape_;
  std::vector<std::vector<int64_t>> strides_;
  std::vector<int64_t> index_;
  std::vector<int64_t> offsets_;
};

/// Walks the broadcast index space `out_shape` one row segment at a time:
/// an odometer over every dim but the innermost, sharded across the pool
/// in whole rows. Calls `segment(row, it)` once per row, where output
/// elements [row * row_length, (row + 1) * row_length) form the row and
/// `it.offset(k)` is operand k's element offset at the row's start. Along
/// the row, operand k advances by `strides[k].back()` (0 when broadcast),
/// so `segment` can run a tight loop over the innermost dim.
template <typename Segment>
void ForEachRowSegment(const std::vector<int64_t>& out_shape,
                       const std::vector<std::vector<int64_t>>& strides,
                       const Segment& segment) {
  const size_t outer_rank = out_shape.empty() ? 0 : out_shape.size() - 1;
  const int64_t row_length = out_shape.empty() ? 1 : out_shape.back();
  const std::vector<int64_t> outer_shape(out_shape.begin(),
                                         out_shape.begin() + outer_rank);
  std::vector<std::vector<int64_t>> outer_strides;
  for (const std::vector<int64_t>& s : strides) {
    outer_strides.emplace_back(s.begin(), s.begin() + outer_rank);
  }
  int64_t rows = 1;
  for (int64_t d : outer_shape) rows *= d;
  if (rows == 0 || row_length == 0) return;
  ParallelFor(0, rows, GrainForCost(row_length),
              [&](int64_t row_begin, int64_t row_end) {
                OffsetIterator it(outer_shape, outer_strides);
                it.Seek(row_begin);
                for (int64_t row = row_begin; row < row_end;
                     ++row, it.Next()) {
                  segment(row, it);
                }
              });
}

/// Checks all defined inputs share one device and returns it.
Device CommonDevice(const std::vector<Tensor>& inputs);

/// Normalizes a possibly-negative dim.
inline int64_t NormalizeDim(int64_t dim, int64_t rank) {
  if (dim < 0) dim += rank;
  TDP_CHECK(dim >= 0 && dim < rank)
      << "dim " << dim << " out of range for rank " << rank;
  return dim;
}

}  // namespace internal_ops
}  // namespace tdp

#endif  // TDP_TENSOR_OPS_INTERNAL_H_
