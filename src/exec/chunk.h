#ifndef TDP_EXEC_CHUNK_H_
#define TDP_EXEC_CHUNK_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/storage/table.h"

namespace tdp {
namespace exec {

/// Intermediate result flowing between physical operators: a set of named
/// encoded-tensor columns of equal length. Under the morsel-driven
/// streaming executor a chunk is one bounded morsel (a zero-copy row-range
/// view of the source, target ~64K rows); in a soft (trainable) run, and
/// at breakers, it is the full relation.
struct Chunk {
  std::vector<std::string> names;
  std::vector<Column> columns;

  int64_t num_rows() const {
    return columns.empty() ? 0 : columns[0].length();
  }
  int64_t num_columns() const {
    return static_cast<int64_t>(columns.size());
  }

  /// Case-insensitive lookup; -1 if absent.
  int64_t FindColumn(const std::string& name) const;

  /// Builds a chunk over all columns of `table`.
  static Chunk FromTable(const Table& table);

  /// Converts to an immutable table named `name`.
  StatusOr<std::shared_ptr<Table>> ToTable(const std::string& name) const;

  /// Applies a row selection (int64 indices) to every column.
  Chunk Select(const Tensor& indices) const;

  /// Zero-copy morsel view of rows [start, start+count) of every column.
  Chunk SliceRows(int64_t start, int64_t count) const;

  /// Row-wise concatenation of morsel outputs (schema taken from the first
  /// part; all parts must agree — true for outputs of one pipeline).
  static Chunk Concat(const std::vector<Chunk>& parts);
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_CHUNK_H_
