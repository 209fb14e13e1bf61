#ifndef TDP_EXEC_SPILL_H_
#define TDP_EXEC_SPILL_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/storage/column.h"
#include "src/tensor/buffer.h"
#include "src/tensor/dtype.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {

/// Raw bytes of a CONTIGUOUS tensor's viewed elements (the typed
/// `Tensor::data<T>()` accessor has no byte-typed instantiation).
inline const uint8_t* TensorRawBytes(const Tensor& t) {
  return t.impl()->buffer->data() + t.offset() * DTypeSize(t.dtype());
}
inline uint8_t* TensorRawBytesMutable(Tensor& t) {
  return t.impl()->buffer->data() + t.offset() * DTypeSize(t.dtype());
}

// Binary spill-file serialization for the one breaker that spills: a hash
// join whose build side exceeds the run's memory budget writes the build
// payload once, as pages of columns, and each probe gathers its matched
// rows back. The format is exact: tensors round-trip their raw contiguous
// bytes (no float formatting, no re-encoding), dictionary strings and PE
// domains travel verbatim, so a value read back from disk is bit-identical
// to the value written. Files are private to one run (created via
// `QueryMemory::NewSpillFile`) and never outlive it — there is no
// versioning or cross-process contract.
//
// Columns are written with a leading byte length, so a reader can
// `SkipColumn` past a page it takes no row from without parsing it.

class SpillWriter {
 public:
  /// Opens `path` for writing (truncates).
  explicit SpillWriter(const std::string& path);

  Status WriteInt64(int64_t v);

  /// [byte length][encoding][tensor][dictionary | domain].
  Status WriteColumn(const Column& c);

  int64_t bytes_written() const { return bytes_written_; }

  /// Flushes and closes; returns the first write error, if any.
  Status Close();

 private:
  Status Write(const void* data, size_t size);
  Status CheckStream();

  std::string path_;
  std::ofstream out_;
  int64_t bytes_written_ = 0;
};

class SpillReader {
 public:
  explicit SpillReader(const std::string& path);

  StatusOr<int64_t> ReadInt64();
  StatusOr<Column> ReadColumn();
  /// Skips one serialized column without materializing it.
  Status SkipColumn();

 private:
  Status Read(void* data, size_t size);

  std::string path_;
  std::ifstream in_;
};

// ---- Paged chunk files ------------------------------------------------------

/// Rows per page of a paged chunk file.
constexpr int64_t kSpillPageRows = 4096;

/// Writes `chunk`'s rows to a fresh file at `path` in row order, in
/// `kSpillPageRows`-row pages, each page its columns' payloads in order
/// (encodings, dictionaries and domains are left to the reader's
/// prototype). Returns the bytes written.
StatusOr<int64_t> WritePages(const std::string& path, const Chunk& chunk);

/// Gathers rows of the paged file at `path` (written by `WritePages` from
/// a chunk shaped like `prototype`): output row i is file row `rows[i]`,
/// in `prototype`'s encodings. One ordered pass over the pages up to the
/// last one needed: a page no row is taken from is skipped unread, and a
/// row taken many times is copied to each of its positions.
StatusOr<std::vector<Column>> GatherPages(const std::string& path,
                                          const Chunk& prototype,
                                          const std::vector<int64_t>& rows);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_SPILL_H_
