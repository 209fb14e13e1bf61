#ifndef TDP_STORAGE_TABLE_H_
#define TDP_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/storage/column.h"

namespace tdp {

/// One immutable run of rows: every column holds the same row count. A
/// table is a sequence of segments plus a deleted-row bitmap over their
/// concatenation; DML produces new tables that share all untouched
/// segments with their predecessor, so a write costs O(delta), not O(n).
struct TableSegment {
  std::vector<Column> columns;
  int64_t num_rows = 0;
};

/// Rows per segment that INSERT aims for before starting a fresh tail
/// segment. Small enough that appending clones only a bounded tail, large
/// enough that scans see long contiguous runs after flattening.
inline constexpr int64_t kSegmentTargetRows = 4096;

/// Immutable columnar table: named encoded-tensor columns of equal row
/// count. TDP's storage model (§2): scalar columns are 1-d tensors, while
/// unstructured columns (images, embeddings) are rank >= 2 tensors whose
/// dim 0 is the row dimension — structured and unstructured data share one
/// representation.
///
/// Physically a table is segment-backed (see TableSegment): `Create` makes
/// a single-segment table, and the `With*` helpers derive new tables that
/// share unchanged segments. Readers are oblivious: `column(i)` /
/// `num_rows()` serve the LIVE view — non-deleted rows in physical order —
/// flattened once and cached. `WithDeleted` builds it before returning
/// (the DELETE already touched every live row); other multi-segment
/// tables flatten lazily, the first time a reader asks, so INSERT stays
/// O(tail). A single-segment table with no deletes serves its segment
/// columns zero-copy.
///
/// Row-id vocabulary: a PHYSICAL row id indexes the concatenation of all
/// segments (stable across `WithAppended` / `WithDeleted`, which is what
/// lets vector indexes survive DML); a LIVE position indexes the flattened
/// view readers see. With no deletes the two coincide.
class Table {
 public:
  /// Validates equal column lengths and unique names.
  static StatusOr<std::shared_ptr<Table>> Create(
      std::string name, std::vector<std::string> column_names,
      std::vector<Column> columns);

  const std::string& name() const { return name_; }
  int64_t num_rows() const { return num_rows_; }
  int64_t num_columns() const {
    return static_cast<int64_t>(column_names_.size());
  }
  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  /// Column `i` of the live view (lazily flattened; see class comment).
  const Column& column(int64_t i) const;

  /// Case-insensitive column lookup.
  StatusOr<int64_t> ColumnIndex(const std::string& column_name) const;

  // ---- Incremental writes (DML) -----------------------------------------

  /// Appends `rows` (one column per table column, equal lengths > 0) as
  /// new physical rows. Shares every segment except the tail: a tail
  /// below kSegmentTargetRows is cloned-and-extended, a full tail is kept
  /// and the rows become a fresh segment. The delete bitmap is shared.
  StatusOr<std::shared_ptr<Table>> WithAppended(
      std::vector<Column> rows) const;

  /// Marks the given LIVE positions deleted. Shares every segment; only
  /// the bitmap is copied (no compaction — physical ids stay stable). The
  /// result's live view is built before it is returned.
  StatusOr<std::shared_ptr<Table>> WithDeleted(
      const std::vector<int64_t>& live_positions) const;

  /// Replaces, for each (column index, values) pair, the column's values
  /// at the given LIVE positions (values row j goes to live_positions[j]).
  /// Row order is preserved — an UPDATE never moves a row. The result is a
  /// compacted single-segment table (physical == live): untouched columns
  /// are shared from the flattened view, so the cost is O(n) only for the
  /// updated columns (plus one flatten, usually already cached).
  StatusOr<std::shared_ptr<Table>> WithUpdated(
      const std::vector<int64_t>& live_positions,
      const std::vector<std::pair<int64_t, Column>>& updates) const;

  // ---- Physical-row introspection (index maintenance) -------------------

  int64_t num_physical_rows() const { return num_physical_rows_; }
  int64_t num_segments() const {
    return static_cast<int64_t>(segments_.size());
  }
  bool has_deletes() const { return num_rows_ != num_physical_rows_; }
  /// True when `physical` is a deleted row. The bitmap may be shorter
  /// than the physical row count (appends share their predecessor's
  /// bitmap); rows past its end are live.
  bool IsDeleted(int64_t physical) const {
    return deleted_ != nullptr &&
           physical < static_cast<int64_t>(deleted_->size()) &&
           (*deleted_)[static_cast<size_t>(physical)];
  }

  /// Column `i` over ALL physical rows (deleted included): the
  /// concatenation of the segments' columns. What vector indexes are
  /// built from — their row ids are physical ids.
  Column PhysicalColumn(int64_t i) const;

  /// Column `i` of the tail segment: the encoding/dtype/row-shape template
  /// INSERT kernels build their append batches against. O(1) — touches no
  /// other segment and never flattens.
  const Column& TailColumn(int64_t i) const {
    return segments_.back()->columns[static_cast<size_t>(i)];
  }

  /// Maps ascending physical row ids to live positions, dropping deleted
  /// rows. Identity (a copy) when the table has no deletes.
  std::vector<int64_t> MapPhysicalToLive(
      const std::vector<int64_t>& physical) const;

  /// Maps live positions (each in [0, num_rows())) to physical row ids —
  /// the inverse direction, used to push a live-view selection (e.g. a
  /// predicate's surviving rows) into a physical-id vector index probe.
  /// Identity (a copy) when the table has no deletes.
  std::vector<int64_t> MapLiveToPhysical(
      const std::vector<int64_t>& live) const;

  /// The live view's columns retagged for `device` (the paper's
  /// `register_df(..., device=...)`): they share this table's buffers,
  /// so no row is copied once the view is built. The result is a
  /// single-segment table.
  std::shared_ptr<Table> To(Device device) const;

  /// Renders up to `max_rows` rows as an aligned text table (result
  /// display in examples — the `toPandas` analogue).
  std::string ToString(int64_t max_rows = 20) const;

 private:
  Table(std::string name, std::vector<std::string> column_names,
        std::vector<std::shared_ptr<const TableSegment>> segments,
        std::shared_ptr<const std::vector<bool>> deleted);

  /// Builds live_columns_ / live_to_physical_ once (double-checked; safe
  /// under concurrent readers).
  void EnsureLiveView() const;
  /// The flatten itself; called under live_mu_.
  void BuildLiveView() const;

  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<std::shared_ptr<const TableSegment>> segments_;
  /// Deleted flags per physical row; null means "no deletes ever".
  std::shared_ptr<const std::vector<bool>> deleted_;
  int64_t num_physical_rows_ = 0;
  int64_t num_rows_ = 0;  // live rows

  // Lazily built live view (logical state is immutable; this is a cache).
  mutable std::atomic<bool> live_ready_{false};
  mutable std::mutex live_mu_;
  mutable std::vector<Column> live_columns_;
  /// live position -> physical id; empty when the mapping is identity.
  mutable std::vector<int64_t> live_to_physical_;
};

/// Convenience incremental builder used by ingestion APIs and tests.
class TableBuilder {
 public:
  explicit TableBuilder(std::string table_name)
      : name_(std::move(table_name)) {}

  TableBuilder& AddFloat32(const std::string& column_name,
                           const std::vector<float>& values);
  TableBuilder& AddFloat64(const std::string& column_name,
                           const std::vector<double>& values);
  TableBuilder& AddInt64(const std::string& column_name,
                         const std::vector<int64_t>& values);
  TableBuilder& AddBool(const std::string& column_name,
                        const std::vector<bool>& values);
  TableBuilder& AddStrings(const std::string& column_name,
                           const std::vector<std::string>& values);
  /// Rank >= 2 tensor column (e.g. [n, c, h, w] images).
  TableBuilder& AddTensor(const std::string& column_name, Tensor values);
  /// Pre-built column of any encoding.
  TableBuilder& AddColumn(const std::string& column_name, Column column);

  /// Builds the table, optionally moving all columns to `device`.
  StatusOr<std::shared_ptr<Table>> Build(Device device = Device::kCpu);

 private:
  std::string name_;
  std::vector<std::string> column_names_;
  std::vector<Column> columns_;
};

}  // namespace tdp

#endif  // TDP_STORAGE_TABLE_H_
