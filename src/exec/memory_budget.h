#ifndef TDP_EXEC_MEMORY_BUDGET_H_
#define TDP_EXEC_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/storage/column.h"

namespace tdp {
namespace exec {

/// Bytes a column's materialization occupies: payload tensor plus
/// dictionary/domain metadata. The unit every breaker uses to account its
/// scratch against the run's `QueryMemory` budget.
int64_t ColumnFootprintBytes(const Column& column);
int64_t ChunkFootprintBytes(const Chunk& chunk);

/// Per-query memory accounting + spill-file registry for one run.
///
/// Created by `CompiledQuery::RunChunk` / `ResultCursor`'s producer when
/// `RunOptions::memory_budget_bytes > 0` and threaded through `ExecContext`
/// to the breaker kernels (Sort, hash-join build, Aggregate finalize). A
/// kernel about to materialize `bytes` of breaker scratch asks
/// `ShouldSpill(bytes)`; over budget the aggregate computes page by page
/// from its resident inputs and the join build writes its payload to a
/// spill file — bit-identical results, bounded scratch. The sort reserves
/// its scratch but never spills: its input and output are resident anyway.
///
/// Spill files live in one per-query temp directory whose lifetime is the
/// run: the destructor (and the eager `ReleaseSpillFiles`, called at the
/// end of a cursor's producer so cancellation/early close cleans up
/// immediately) deletes every file. Process-wide counters
/// (`LiveSpillFiles`) let tests assert no run leaks temp files.
///
/// Thread safety: accounting is atomic, the file registry is mutex-guarded
/// — independent breakers of one run may spill concurrently.
class QueryMemory {
 public:
  /// `budget_bytes <= 0` means unlimited (accounting only, never spills).
  explicit QueryMemory(int64_t budget_bytes);
  ~QueryMemory();

  QueryMemory(const QueryMemory&) = delete;
  QueryMemory& operator=(const QueryMemory&) = delete;

  int64_t budget_bytes() const { return budget_bytes_; }
  bool unlimited() const { return budget_bytes_ <= 0; }

  /// Accounting for in-memory breaker materializations. `Charge` never
  /// fails — the budget steers kernels toward their paged or spilled
  /// paths via `ShouldSpill`, it does not abort queries.
  void Charge(int64_t bytes) {
    reserved_.fetch_add(bytes, std::memory_order_relaxed);
    int64_t peak = peak_.load(std::memory_order_relaxed);
    const int64_t now = reserved_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }
  void Release(int64_t bytes) {
    reserved_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  int64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  int64_t peak_reserved_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// True when materializing `bytes` more of breaker scratch would push
  /// the run's reservation over the budget — the kernel should spill.
  bool ShouldSpill(int64_t bytes) const {
    if (unlimited()) return false;
    return reserved_bytes() + bytes > budget_bytes_;
  }

  /// Registers a fresh spill file path (the per-query spill directory is
  /// created lazily on first call). `tag` names the producing breaker in
  /// the filename for debuggability.
  StatusOr<std::string> NewSpillFile(const std::string& tag);

  /// Records bytes written to a spill file (for `bytes_spilled`).
  void AddSpilledBytes(int64_t bytes) {
    bytes_spilled_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Deletes every spill file and the per-query directory now (idempotent;
  /// also run by the destructor). Called eagerly at the end of a run so a
  /// cancelled or early-closed cursor releases disk before the cursor
  /// object itself dies.
  void ReleaseSpillFiles();

  int64_t spill_files_created() const {
    return files_created_.load(std::memory_order_relaxed);
  }
  int64_t bytes_spilled() const {
    return bytes_spilled_.load(std::memory_order_relaxed);
  }

  /// Process-wide count of spill files created minus deleted — the
  /// leak-check oracle: zero whenever no budgeted query is in flight.
  static int64_t LiveSpillFiles();
  /// Cumulative process-wide spilled bytes (monotonic).
  static int64_t TotalBytesSpilled();

 private:
  const int64_t budget_bytes_;
  std::atomic<int64_t> reserved_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> files_created_{0};
  std::atomic<int64_t> bytes_spilled_{0};

  std::mutex mu_;
  std::string spill_dir_;               // empty until first spill
  std::vector<std::string> files_;      // registered spill file paths
  bool released_ = false;
};

/// RAII reservation of breaker scratch against a (possibly null) budget.
class ScopedReservation {
 public:
  ScopedReservation(QueryMemory* memory, int64_t bytes)
      : memory_(memory), bytes_(bytes) {
    if (memory_ != nullptr) memory_->Charge(bytes_);
  }
  ~ScopedReservation() {
    if (memory_ != nullptr) memory_->Release(bytes_);
  }
  ScopedReservation(const ScopedReservation&) = delete;
  ScopedReservation& operator=(const ScopedReservation&) = delete;

 private:
  QueryMemory* memory_;
  int64_t bytes_;
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_MEMORY_BUDGET_H_
