#ifndef TDP_EXEC_PRIMITIVE_CACHE_H_
#define TDP_EXEC_PRIMITIVE_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/exec/fused_filter_project.h"
#include "src/exec/operator_kernels.h"
#include "src/storage/table.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {

/// Per-plan cache of reusable execution primitives, owned by the
/// CompiledQuery and shared by all of its runs. Three kinds of entries:
///
///   - Join build sides: the hash table over a deterministic build pipeline
///     (a Filter/Project chain over one table scan, free of parameters and
///     UDFs; see `CacheableJoinBuildPipeline` in streaming.cc). Keyed by
///     the plan node plus the *identity* of the scanned Table object and
///     the run device. Tables are immutable and DML installs a fresh Table
///     into the catalog, so pointer identity is exactly data identity: a
///     repeated prepared-statement run over unchanged data reuses the hash
///     table, and any write to the table invalidates the entry on the next
///     run (the stored shared_ptr keeps the old table alive, so a recycled
///     allocation can never alias a new table into a stale hit).
///
///   - Scan device transfers: the columns of a scanned table already moved
///     to the run device. Same keying discipline as the join slots (scan
///     node + Table identity + device). Same-device scans share column
///     handles with the table directly and never touch this cache; a
///     cross-device scan re-copied every column on every run before, which
///     dominated repeated prepared-statement runs. Sharing the cached copy
///     is exactly as safe as the same-device sharing path: columns are
///     immutable, and DML installs a fresh Table whose new identity misses.
///
///   - Fused filter+project programs (see FusedFilterProject): the
///     structural compilation of a Filter(+Project) node pair, including
///     the negative verdict ("not fusable"), so per-morsel execution never
///     re-walks the expression tree.
///
/// All methods are internally synchronized: a CompiledQuery may be run by
/// many threads concurrently (the cache is the only mutable state hanging
/// off one, and it is append/replace-only).
class PrimitiveCache {
 public:
  PrimitiveCache() = default;
  PrimitiveCache(const PrimitiveCache&) = delete;
  PrimitiveCache& operator=(const PrimitiveCache&) = delete;

  /// Cached hash table for `node` if it was built over exactly `table` on
  /// `device`; null (and a recorded miss) otherwise.
  std::shared_ptr<const JoinHashTable> LookupJoin(
      const void* node, const std::shared_ptr<const Table>& table,
      Device device);

  /// Installs the build result for `node` (replacing any stale entry).
  void StoreJoin(const void* node, std::shared_ptr<const Table> table,
                 Device device, std::shared_ptr<const JoinHashTable> ht);

  /// Cached device transfer for scan `node` if it was taken from exactly
  /// `table` onto `device`; null (and a recorded miss) otherwise.
  std::shared_ptr<const std::vector<Column>> LookupScan(
      const void* node, const std::shared_ptr<const Table>& table,
      Device device);

  /// Installs the transferred scan columns (replacing any stale entry).
  void StoreScan(const void* node, std::shared_ptr<const Table> table,
                 Device device,
                 std::shared_ptr<const std::vector<Column>> columns);

  /// The fused program for the Filter node `key`, compiling via `compile`
  /// on first use. A null compilation result is cached too (negative
  /// caching), so unfusable nodes pay the analysis exactly once.
  FusedProgramPtr GetFused(const void* key,
                           const std::function<FusedProgramPtr()>& compile);

  // Statistics (tests assert hit/miss behaviour and DML invalidation).
  int64_t join_hits() const;
  int64_t join_misses() const;
  int64_t scan_hits() const;
  int64_t scan_misses() const;
  int64_t fused_compiles() const;

 private:
  struct JoinSlot {
    std::shared_ptr<const Table> table;
    Device device = Device::kCpu;
    std::shared_ptr<const JoinHashTable> ht;
  };

  struct ScanSlot {
    std::shared_ptr<const Table> table;
    Device device = Device::kCpu;
    std::shared_ptr<const std::vector<Column>> columns;
  };

  mutable std::mutex mu_;
  std::unordered_map<const void*, JoinSlot> joins_;
  std::unordered_map<const void*, ScanSlot> scans_;
  std::unordered_map<const void*, FusedProgramPtr> fused_;
  int64_t join_hits_ = 0;
  int64_t join_misses_ = 0;
  int64_t scan_hits_ = 0;
  int64_t scan_misses_ = 0;
  int64_t fused_compiles_ = 0;
};

/// True when `expr` evaluates to the same result on every run over the
/// same input data: free of `?` parameters, UDF calls (whose modules may
/// train between runs), and vector-similarity (whose query is a bound
/// parameter). Such expressions make an operator's output a pure function
/// of the plan node and its input — the precondition for caching.
bool CacheableExpr(const BoundExpr& expr);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_PRIMITIVE_CACHE_H_
