#ifndef TDP_EXEC_PRIMITIVE_CACHE_H_
#define TDP_EXEC_PRIMITIVE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/exec/operator_kernels.h"
#include "src/storage/table.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {

/// Per-plan cache of reusable join build sides, owned by the CompiledQuery
/// and shared by all of its runs: the hash table over a deterministic
/// build pipeline (a Filter/Project chain over one table scan, free of
/// parameters and UDFs; see `CacheableJoinBuildPipeline` in streaming.cc).
/// Keyed by the plan node plus the *identity* of the scanned Table object
/// and the run device. Tables are immutable and DML installs a fresh Table
/// into the catalog, so pointer identity is exactly data identity: a
/// repeated prepared-statement run over unchanged data reuses the hash
/// table, and any write to the table invalidates the entry on the next run
/// (the stored shared_ptr keeps the old table alive, so a recycled
/// allocation can never alias a new table into a stale hit).
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

  // Statistics (tests assert hit/miss behaviour and DML invalidation).
  int64_t join_hits() const;
  int64_t join_misses() const;
  /// Always 0: the cache holds no scan columns (a cross-device scan
  /// retags the table's columns) and no compiled programs. Kept only
  /// because the repository benchmark still reports them
  /// (`exec.scan_cache_hit_rate` in `perfbench/workloads/serve_rw.cc`,
  /// `exec.fused_compiles` in `olap_large.cc`); drop them with those
  /// metrics.
  int64_t scan_hits() const { return 0; }
  int64_t scan_misses() const { return 0; }
  int64_t fused_compiles() const { return 0; }

 private:
  struct JoinSlot {
    std::shared_ptr<const Table> table;
    Device device = Device::kCpu;
    std::shared_ptr<const JoinHashTable> ht;
  };

  mutable std::mutex mu_;
  std::unordered_map<const void*, JoinSlot> joins_;
  int64_t join_hits_ = 0;
  int64_t join_misses_ = 0;
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
