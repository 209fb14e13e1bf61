#ifndef TDP_RUNTIME_SESSION_H_
#define TDP_RUNTIME_SESSION_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/compiled_query.h"
#include "src/storage/catalog.h"
#include "src/udf/registry.h"

namespace tdp {

/// Compilation options — the paper's `extra_config` (Listing 6) plus the
/// target device (Listing 2). Everything here is plan state (part of the
/// plan-cache key); per-run knobs — parameters, morsel size,
/// training-mode override, cancellation — live in `exec::RunOptions`
/// instead, so clients with conflicting run options share one cached plan.
struct QueryOptions {
  Device device = Device::kAccel;
  /// Compile an end-to-end differentiable plan (soft operators over PE
  /// columns); enables training the query with gradient descent.
  bool trainable = false;
  /// When false, `Prepare`/`Sql` always compile fresh instead of consulting
  /// the session plan cache. (Trainable queries are never cached: they
  /// carry mutable module state.)
  bool use_plan_cache = true;
};

/// Cumulative plan-cache counters (see `Session::plan_cache_stats`).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;     // compile because no (fresh) entry existed
  uint64_t evictions = 0;  // LRU capacity evictions
  uint64_t invalidations = 0;  // entries dropped as schema-epoch stale
  size_t size = 0;
  size_t capacity = 0;
};

/// Top-level TDP handle — the C++ analogue of the paper's `tdp` module:
/// registration APIs (`tdp.sql.register_df` et al.), the UDF/TVF
/// annotation registry, and query compilation (`tdp.sql.spark.query`).
///
/// Thread safety (the serving contract):
///   - `Sql`, `Prepare`, `Query`, `Explain`, and `RegisterTable`/
///     `RegisterTensor` may be called from any number of threads
///     concurrently. Queries bind against an immutable catalog snapshot;
///     registrations swap in a new snapshot (copy-on-write) and are
///     observed by subsequent runs, never by runs already in flight.
///   - `Prepare` returns shared `CompiledQuery` instances from an LRU plan
///     cache keyed on normalized SQL text + compilation options, skipping
///     lex/parse/bind/optimize on repeat statements. Invalidation is
///     PER-TABLE: an entry records the schema epoch of every table its
///     plan touches and is dropped only when one of those epochs moves.
///     DDL (register/drop table, create/drop vector index) bumps the
///     affected table's epoch; DML does not — an INSERT into `t` evicts
///     nothing, not even plans over `t` (they re-resolve the table from a
///     fresh snapshot at every run).
///   - DML statements (`CREATE TABLE` / `INSERT` / `UPDATE` / `DELETE`)
///     run through the same `Sql`/`Prepare` path and return a one-row
///     `rows_affected` table. Concurrent writers to the SAME table
///     serialize optimistically: the loser of a write-write race gets a
///     retryable ExecutionError (same contract as a registration racing a
///     query) and simply re-runs its statement; writers to different
///     tables never conflict.
///   - UDFs/TVFs must be registered via `functions()` before concurrent
///     serving starts; the function registry itself is not synchronized.
class Session {
 public:
  Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Data ingestion --------------------------------------------------

  /// Registers `table` under `name`, replacing any previous registration
  /// (training loops re-register inputs each iteration). Data is moved to
  /// `device`.
  Status RegisterTable(const std::string& name, std::shared_ptr<Table> table,
                       Device device = Device::kCpu);

  /// Registers a single-column table holding one tensor (the paper's
  /// `register_tensor`), column name "value".
  Status RegisterTensor(const std::string& name, Tensor tensor,
                        Device device = Device::kCpu);

  // ---- Vector indexes ----------------------------------------------------

  /// Builds an IVF index over the rank-2 tensor column `table`.`column`
  /// (the paper's §5.1 future work: approximate indexing for top-k
  /// queries). Once installed, `ORDER BY dot(column, ?) DESC LIMIT k` (and
  /// `cosine_sim`) — optionally under a WHERE predicate — compiles to the
  /// IndexTopK/FilteredIndexTopK operator instead of a full Sort;
  /// `exec::RunOptions::vector_search` trades recall for speed per run
  /// (the default probes every cell — exact results). Re-registering the
  /// table invalidates the index: affected queries fall back to the exact
  /// Sort+Limit plan until the index is rebuilt. Fails with ExecutionError
  /// if a re-registration races the build (retry over the new data).
  Status CreateVectorIndex(const std::string& table,
                           const std::string& column,
                           const index::IvfIndex::Options& options = {},
                           uint64_t seed = kDefaultVectorIndexSeed);

  Status DropVectorIndex(const std::string& table, const std::string& column);

  // ---- Functions --------------------------------------------------------

  udf::FunctionRegistry& functions() { return *registry_; }

  // ---- Queries ----------------------------------------------------------

  /// Parses, binds, optimizes and compiles `sql` into a tensor program.
  /// Always compiles fresh (no cache); use `Prepare` on hot serving paths.
  StatusOr<std::shared_ptr<exec::CompiledQuery>> Query(
      const std::string& sql, const QueryOptions& options = {});

  /// Cached compilation: returns the shared `CompiledQuery` for `sql` from
  /// the plan cache, compiling (and inserting) on miss. The returned query
  /// may be `Run(params)` by many threads concurrently. `?` placeholders
  /// make one cached plan serve a whole family of point queries.
  StatusOr<std::shared_ptr<exec::CompiledQuery>> Prepare(
      const std::string& sql, const QueryOptions& options = {});

  /// THE one-shot entry point: compile (through the plan cache) + run.
  /// All per-run state — `?` parameter bindings, morsel size,
  /// vector-search knobs, cancellation, training-mode
  /// override — travels in `run` (`exec::RunOptions`); there is no
  /// separate params overload. `Prepare` + `Run` is the same thing split
  /// for hot serving paths.
  StatusOr<std::shared_ptr<Table>> Sql(const std::string& sql,
                                       const QueryOptions& options = {},
                                       const exec::RunOptions& run = {});

  /// Streaming execution: compile `sql` through the plan cache and open a
  /// `ResultCursor` whose `Next()` yields result chunks incrementally
  /// (bounded queue, backpressure, cooperative cancellation on close) —
  /// time-to-first-chunk is ~one morsel of work, not the full result.
  StatusOr<std::unique_ptr<exec::ResultCursor>> Execute(
      const std::string& sql, const QueryOptions& options = {},
      exec::RunOptions run = {});

  /// EXPLAIN: the optimized plan for `sql`. Reads through the plan cache
  /// without perturbing it (no insert, no LRU reorder, no stats change):
  /// ad-hoc EXPLAINs must never evict hot serving plans.
  StatusOr<std::string> Explain(const std::string& sql,
                                const QueryOptions& options = {});

  // ---- Catalog / cache introspection ------------------------------------

  SharedCatalog& catalog() { return *catalog_; }
  const SharedCatalog& catalog() const { return *catalog_; }

  PlanCacheStats plan_cache_stats() const;

  /// Resizes the plan cache (default 128 plans); 0 disables caching.
  void set_plan_cache_capacity(size_t capacity);

 private:
  struct CacheEntry {
    std::string key;
    std::shared_ptr<exec::CompiledQuery> query;
    /// (lowercased table name, schema epoch at compile): the entry is
    /// fresh iff every recorded epoch is unchanged. Epochs move on DDL
    /// only, so DML over one table leaves every cached plan — including
    /// plans over that same table — valid.
    std::vector<std::pair<std::string, uint64_t>> deps;
  };

  std::shared_ptr<SharedCatalog> catalog_;
  std::unique_ptr<udf::FunctionRegistry> registry_;

  // LRU plan cache: most-recently-used at the front of the list; the map
  // indexes entries by cache key. All cache state is guarded by mu_.
  mutable std::mutex mu_;
  std::list<CacheEntry> lru_;
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> index_;
  size_t capacity_ = 128;
  PlanCacheStats stats_;
};

}  // namespace tdp

#endif  // TDP_RUNTIME_SESSION_H_
