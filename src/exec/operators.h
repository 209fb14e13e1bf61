#ifndef TDP_EXEC_OPERATORS_H_
#define TDP_EXEC_OPERATORS_H_

#include <functional>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/chunk.h"
#include "src/exec/memory_budget.h"
#include "src/exec/run_options.h"
#include "src/exec/value.h"
#include "src/plan/logical_plan.h"
#include "src/storage/catalog.h"

namespace tdp {
namespace plan {
struct PipelinePlan;
}  // namespace plan

namespace exec {

class PrimitiveCache;

/// Default morsel size: the `TDP_MORSEL_ROWS` environment variable,
/// falling back to 65536 rows (~a few MB of scalar columns per morsel);
/// invalid values warn and fall back, like `TDP_NUM_THREADS`.
int64_t DefaultMorselRows();

/// Per-run execution context, threaded through every operator of one
/// `CompiledQuery::Run()`. The plan itself is immutable after compilation;
/// everything that may differ between runs lives here.
struct ExecContext {
  /// Catalog tables are re-resolved at each run (training loops
  /// re-register their inputs between iterations), so scans read through
  /// this pointer rather than caching table data at compile time.
  const Catalog* catalog = nullptr;
  /// Device every operator lowers its tensor program onto: `kCpu` is the
  /// interpretive reference backend, `kAccel` the vectorized one. Input
  /// columns living elsewhere are moved here by the scan.
  Device device = Device::kCpu;
  /// True when a TRAINABLE-compiled query runs in training mode: group-by/
  /// count over PE keys execute as soft (differentiable) operators, so
  /// gradients flow from the result back into UDF parameters (§4). At
  /// inference the exact operators are swapped back in. A soft run's
  /// autograd graph must span the whole relation, so every pipeline takes
  /// one whole-relation morsel and every ModelEval stage one batch: the
  /// result and its gradients never depend on `morsel_rows`, the batch
  /// size, or the thread count.
  bool soft_mode = false;
  /// Values for the statement's `?` placeholders, owned by the caller for
  /// the duration of the run. Null when the query has none. Keeping the
  /// bindings here (rather than on the plan) is what lets one CompiledQuery
  /// execute on many threads with different parameters simultaneously.
  const std::vector<ScalarValue>* params = nullptr;
  /// Morsel size in rows for this run (`RunOptions::morsel_rows`); 0
  /// resolves to `DefaultMorselRows()`. Ignored by soft runs.
  int64_t morsel_rows = 0;
  /// Vector-search knobs for IndexTopK / FilteredIndexTopK operators
  /// (`RunOptions::vector_search`): the probe budget (0 probes every
  /// cell — exact).
  VectorSearchOptions vector_search;
  /// Cooperative cancellation: when set, workers poll it at pipeline and
  /// morsel boundaries and abandon the run with `kCancelled`. Null when
  /// the run is not cancellable.
  const CancellationToken* cancel = nullptr;
  /// Test-only morsel fault hook (see `RunOptions::inject_morsel_fault`);
  /// points at storage owned by the caller for the duration of the run.
  const std::function<Status(int64_t)>* morsel_fault = nullptr;
  /// Writer handle for DML statements: `catalog` stays the run's immutable
  /// snapshot (the delta is computed against it), and the finished write is
  /// installed through here (`SharedCatalog::ApplyDmlWrite`). Null for
  /// execution APIs with no writable catalog — DML then fails cleanly.
  SharedCatalog* writer = nullptr;
  /// Per-query memory accounting + spill-file registry, owned by the run
  /// (`RunOptions::memory_budget_bytes > 0`); null means unlimited. The
  /// breaker kernels (Sort, hash-join build, Aggregate finalize) account
  /// their materializations here; over budget the aggregate pages and
  /// the join build spills its payload — bit-identical results either
  /// way.
  QueryMemory* memory = nullptr;
  /// Per-plan primitive cache owned by the CompiledQuery (null for bare
  /// kernel callers): reusable join build sides live here, so repeated
  /// prepared-statement runs stop rebuilding hash tables that only depend
  /// on the plan and the (immutable) input tables. Internally
  /// synchronized; entries are keyed so every run — any device, params,
  /// or data version — stays correct.
  PrimitiveCache* primitive_cache = nullptr;
};

/// OK while `ctx`'s run is live; `kCancelled` once its token has been
/// cancelled (client disconnect, cursor close, timeout). Polled by the
/// executor at pipeline and morsel boundaries, and by ModelEval between
/// batches.
inline Status CheckCancel(const ExecContext& ctx) {
  if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
    return Status::Cancelled("query run cancelled");
  }
  return Status::OK();
}

/// Executes a full optimized plan: runs the morsel-driven streaming
/// pipelines of `pipelines` (see `plan::BuildPipelines`) and concatenates
/// the result pipeline's chunks. Each operator lowers to a tensor program
/// on `ctx.device` (TQP-style compiled operators): filters become
/// boolean-mask kernels, aggregates grouped reductions, joins hash
/// tensor-encoded keys, and so on. Morsels run in parallel on the
/// process-wide `ThreadPool` (`TDP_NUM_THREADS`), and results are
/// bit-identical at every thread count and morsel size: operators are
/// order-preserving, and floating-point aggregates fold fixed-size row
/// blocks whose boundaries depend only on the row count.
///
/// Errors (missing tables, schema drift since compilation, type
/// mismatches) surface as failed Status, never as crashes.
StatusOr<Chunk> ExecutePlan(const plan::PipelinePlan& pipelines,
                            const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_OPERATORS_H_
