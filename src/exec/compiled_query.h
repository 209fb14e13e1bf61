#ifndef TDP_EXEC_COMPILED_QUERY_H_
#define TDP_EXEC_COMPILED_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/operators.h"
#include "src/exec/primitive_cache.h"
#include "src/exec/result_cursor.h"
#include "src/exec/run_options.h"
#include "src/nn/module.h"
#include "src/plan/logical_plan.h"
#include "src/plan/pipeline.h"
#include "src/storage/catalog.h"

namespace tdp {
namespace exec {

/// A SQL statement compiled to a tensor program — TDP's analogue of the
/// PyTorch model object returned by `tdp.sql.spark.query(...)` (§2 of the
/// paper). Like a model, it can be:
///   - executed (`Run()` materializes, `Open()` streams), on whichever
///     device it was compiled for, with all per-run state — `?` parameter
///     bindings, morsel size, training-mode override,
///     cancellation — carried by a `RunOptions` value per call;
///   - embedded in a training loop: `Parameters()` exposes every trainable
///     tensor reachable through the UDFs/TVFs in the plan, and when
///     compiled TRAINABLE the plan uses differentiable soft operators so
///     gradients flow from the result back into those parameters;
///   - inspected (`Explain()`).
///
/// Tables are re-resolved from a fresh catalog snapshot at each run, so
/// re-registering an input table re-runs the same compiled query on fresh
/// data.
///
/// Thread safety: a CompiledQuery is fully immutable after compilation —
/// there are no post-compilation setters — and every run carries its own
/// `RunOptions` + catalog snapshot, so one shared instance (e.g. from the
/// session plan cache) may be executed by any number of threads with
/// conflicting per-run options simultaneously.
class CompiledQuery : public std::enable_shared_from_this<CompiledQuery> {
 public:
  /// `catalog` is non-const: every run snapshots it for reads, and DML
  /// plans additionally install their write through it (the ExecContext
  /// `writer` handle). Read-only statements never touch the writer.
  ///
  /// `udf_dispatch` (optional, must outlive the query — Session passes the
  /// process-wide InferenceScheduler) routes batchable scalar-UDF calls
  /// through a shared dispatcher so concurrent queries over the same model
  /// coalesce forward passes. Trainable queries never use it, even when
  /// set: cross-query batching would entangle autograd graphs.
  CompiledQuery(plan::LogicalNodePtr plan,
                std::shared_ptr<SharedCatalog> catalog, Device device,
                bool trainable, UdfDispatcher* udf_dispatch = nullptr);

  CompiledQuery(const CompiledQuery&) = delete;
  CompiledQuery& operator=(const CompiledQuery&) = delete;

  /// Executes the plan and materializes the result — a thin drain of the
  /// same streaming executor `Open()` exposes incrementally.
  StatusOr<std::shared_ptr<Table>> Run(const RunOptions& options) const;
  /// Convenience overload: default options with `params` bound.
  StatusOr<std::shared_ptr<Table>> Run(
      const std::vector<ScalarValue>& params = {}) const;

  /// Executes the plan, returning the raw column chunk (tensor access —
  /// training loops read the differentiable count column from here).
  StatusOr<Chunk> RunChunk(const RunOptions& options) const;
  StatusOr<Chunk> RunChunk(const std::vector<ScalarValue>& params = {}) const;

  /// Opens a pull-based streaming cursor over this run's result: the
  /// final pipeline's chunks arrive through `ResultCursor::Next()` as
  /// they are produced (bounded queue, backpressure), while upstream
  /// breaker pipelines materialize exactly as under `Run()`. Closing or
  /// dropping the cursor cancels production at the next morsel boundary.
  /// Fails fast on a parameter-count mismatch. Requires the query to be
  /// owned by `std::shared_ptr` (Session::Query/Prepare return one): the
  /// cursor keeps the plan alive for the producer's lifetime.
  StatusOr<std::unique_ptr<ResultCursor>> Open(RunOptions options = {}) const;

  /// Number of `?` placeholders in the statement.
  int64_t num_params() const { return num_params_; }

  /// All trainable parameters of modules referenced by the plan's
  /// UDFs/TVFs — pass to an optimizer, per Listing 5 of the paper.
  std::vector<Tensor> Parameters() const;

  /// The nn::Modules referenced by the plan (e.g. to extract a trained
  /// digit_parser for reuse, §5.5 Experiment 2).
  const std::vector<std::shared_ptr<nn::Module>>& Modules() const {
    return modules_;
  }

  bool trainable() const { return trainable_; }

  Device device() const { return device_; }

  /// The plan-lifetime cache of execution primitives (fused
  /// filter+project programs, reusable join build sides). Exposed for
  /// tests asserting hit/miss and invalidation behaviour.
  PrimitiveCache& primitive_cache() const { return *primitive_cache_; }

  /// EXPLAIN-style plan rendering.
  std::string Explain() const { return plan_->ToString(); }

  /// EXPLAIN PIPELINES: how the streaming executor groups this plan into
  /// morsel pipelines and breakers.
  std::string ExplainPipelines() const { return pipelines_.ToString(); }

  const plan::LogicalNode& plan() const { return *plan_; }
  const plan::PipelinePlan& pipelines() const { return pipelines_; }

 private:
  friend class ResultCursor;

  /// `params.size() == num_params()` or an InvalidArgument status.
  Status ValidateParams(const std::vector<ScalarValue>& params) const;

  /// Builds the per-run ExecContext over `options` and `snapshot`; the
  /// referenced storage (options, snapshot, cancel) must outlive the run.
  ExecContext MakeContext(const RunOptions& options, const Catalog* snapshot,
                          const CancellationToken* cancel) const;

  StatusOr<Chunk> RunChunkInternal(const std::vector<ScalarValue>& params,
                                   const RunOptions& options) const;

  plan::LogicalNodePtr plan_;
  plan::PipelinePlan pipelines_;  // built once; references plan_ nodes
  std::shared_ptr<SharedCatalog> catalog_;
  Device device_;
  bool trainable_;
  UdfDispatcher* udf_dispatch_ = nullptr;
  int64_t num_params_ = 0;
  std::vector<std::shared_ptr<nn::Module>> modules_;
  /// Mutable run-shared state behind the otherwise-immutable query object;
  /// the cache synchronizes internally and its entries are keyed by data
  /// identity, so concurrent runs with conflicting options stay exact.
  std::unique_ptr<PrimitiveCache> primitive_cache_ =
      std::make_unique<PrimitiveCache>();
};

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_COMPILED_QUERY_H_
