#include "src/exec/compiled_query.h"

#include <algorithm>
#include <set>

#include "src/exec/bound_expr.h"

namespace tdp {
namespace exec {
namespace {

void CollectExprModules(
    const BoundExpr& e,
    std::vector<std::shared_ptr<nn::Module>>& modules) {
  switch (e.kind) {
    case BoundExprKind::kUdfCall: {
      const auto& call = static_cast<const BoundUdfCall&>(e);
      for (const auto& m : call.fn->modules) modules.push_back(m);
      for (const auto& a : call.args) CollectExprModules(*a, modules);
      return;
    }
    case BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      CollectExprModules(*b.left, modules);
      CollectExprModules(*b.right, modules);
      return;
    }
    case BoundExprKind::kUnary:
      CollectExprModules(*static_cast<const BoundUnary&>(e).operand, modules);
      return;
    case BoundExprKind::kCase: {
      const auto& c = static_cast<const BoundCase&>(e);
      for (const auto& [when, then] : c.branches) {
        CollectExprModules(*when, modules);
        CollectExprModules(*then, modules);
      }
      if (c.else_expr) CollectExprModules(*c.else_expr, modules);
      return;
    }
    case BoundExprKind::kVectorSim: {
      const auto& v = static_cast<const BoundVectorSim&>(e);
      CollectExprModules(*v.column, modules);
      CollectExprModules(*v.query, modules);
      return;
    }
    default:
      return;
  }
}

// Highest `?` ordinal in the expression tree, or -1 when none. The switch
// is exhaustive (no default) so a future BoundExprKind with children
// triggers -Wswitch here instead of silently undercounting parameters.
int64_t MaxParamOrdinal(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExprKind::kParameter:
      return static_cast<const BoundParameter&>(e).ordinal;
    case BoundExprKind::kUdfCall: {
      int64_t max_ordinal = -1;
      for (const auto& a : static_cast<const BoundUdfCall&>(e).args) {
        max_ordinal = std::max(max_ordinal, MaxParamOrdinal(*a));
      }
      return max_ordinal;
    }
    case BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(e);
      return std::max(MaxParamOrdinal(*b.left), MaxParamOrdinal(*b.right));
    }
    case BoundExprKind::kUnary:
      return MaxParamOrdinal(*static_cast<const BoundUnary&>(e).operand);
    case BoundExprKind::kCase: {
      const auto& c = static_cast<const BoundCase&>(e);
      int64_t max_ordinal = -1;
      for (const auto& [when, then] : c.branches) {
        max_ordinal = std::max(max_ordinal, MaxParamOrdinal(*when));
        max_ordinal = std::max(max_ordinal, MaxParamOrdinal(*then));
      }
      if (c.else_expr) {
        max_ordinal = std::max(max_ordinal, MaxParamOrdinal(*c.else_expr));
      }
      return max_ordinal;
    }
    case BoundExprKind::kVectorSim: {
      const auto& v = static_cast<const BoundVectorSim&>(e);
      return std::max(MaxParamOrdinal(*v.column), MaxParamOrdinal(*v.query));
    }
    case BoundExprKind::kColumnRef:
    case BoundExprKind::kLiteral:
      return -1;
  }
  return -1;
}

int64_t MaxPlanParamOrdinal(const plan::LogicalNode& node) {
  int64_t max_ordinal = -1;
  plan::ForEachExpr(node, [&max_ordinal](const BoundExpr& e) {
    max_ordinal = std::max(max_ordinal, MaxParamOrdinal(e));
  });
  for (const auto& child : node.children) {
    max_ordinal = std::max(max_ordinal, MaxPlanParamOrdinal(*child));
  }
  return max_ordinal;
}

void CollectPlanModules(
    const plan::LogicalNode& node,
    std::vector<std::shared_ptr<nn::Module>>& modules) {
  // TVF modules hang off the node itself, not an expression slot; every
  // expression-borne module is reached through the shared plan walker.
  if (node.kind == plan::NodeKind::kTvfScan) {
    const auto& tvf = static_cast<const plan::TvfScanNode&>(node);
    for (const auto& m : tvf.fn->modules) modules.push_back(m);
  }
  plan::ForEachExpr(node, [&modules](const BoundExpr& e) {
    CollectExprModules(e, modules);
  });
  for (const auto& child : node.children) {
    CollectPlanModules(*child, modules);
  }
}

}  // namespace

CompiledQuery::CompiledQuery(plan::LogicalNodePtr plan,
                             std::shared_ptr<SharedCatalog> catalog,
                             Device device, bool trainable)
    : plan_(std::move(plan)),
      pipelines_(plan::BuildPipelines(*plan_)),
      catalog_(std::move(catalog)),
      device_(device),
      trainable_(trainable),
      num_params_(MaxPlanParamOrdinal(*plan_) + 1) {
  std::vector<std::shared_ptr<nn::Module>> raw;
  CollectPlanModules(*plan_, raw);
  std::set<nn::Module*> seen;
  for (auto& m : raw) {
    if (seen.insert(m.get()).second) modules_.push_back(std::move(m));
  }
}

Status CompiledQuery::ValidateParams(
    const std::vector<ScalarValue>& params) const {
  if (static_cast<int64_t>(params.size()) != num_params_) {
    return Status::InvalidArgument(
        "query expects " + std::to_string(num_params_) + " parameter(s), " +
        std::to_string(params.size()) + " bound");
  }
  return Status::OK();
}

// Run-entry validation of RunOptions fields with a documented error
// contract, so e.g. a negative probe budget fails every run identically —
// whether or not the plan contains an IndexTopK node or its index is
// currently valid (a latent bad value must not start failing only after
// an unrelated CREATE/DROP INDEX changes the plan shape).
static Status ValidateRunOptions(const RunOptions& options) {
  if (options.vector_search.num_probes < 0) {
    return Status::InvalidArgument(
        "RunOptions::vector_search.num_probes must be non-negative, got " +
        std::to_string(options.vector_search.num_probes));
  }
  if (options.morsel_rows < 0) {
    return Status::InvalidArgument(
        "RunOptions::morsel_rows must be non-negative (0 = default), got " +
        std::to_string(options.morsel_rows));
  }
  if (options.memory_budget_bytes < 0) {
    return Status::InvalidArgument(
        "RunOptions::memory_budget_bytes must be non-negative (0 = "
        "unlimited), got " +
        std::to_string(options.memory_budget_bytes));
  }
  return Status::OK();
}

ExecContext CompiledQuery::MakeContext(const RunOptions& options,
                                       const Catalog* snapshot,
                                       const CancellationToken* cancel) const {
  ExecContext ctx;
  ctx.catalog = snapshot;
  // DML kernels install their delta through the session's shared catalog;
  // read-only plans never dereference this.
  ctx.writer = catalog_.get();
  ctx.device = device_;
  // TRAINABLE queries default to the soft (differentiable) operators;
  // `RunOptions::training_mode = false` swaps in the exact ones for
  // inference. Non-trainable queries ignore the override.
  ctx.soft_mode = trainable_ && options.training_mode.value_or(true);
  ctx.params = options.params.empty() ? nullptr : &options.params;
  ctx.morsel_rows = options.morsel_rows;
  ctx.vector_search = options.vector_search;
  ctx.cancel = cancel;
  ctx.morsel_fault =
      options.inject_morsel_fault ? &options.inject_morsel_fault : nullptr;
  // The plan-lifetime primitive cache (reusable join build sides, scan
  // device transfers). Internally synchronized, so concurrent runs of one
  // shared CompiledQuery stay safe.
  ctx.primitive_cache = primitive_cache_.get();
  return ctx;
}

StatusOr<Chunk> CompiledQuery::RunChunkInternal(
    const std::vector<ScalarValue>& params, const RunOptions& options) const {
  TDP_RETURN_NOT_OK(ValidateParams(params));
  TDP_RETURN_NOT_OK(ValidateRunOptions(options));
  // One consistent catalog snapshot per run: concurrent RegisterTable
  // calls never tear a multi-table query, and the snapshot stays alive
  // (shared_ptr) for the whole execution.
  const std::shared_ptr<const Catalog> snapshot = catalog_->Snapshot();
  ExecContext ctx = MakeContext(options, snapshot.get(), options.cancel.get());
  ctx.params = params.empty() ? nullptr : &params;
  if (options.memory_budget_bytes > 0) {
    // Budgeted run: the accounting + spill-file registry lives exactly as
    // long as the execution — the destructor deletes every spill temp file
    // whether the run completes, fails, or is cancelled mid-spill.
    QueryMemory memory(options.memory_budget_bytes);
    ctx.memory = &memory;
    return ExecutePlan(pipelines_, ctx);
  }
  return ExecutePlan(pipelines_, ctx);
}

StatusOr<Chunk> CompiledQuery::RunChunk(const RunOptions& options) const {
  return RunChunkInternal(options.params, options);
}

StatusOr<Chunk> CompiledQuery::RunChunk(
    const std::vector<ScalarValue>& params) const {
  return RunChunkInternal(params, RunOptions{});
}

StatusOr<std::shared_ptr<Table>> CompiledQuery::Run(
    const RunOptions& options) const {
  TDP_ASSIGN_OR_RETURN(Chunk chunk, RunChunk(options));
  return chunk.ToTable("result");
}

StatusOr<std::shared_ptr<Table>> CompiledQuery::Run(
    const std::vector<ScalarValue>& params) const {
  TDP_ASSIGN_OR_RETURN(Chunk chunk, RunChunk(params));
  return chunk.ToTable("result");
}

StatusOr<std::unique_ptr<ResultCursor>> CompiledQuery::Open(
    RunOptions options) const {
  TDP_RETURN_NOT_OK(ValidateParams(options.params));
  TDP_RETURN_NOT_OK(ValidateRunOptions(options));
  std::shared_ptr<const CompiledQuery> self = weak_from_this().lock();
  if (self == nullptr) {
    return Status::InvalidArgument(
        "Open() requires the CompiledQuery to be owned by a shared_ptr "
        "(Session::Query/Prepare return one): the cursor must keep the "
        "plan alive for its producer");
  }
  // The snapshot is taken at Open — the cursor's whole stream reads one
  // consistent catalog state, same as a single Run().
  std::unique_ptr<ResultCursor> cursor(new ResultCursor(
      std::move(self), std::move(options), catalog_->Snapshot()));
  cursor->Start();
  return cursor;
}

std::vector<Tensor> CompiledQuery::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& m : modules_) {
    for (const Tensor& t : m->Parameters()) params.push_back(t);
  }
  return params;
}

}  // namespace exec
}  // namespace tdp
