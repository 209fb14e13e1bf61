// Morsel-driven streaming executor, the engine's one executor: runs the
// pipelines built by `plan::BuildPipelines` in dependency order. Within
// one pipeline the source relation is cut into bounded row-range morsels
// (zero-copy views, `RunOptions::morsel_rows`, default ~64K rows) that
// flow through the order-preserving operators — Filter, Project,
// hash-join probe, and the micro-batch ModelEval stage wrapping batchable
// model calls — without ever materializing an intermediate relation;
// morsels run in parallel on the process-wide ThreadPool and their
// outputs are assembled in morsel order, so results are identical for
// every thread count.
//
// The executor is push-based at the top: breaker pipelines materialize,
// then the final (result) pipeline's chunks are handed to a ChunkSink in
// morsel order (`ExecuteStreamingToSink`). `ResultCursor` feeds that sink
// into a bounded queue for incremental consumption; `Run()`/`ExecutePlan`
// drain it synchronously and concatenate — one code path, two delivery
// modes, bit-identical results. Workers poll `ExecContext::cancel` at
// morsel boundaries so closed cursors / cancelled runs stop producing.
//
// Determinism contract (asserted by tests/streaming_parity_test.cc): the
// assembled stream equals the one-morsel run — every kernel applied once
// to the whole relation — row for row, because every streaming operator
// is order-preserving and per-row local (batchable model calls are
// row-local by contract, so ModelEval's micro-batches reassemble
// bit-identically), and every breaker (aggregate, sort, distinct, join
// build, non-batchable TVF/UDF) consumes the assembled stream. Morsel size
// therefore never changes results — only scheduling.
//
// Soft (trainable) runs take the same pipelines as one whole-relation
// morsel (`PartitionMorsels`), with one batch per ModelEval stage: the
// soft aggregate's autograd graph must span the full relation, and the
// gradients must not depend on how rows were scheduled.

#include "src/exec/streaming.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/primitive_cache.h"
#include "src/plan/pipeline.h"

namespace tdp {
namespace exec {
namespace {

using plan::LogicalNode;
using plan::NodeKind;
using plan::Pipeline;
using plan::PipelinePlan;
using plan::SinkKind;

/// Materialized state shared between pipelines of one run.
struct PipelineOutputs {
  /// Breaker node -> its materialized output chunk.
  std::unordered_map<const LogicalNode*, Chunk> chunks;
  /// Join node -> its build-side hash table (built by the kJoinBuild
  /// pipeline, probed by the streaming side). Shared pointers so a
  /// PrimitiveCache-reused build (keyed by table identity) plugs in
  /// without copying the table.
  std::unordered_map<const LogicalNode*, std::shared_ptr<const JoinHashTable>>
      joins;
};

/// Applies the pipeline's streaming operators to one morsel.
///
/// `stop_when_empty` (the streaming mode) drops a morsel as soon as it has
/// no rows: the assembled stream is the concatenation of the survivors, so
/// a morsel with nothing to contribute skips the operators after the one
/// that emptied it. The empty-stream fallback runs with
/// `stop_when_empty=false`, applying every operator to the empty relation
/// exactly like the one-morsel run, so an empty result still has the
/// plan's columns and dtypes.
StatusOr<Chunk> ApplyOps(const Pipeline& p, Chunk morsel,
                         const PipelineOutputs& outs, const ExecContext& ctx,
                         bool stop_when_empty) {
  for (const LogicalNode* op : p.ops) {
    if (stop_when_empty && morsel.num_rows() == 0) return morsel;
    switch (op->kind) {
      case NodeKind::kFilter: {
        TDP_ASSIGN_OR_RETURN(
            morsel, ExecuteFilter(static_cast<const plan::FilterNode&>(*op),
                                  morsel, ctx));
        break;
      }
      case NodeKind::kProject: {
        TDP_ASSIGN_OR_RETURN(
            morsel, ExecuteProject(static_cast<const plan::ProjectNode&>(*op),
                                   morsel, ctx));
        break;
      }
      case NodeKind::kJoin: {
        TDP_ASSIGN_OR_RETURN(
            morsel, ProbeJoin(static_cast<const plan::JoinNode&>(*op),
                              *outs.joins.at(op), morsel, ctx));
        break;
      }
      case NodeKind::kModelEval: {
        TDP_ASSIGN_OR_RETURN(
            morsel,
            ExecuteModelEval(static_cast<const plan::ModelEvalNode&>(*op),
                             morsel, ctx));
        break;
      }
      default:
        return Status::Internal("non-streaming operator in pipeline: " +
                                op->Describe());
    }
  }
  return morsel;
}

/// Resolves the pipeline's source relation: a table scan, the materialized
/// output of an upstream breaker pipeline, or a FROM-less Project.
StatusOr<Chunk> SourceChunk(const Pipeline& p, const PipelineOutputs& outs,
                            const ExecContext& ctx) {
  TDP_CHECK(p.source != nullptr);
  if (p.source_pipeline >= 0) return outs.chunks.at(p.source);
  if (p.source->kind == NodeKind::kScan) {
    return ExecuteScan(static_cast<const plan::ScanNode&>(*p.source), ctx);
  }
  TDP_CHECK(p.source->kind == NodeKind::kProject &&
            p.source->children.empty());
  return ExecuteProject(static_cast<const plan::ProjectNode&>(*p.source),
                        Chunk{}, ctx);
}

/// The result of streaming an empty relation: every operator runs over
/// zero rows, exactly as the one-morsel run does on an empty input, and
/// emits zero rows (a constant Project included).
StatusOr<Chunk> EmptyStreamResult(const Pipeline& p, const Chunk& src,
                                  const PipelineOutputs& outs,
                                  const ExecContext& ctx) {
  return ApplyOps(p, src.SliceRows(0, 0), outs, ctx,
                  /*stop_when_empty=*/false);
}

/// Morsel partition of a pipeline source — the single definition both the
/// materializing path (`RunPipeline`) and the sink path
/// (`StreamResultPipeline`) slice by, so the two can never disagree on
/// morsel boundaries (the parity suite holds them bit-identical).
struct MorselPartition {
  int64_t rows = 0;
  int64_t morsel_rows = 1;
  int64_t num_morsels = 0;  // 0 for an empty source
};

/// A soft run gets one whole-relation morsel, so its autograd graph spans
/// the relation whatever the run's morsel size.
MorselPartition PartitionMorsels(const Chunk& src, const ExecContext& ctx) {
  MorselPartition part;
  part.rows = src.num_rows();
  if (ctx.soft_mode) {
    part.morsel_rows = std::max<int64_t>(1, part.rows);
  } else {
    part.morsel_rows = std::max<int64_t>(
        1, ctx.morsel_rows > 0 ? ctx.morsel_rows : DefaultMorselRows());
  }
  part.num_morsels =
      part.rows == 0
          ? 0
          : (part.rows + part.morsel_rows - 1) / part.morsel_rows;
  return part;
}

/// One past the last row index Limit can emit: offset + limit, saturated
/// (`LIMIT 9e18 OFFSET 9e18` must not overflow).
int64_t LimitEnd(const plan::LimitNode& node) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  if (node.limit < 0) return kMax;
  if (node.offset > kMax - node.limit) return kMax;
  return node.offset + node.limit;
}

/// Assembles the kLimit sink: walks survivors in morsel order and
/// concatenates only the row range [offset, offset+limit) — the prefix
/// property of Limit makes this exactly the whole-relation Limit.
Chunk AssembleLimit(const plan::LimitNode& node, std::vector<Chunk> survivors) {
  const int64_t end = LimitEnd(node);
  std::vector<Chunk> taken;
  int64_t cum = 0;
  for (Chunk& c : survivors) {
    const int64_t n = c.num_rows();
    const int64_t lo = std::max(cum, node.offset);
    const int64_t hi = std::min(cum + n, end);
    if (hi > lo) taken.push_back(c.SliceRows(lo - cum, hi - lo));
    cum += n;
  }
  if (taken.empty()) return survivors.front().SliceRows(0, 0);
  return Chunk::Concat(taken);
}

/// Runs one pipeline: morselize the source, stream morsels through the
/// operators in parallel, assemble at the sink. Returns the chunk the
/// pipeline materializes (for kJoinBuild, the assembled build relation —
/// the caller hashes it).
StatusOr<Chunk> RunPipeline(const Pipeline& p, const PipelineOutputs& outs,
                            const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(CheckCancel(ctx));
  // Childless breakers (CREATE TABLE, INSERT ... VALUES) consume no
  // stream: the breaker kernel runs over an empty input.
  if (p.source == nullptr) return Chunk{};
  TDP_ASSIGN_OR_RETURN(Chunk src, SourceChunk(p, outs, ctx));

  const bool aggregate_sink = p.sink_kind == SinkKind::kAggregate;
  const plan::AggregateNode* agg_node =
      aggregate_sink ? static_cast<const plan::AggregateNode*>(p.sink)
                     : nullptr;

  // Operator-free pipelines are pure pass-throughs: skip morselization.
  if (p.ops.empty() && !aggregate_sink) {
    if (p.sink_kind == SinkKind::kLimit) {
      return ExecuteLimit(static_cast<const plan::LimitNode&>(*p.sink), src);
    }
    return src;
  }

  // Streaming Limit early-exit: when every operator preserves row counts
  // (Projects only), rows past offset+limit can never be emitted — slice
  // the source prefix instead of processing morsels that will be thrown
  // away at assembly.
  if (p.sink_kind == SinkKind::kLimit) {
    const auto& ln = static_cast<const plan::LimitNode&>(*p.sink);
    bool row_preserving = true;
    for (const LogicalNode* op : p.ops) {
      if (op->kind != NodeKind::kProject) row_preserving = false;
    }
    if (row_preserving && ln.limit >= 0) {
      src = src.SliceRows(0, std::min(src.num_rows(), LimitEnd(ln)));
    }
  }

  const auto [rows, morsel_rows, num_morsels] = PartitionMorsels(src, ctx);

  // Single-morsel (and empty-source) fast path: the morsel IS the whole
  // relation, so the operator chain runs on it directly — no slicing, no
  // per-morsel bookkeeping, no empty-morsel drop rule (that rule only
  // spares empty morsels the rest of the chain; with one batch the
  // whole-relation semantics apply verbatim).
  // This keeps point-query serving overhead low, and it is the path every
  // soft run takes, so the soft aggregate sees the whole relation.
  if (num_morsels <= 1) {
    TDP_ASSIGN_OR_RETURN(Chunk out, ApplyOps(p, std::move(src), outs, ctx,
                                             /*stop_when_empty=*/false));
    if (aggregate_sink) return ExecuteAggregate(*agg_node, out, ctx);
    if (p.sink_kind == SinkKind::kLimit) {
      return ExecuteLimit(static_cast<const plan::LimitNode&>(*p.sink), out);
    }
    return out;
  }

  // Morsels run in parallel on the pool (static partition; nested
  // ParallelFor calls inside the kernels run inline on the worker) and
  // land in slots indexed by morsel number, so assembly order — and with
  // it the result — is independent of the thread count.
  std::vector<Chunk> outputs(static_cast<size_t>(num_morsels));
  std::vector<AggInputs> agg_parts(
      aggregate_sink ? static_cast<size_t>(num_morsels) : 0);
  std::vector<Status> statuses(static_cast<size_t>(num_morsels));
  ParallelFor(0, num_morsels, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const size_t ui = static_cast<size_t>(i);
      // Cooperative cancellation at the morsel boundary: a cancelled run
      // skips every remaining morsel instead of racing to materialize.
      Status cancel = CheckCancel(ctx);
      if (!cancel.ok()) {
        statuses[ui] = std::move(cancel);
        continue;
      }
      const int64_t lo = i * morsel_rows;
      const int64_t hi = std::min(rows, lo + morsel_rows);
      StatusOr<Chunk> out = ApplyOps(p, src.SliceRows(lo, hi - lo), outs,
                                     ctx, /*stop_when_empty=*/true);
      if (!out.ok()) {
        statuses[ui] = out.status();
        continue;
      }
      if (aggregate_sink) {
        if (out->num_rows() == 0) continue;  // dropped morsel
        StatusOr<AggInputs> inputs = EvaluateAggInputs(*agg_node, *out, ctx);
        if (!inputs.ok()) {
          statuses[ui] = inputs.status();
          continue;
        }
        agg_parts[ui] = std::move(inputs).value();
      } else {
        outputs[ui] = std::move(out).value();
      }
    }
  });
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }

  if (aggregate_sink) {
    std::vector<const AggInputs*> parts;
    parts.reserve(agg_parts.size());
    for (const AggInputs& part : agg_parts) {
      if (part.rows > 0) parts.push_back(&part);
    }
    if (parts.empty()) {
      TDP_ASSIGN_OR_RETURN(Chunk empty, EmptyStreamResult(p, src, outs, ctx));
      TDP_ASSIGN_OR_RETURN(AggInputs inputs,
                           EvaluateAggInputs(*agg_node, empty, ctx));
      return FinalizeAggregate(*agg_node, inputs, ctx);
    }
    const AggInputs merged = MergeAggInputs(parts);
    return FinalizeAggregate(*agg_node, merged, ctx);
  }

  std::vector<Chunk> survivors;
  survivors.reserve(outputs.size());
  for (Chunk& out : outputs) {
    if (out.num_rows() > 0) survivors.push_back(std::move(out));
  }

  if (p.sink_kind == SinkKind::kLimit) {
    const auto& ln = static_cast<const plan::LimitNode&>(*p.sink);
    if (survivors.empty()) {
      TDP_ASSIGN_OR_RETURN(Chunk empty, EmptyStreamResult(p, src, outs, ctx));
      return ExecuteLimit(ln, empty);
    }
    return AssembleLimit(ln, std::move(survivors));
  }

  if (survivors.empty()) return EmptyStreamResult(p, src, outs, ctx);
  return Chunk::Concat(survivors);
}

/// Applies the whole-relation breaker kernel a kMaterialize pipeline
/// feeds: the assembled stream becomes the breaker node's output.
StatusOr<Chunk> ApplyBreaker(const LogicalNode& sink, Chunk input,
                             const PipelineOutputs& outs,
                             const ExecContext& ctx) {
  switch (sink.kind) {
    case NodeKind::kSort:
      return ExecuteSort(static_cast<const plan::SortNode&>(sink), input,
                         ctx);
    case NodeKind::kDistinct:
      return ExecuteDistinct(input);
    case NodeKind::kTvfScan:
      return ExecuteTvfScan(static_cast<const plan::TvfScanNode&>(sink),
                            std::move(input), ctx);
    // Non-batchable-UDF-bearing operators: the UDF body is a whole-batch
    // tensor program, so it sees the assembled relation, never a morsel.
    // That holds for filter predicates, projections, aggregate group keys
    // / arguments, and join residuals alike. (Batchable model calls never
    // reach here — they stream through a ModelEval stage.)
    case NodeKind::kFilter:
      return ExecuteFilter(static_cast<const plan::FilterNode&>(sink), input,
                           ctx);
    case NodeKind::kProject:
      return ExecuteProject(static_cast<const plan::ProjectNode&>(sink),
                            input, ctx);
    case NodeKind::kAggregate:
      return ExecuteAggregate(static_cast<const plan::AggregateNode&>(sink),
                              input, ctx);
    case NodeKind::kJoin:
      // UDF-bearing residual: probe the whole assembled left relation at
      // once.
      return ProbeJoin(static_cast<const plan::JoinNode&>(sink),
                       *outs.joins.at(&sink), input, ctx);
    case NodeKind::kIndexTopK:
      // Candidate ids address rows of the materialized scan; the ordered
      // k-row output then streams onward in morsel order like any other
      // breaker product, so cursor drains and streaming parity hold by
      // construction.
      return ExecuteIndexTopK(static_cast<const plan::IndexTopKNode&>(sink),
                              input, ctx);
    // DML breakers: the assembled input is the whole-relation source (the
    // full-table scan for UPDATE/DELETE, the SELECT child for INSERT ...
    // SELECT, empty for the childless forms), so the write delta — like
    // every breaker product — is independent of morsel size and thread
    // count.
    case NodeKind::kCreateTable:
      return ExecuteCreateTable(
          static_cast<const plan::CreateTableNode&>(sink), ctx);
    case NodeKind::kInsert:
      return ExecuteInsert(static_cast<const plan::InsertNode&>(sink), input,
                           ctx);
    case NodeKind::kUpdate:
      return ExecuteUpdate(static_cast<const plan::UpdateNode&>(sink), input,
                           ctx);
    case NodeKind::kDelete:
      return ExecuteDelete(static_cast<const plan::DeleteNode&>(sink), input,
                           ctx);
    default:
      return Status::Internal("unexpected breaker kind: " + sink.Describe());
  }
}

/// Streams the result pipeline into `sink`, chunk by chunk in morsel
/// order, instead of materializing it: morsels are processed in waves of
/// pool-width parallelism and each wave's surviving outputs are sunk as
/// soon as the wave completes, so the first chunk reaches the consumer
/// after ~one morsel's work rather than after the whole relation
/// (time-to-first-chunk << full-drain). The concatenation of the sunk
/// chunks is exactly what `RunPipeline` would have assembled — waves only
/// add barriers, never reorder — and a sink refusal (cursor closed) or a
/// cancelled token stops production at the next morsel boundary.
Status StreamResultPipeline(const Pipeline& p, const PipelineOutputs& outs,
                            const ExecContext& ctx, const ChunkSink& sink) {
  TDP_RETURN_NOT_OK(CheckCancel(ctx));
  TDP_ASSIGN_OR_RETURN(Chunk src, SourceChunk(p, outs, ctx));

  const auto fault = [&ctx](int64_t morsel_index) -> Status {
    if (ctx.morsel_fault != nullptr && *ctx.morsel_fault) {
      return (*ctx.morsel_fault)(morsel_index);
    }
    return Status::OK();
  };

  // Operator-free result pipelines (pure pass-throughs, e.g. the output
  // of a Sort/Limit breaker) yield their single assembled chunk.
  if (p.ops.empty()) {
    TDP_RETURN_NOT_OK(fault(0));
    return sink(std::move(src));
  }

  const auto [rows, morsel_rows, num_morsels] = PartitionMorsels(src, ctx);

  // Single-morsel (and empty-source) fast path, identical to RunPipeline's.
  if (num_morsels <= 1) {
    TDP_RETURN_NOT_OK(fault(0));
    TDP_ASSIGN_OR_RETURN(Chunk out, ApplyOps(p, std::move(src), outs, ctx,
                                             /*stop_when_empty=*/false));
    return sink(std::move(out));
  }

  // Wave width = pool width: every worker gets one morsel per wave, so a
  // wave costs ~one morsel of wall clock and the sink sees the first
  // chunk that early, while total parallelism matches the drain-all path.
  const int64_t wave =
      std::max<int64_t>(1, ThreadPool::Global().num_threads());
  std::vector<Chunk> outputs;
  std::vector<Status> statuses;
  bool sunk_any = false;
  for (int64_t wave_begin = 0; wave_begin < num_morsels;
       wave_begin += wave) {
    const int64_t wave_end = std::min(num_morsels, wave_begin + wave);
    const size_t wave_size = static_cast<size_t>(wave_end - wave_begin);
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    outputs.assign(wave_size, Chunk{});
    statuses.assign(wave_size, Status::OK());
    ParallelFor(wave_begin, wave_end, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        const size_t ui = static_cast<size_t>(i - wave_begin);
        Status st = CheckCancel(ctx);
        if (st.ok()) st = fault(i);
        if (!st.ok()) {
          statuses[ui] = std::move(st);
          continue;
        }
        const int64_t lo = i * morsel_rows;
        const int64_t hi = std::min(rows, lo + morsel_rows);
        StatusOr<Chunk> out = ApplyOps(p, src.SliceRows(lo, hi - lo), outs,
                                       ctx, /*stop_when_empty=*/true);
        if (!out.ok()) {
          statuses[ui] = out.status();
          continue;
        }
        outputs[ui] = std::move(out).value();
      }
    });
    for (const Status& st : statuses) {
      if (!st.ok()) return st;
    }
    for (Chunk& out : outputs) {
      if (out.num_rows() == 0) continue;  // dropped morsel
      TDP_RETURN_NOT_OK(sink(std::move(out)));
      sunk_any = true;
    }
  }

  if (!sunk_any) {
    // Every morsel filtered away: reproduce the one-morsel empty-relation
    // result, zero rows of the plan's columns.
    TDP_ASSIGN_OR_RETURN(Chunk empty, EmptyStreamResult(p, src, outs, ctx));
    return sink(std::move(empty));
  }
  return Status::OK();
}

/// True when this kJoinBuild pipeline's product is a pure function of the
/// scanned table: the source is a direct table scan and every operator is
/// a Filter/Project over cacheable (parameter/UDF-free) expressions. Such
/// a build can be keyed by (join node, table identity, device) in the
/// plan's PrimitiveCache and reused across runs until DML swaps the table.
bool CacheableJoinBuildPipeline(const Pipeline& p) {
  if (p.source == nullptr || p.source_pipeline >= 0 ||
      p.source->kind != NodeKind::kScan) {
    return false;
  }
  for (const LogicalNode* op : p.ops) {
    if (op->kind == NodeKind::kFilter) {
      const auto& f = static_cast<const plan::FilterNode&>(*op);
      if (f.predicate == nullptr || !CacheableExpr(*f.predicate)) {
        return false;
      }
    } else if (op->kind == NodeKind::kProject) {
      const auto& pr = static_cast<const plan::ProjectNode&>(*op);
      for (const BoundExprPtr& e : pr.exprs) {
        if (!CacheableExpr(*e)) return false;
      }
    } else {
      return false;  // ModelEval, probe stages, ... are not cacheable
    }
  }
  return true;
}

/// Produces the build-side hash table for a kJoinBuild pipeline, going
/// through the plan's PrimitiveCache when the build is cacheable: a hit
/// skips running the pipeline (and re-hashing) entirely; a miss builds and
/// installs the result for the next run. Spill-eligible runs (a memory
/// budget is set) and soft-mode runs bypass the cache.
StatusOr<std::shared_ptr<const JoinHashTable>> BuildOrReuseJoin(
    const Pipeline& p, const PipelineOutputs& outs, const ExecContext& ctx) {
  const auto& join = static_cast<const plan::JoinNode&>(*p.sink);
  std::shared_ptr<Table> table;
  if (ctx.primitive_cache != nullptr && !ctx.soft_mode &&
      ctx.memory == nullptr && CacheableJoinBuildPipeline(p)) {
    StatusOr<std::shared_ptr<Table>> resolved = ctx.catalog->GetTable(
        static_cast<const plan::ScanNode&>(*p.source).table_name);
    // Resolution failures fall through to the pipeline run, which reports
    // them with the scan's own diagnostics.
    if (resolved.ok()) {
      table = std::move(resolved).value();
      std::shared_ptr<const JoinHashTable> hit =
          ctx.primitive_cache->LookupJoin(p.sink, table, ctx.device);
      if (hit != nullptr) return hit;
    }
  }
  TDP_ASSIGN_OR_RETURN(Chunk produced, RunPipeline(p, outs, ctx));
  TDP_ASSIGN_OR_RETURN(JoinHashTable built,
                       BuildJoinHashTable(join, std::move(produced), ctx));
  auto ht = std::make_shared<const JoinHashTable>(std::move(built));
  if (table != nullptr && ht->spill_file.empty()) {
    ctx.primitive_cache->StoreJoin(p.sink, std::move(table), ctx.device, ht);
  }
  return ht;
}

Status ExecuteStreamingImpl(const PipelinePlan& pplan, const ExecContext& ctx,
                            const ChunkSink& sink) {
  PipelineOutputs outs;
  for (const Pipeline& p : pplan.pipelines) {
    if (p.sink_kind == SinkKind::kResult) {
      return StreamResultPipeline(p, outs, ctx, sink);
    }
    if (p.sink_kind == SinkKind::kJoinBuild) {
      TDP_ASSIGN_OR_RETURN(std::shared_ptr<const JoinHashTable> ht,
                           BuildOrReuseJoin(p, outs, ctx));
      outs.joins.emplace(p.sink, std::move(ht));
      continue;
    }
    TDP_ASSIGN_OR_RETURN(Chunk produced, RunPipeline(p, outs, ctx));
    switch (p.sink_kind) {
      case SinkKind::kResult:
      case SinkKind::kJoinBuild:
        break;  // handled above
      case SinkKind::kAggregate:
      case SinkKind::kLimit:
        // RunPipeline already produced the breaker's output.
        outs.chunks.emplace(p.sink, std::move(produced));
        break;
      case SinkKind::kMaterialize: {
        TDP_ASSIGN_OR_RETURN(
            Chunk result,
            ApplyBreaker(*p.sink, std::move(produced), outs, ctx));
        outs.chunks.emplace(p.sink, std::move(result));
        break;
      }
    }
  }
  return Status::Internal("pipeline plan has no result pipeline");
}

}  // namespace

Status ExecuteStreamingToSink(const PipelinePlan& pplan,
                              const ExecContext& ctx, const ChunkSink& sink) {
  return ExecuteStreamingImpl(pplan, ctx, sink);
}

StatusOr<Chunk> ExecutePlan(const PipelinePlan& pipelines,
                            const ExecContext& ctx) {
  // Run() is a thin drain of the same sink-based streaming executor the
  // cursor uses: collect the result pipeline's chunks and concatenate
  // them, which is bit-identical to the pre-cursor assembly.
  std::vector<Chunk> parts;
  TDP_RETURN_NOT_OK(ExecuteStreamingToSink(
      pipelines, ctx, [&parts](Chunk chunk) {
        parts.push_back(std::move(chunk));
        return Status::OK();
      }));
  TDP_CHECK(!parts.empty()) << "streaming executor sank no chunks";
  if (parts.size() == 1) return std::move(parts[0]);
  return Chunk::Concat(parts);
}

}  // namespace exec
}  // namespace tdp
