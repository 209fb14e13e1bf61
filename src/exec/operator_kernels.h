#ifndef TDP_EXEC_OPERATOR_KERNELS_H_
#define TDP_EXEC_OPERATOR_KERNELS_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/bound_expr.h"
#include "src/exec/key_table.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

struct SpilledJoinBuild;  // spill_kernels.h

/// Expression-evaluation options for one run: the device, the `?`
/// bindings, the batchable-UDF dispatch seam and the cancellation token.
inline EvalOptions EvalOpts(const ExecContext& ctx) {
  EvalOptions opts;
  opts.device = ctx.device;
  opts.params = ctx.params;
  opts.udf_dispatch = ctx.udf_dispatch;
  opts.cancel = ctx.cancel;
  return opts;
}

// Per-operator execution kernels of the streaming executor
// (`ExecutePlan`, streaming.cc): the order-preserving kernels (scan,
// filter, project, join probe, ModelEval) run on bounded row-range
// morsels, and the breaker kernels (aggregate finalize, sort, distinct,
// TVF) on deterministically assembled streams. Every kernel is either
// row-local or sees the whole assembled relation, so results are
// bit-identical at any thread count and morsel size — the invariant the
// streaming parity suite asserts against the one-morsel run, which
// applies each kernel once to the whole relation.

// ---- Streaming operators (order-preserving, morsel-safe) -------------------

/// Resolves the scan's table from the run's catalog snapshot, validates the
/// bound schema, and returns the (zero-copy) column handles on the
/// execution device.
StatusOr<Chunk> ExecuteScan(const plan::ScanNode& node, const ExecContext& ctx);

StatusOr<Chunk> ExecuteFilter(const plan::FilterNode& node, const Chunk& input,
                              const ExecContext& ctx);

StatusOr<Chunk> ExecuteProject(const plan::ProjectNode& node,
                               const Chunk& input, const ExecContext& ctx);

/// Micro-batch model evaluation (the streaming form of a batchable
/// Filter/Project/TVF): slices `morsel` into `batch_rows`-row batches
/// (ctx.model_batch_rows overrides the node's compiled size when set),
/// runs the wrapped operator's kernel per batch, and concatenates outputs
/// in slice order. Because batchable bodies are row-local, the reassembled
/// result is bit-identical to evaluating the whole morsel at once — and,
/// transitively, to the whole-relation breaker path this stage replaced.
/// Zero- and single-batch inputs take a direct single call (preserving the
/// breaker path's empty-input semantics exactly), and so do soft runs,
/// whose autograd graph would otherwise change with the batch size. Polls
/// `ctx.cancel` between batches.
StatusOr<Chunk> ExecuteModelEval(const plan::ModelEvalNode& node,
                                 const Chunk& morsel, const ExecContext& ctx);

// ---- Hash join: build consumer + streaming probe ---------------------------

/// The build side of a hash join, materialized by the build pipeline.
/// Probe emission order is deterministic by construction: matches for a
/// probe row come out in ascending build-row order (`JoinIndex` keeps each
/// key's build rows sorted).
struct JoinHashTable {
  /// The join's materialized build side: the right child by default, the
  /// left when the optimizer flipped `JoinNode::build_left` (smaller
  /// estimated input).
  Chunk build;
  /// Build-side join codes (`ComputeJoinKeyCodes`) -> build rows,
  /// ascending. Rows whose key holds a NaN are left out: they never match.
  JoinIndex index;
  /// Set instead of `build`/`index` when the build went grace (the build
  /// footprint exceeded the run's `MemoryBudget`): the payload lives in
  /// per-partition spill files and `ProbeJoin` dispatches to
  /// `ProbeSpilledJoin`. Shared so morsel probes can run concurrently.
  std::shared_ptr<const SpilledJoinBuild> spilled;
};

/// Builds the hash table over the join's build child output (see
/// `JoinNode::build_left`). Pure-residual joins (no equi keys) leave
/// `index` empty and probe as a per-morsel cartesian product.
StatusOr<JoinHashTable> BuildJoinHashTable(const plan::JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx);

/// Probes `probe` (a morsel of the join's probe-child stream) against the
/// build table: emits matches in probe-row-major order, applies the
/// residual predicate, and assembles the joined chunk in schema order
/// (left child's columns first, whichever side was the build) — the same
/// row order whether `probe` is one morsel or the whole relation.
StatusOr<Chunk> ProbeJoin(const plan::JoinNode& node, const JoinHashTable& ht,
                          const Chunk& probe, const ExecContext& ctx);

// ---- Aggregate: per-morsel input evaluation + deterministic finalize -------

/// Per-morsel partial state of the aggregate consumer: the evaluated group
/// key columns and aggregate argument columns. Evaluation (the tensor-
/// program part) runs morsel-parallel; the merge concatenates parts in
/// morsel order, so the reduction tree seen by `FinalizeAggregate` depends
/// only on the total row sequence — never on morsel size or thread count.
struct AggInputs {
  int64_t rows = 0;
  std::vector<Column> key_columns;  // one per group expr
  std::vector<Column> arg_columns;  // one per aggregate; undefined if no arg
};

StatusOr<AggInputs> EvaluateAggInputs(const plan::AggregateNode& node,
                                      const Chunk& input,
                                      const ExecContext& ctx);

/// Concatenates per-morsel parts in morsel order (the deterministic merge
/// at the breaker).
AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts);

/// Checks the aggregate arguments, then groups, accumulates (fixed
/// 4096-row blocks, block-order combine) and materializes the aggregate
/// output columns — in memory, or paged through `SpilledFinalizeAggregate`
/// when the run's budget is exceeded. Groups come out in key order: a
/// `KeyTable` over the keys' order-preserving codes numbers them by first
/// occurrence (each group's first row is its representative), then
/// ranking the distinct keys renumbers them into code order.
StatusOr<Chunk> FinalizeAggregate(const plan::AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx);

// ---- Aggregate accumulation, shared by the in-memory and paged kernels -----
//
// Both kernels fold rows into per-group accumulators in fixed blocks of
// `kAggBlock` rows. When `AggFoldsBlocks` holds, each block accumulates
// into partials of its own, and the partials fold into the totals in block
// order; otherwise the rows accumulate straight into the totals. The
// floating-point reduction tree thus depends only on the row count, and
// the paged kernel, whose pages are these blocks, reproduces it operation
// for operation.

/// Rows per accumulation block, and per page of the paged aggregate.
constexpr int64_t kAggBlock = 4096;

/// Whether one aggregate over `rows` rows and `num_groups` groups folds
/// per-block partials: only when the fold (one entry per block and group)
/// costs no more than the rows it splits, and never for DISTINCT, whose
/// table of seen pairs spans every row.
inline bool AggFoldsBlocks(const plan::AggDef& def, int64_t rows,
                           int64_t num_groups) {
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;
  return !def.distinct && num_blocks > 1 && num_blocks * num_groups <= rows;
}

/// Per-group accumulators of one aggregate: the running sum or extreme,
/// the rows counted, and whether any row has reached the group.
struct AggAccumulators {
  explicit AggAccumulators(int64_t slots) { Reset(slots); }
  void Reset(int64_t slots) {
    acc.assign(static_cast<size_t>(slots), 0.0);
    counts.assign(static_cast<size_t>(slots), 0);
    has.assign(static_cast<size_t>(slots), 0);
  }
  std::vector<double> acc;
  std::vector<int64_t> counts;
  std::vector<unsigned char> has;
};

/// Accumulates rows `begin` .. `end - 1` of aggregate `def` into the slots
/// `base + group[r]` of `out`; `values[r]` is row r's argument (unread
/// without one). For COUNT(DISTINCT), row r counts only when its (group,
/// value code) key in `distinct` is new to `seen`.
inline void AccumulateAggRows(const plan::AggDef& def, int64_t begin,
                              int64_t end, const int64_t* group,
                              const double* values, const KeyColumns& distinct,
                              KeyTable& seen, AggAccumulators& out,
                              size_t base) {
  double* acc = out.acc.data() + base;
  int64_t* counts = out.counts.data() + base;
  unsigned char* has = out.has.data() + base;
  for (int64_t r = begin; r < end; ++r) {
    const size_t g = static_cast<size_t>(group[r]);
    if (def.distinct && def.arg) {
      bool inserted = false;
      seen.Insert(distinct, r, &inserted);
      if (!inserted) continue;
    }
    const double v = def.arg ? values[r] : 0.0;
    switch (def.kind) {
      case plan::AggKind::kCountStar:
      case plan::AggKind::kCount:
        break;
      case plan::AggKind::kSum:
      case plan::AggKind::kAvg:
        acc[g] += v;
        break;
      case plan::AggKind::kMin:
        acc[g] = has[g] ? std::min(acc[g], v) : v;
        break;
      case plan::AggKind::kMax:
        acc[g] = has[g] ? std::max(acc[g], v) : v;
        break;
    }
    has[g] = 1;
    ++counts[g];
  }
}

/// Folds the `num_groups` partials of one block, at slots `base` ..
/// `base + num_groups - 1` of `block`, into the totals.
inline void FoldAggBlock(plan::AggKind kind, int64_t num_groups,
                         const AggAccumulators& block, size_t base,
                         AggAccumulators& total) {
  const double* blk_acc = block.acc.data() + base;
  const int64_t* blk_counts = block.counts.data() + base;
  const unsigned char* blk_has = block.has.data() + base;
  double* acc = total.acc.data();
  int64_t* counts = total.counts.data();
  unsigned char* has = total.has.data();
  for (size_t g = 0; g < static_cast<size_t>(num_groups); ++g) {
    if (!blk_has[g]) continue;
    switch (kind) {
      case plan::AggKind::kCountStar:
      case plan::AggKind::kCount:
        break;
      case plan::AggKind::kSum:
      case plan::AggKind::kAvg:
        acc[g] += blk_acc[g];
        break;
      case plan::AggKind::kMin:
        acc[g] = has[g] ? std::min(acc[g], blk_acc[g]) : blk_acc[g];
        break;
      case plan::AggKind::kMax:
        acc[g] = has[g] ? std::max(acc[g], blk_acc[g]) : blk_acc[g];
        break;
    }
    has[g] = 1;
    counts[g] += blk_counts[g];
  }
}

/// The group key output columns: for each group, in rank order, the key
/// columns' values at its first row (`first_rows[id]` for key-table id
/// `id`, whose rank is `rank[id]`). Probability-encoded keys are
/// hard-decoded — the exact operator swap of §4. Empty without GROUP BY.
Chunk GroupKeyColumns(const plan::AggregateNode& node, const AggInputs& inputs,
                      const std::vector<int64_t>& rank,
                      const std::vector<int64_t>& first_rows, Device device);

/// The aggregate over one whole input relation: the soft
/// (differentiable) COUNT(*) group-by when a soft run groups by
/// probability-encoded keys, else `EvaluateAggInputs` +
/// `FinalizeAggregate`. The soft operator's autograd graph spans the
/// relation, so it is only reached with the whole relation (a soft run is
/// one morsel).
StatusOr<Chunk> ExecuteAggregate(const plan::AggregateNode& node,
                                 const Chunk& input, const ExecContext& ctx);

/// One aggregate's output column from its per-group accumulators: the
/// count for COUNT, the sum for SUM, sum / count for AVG, the running
/// extreme for MIN/MAX, each cast to `dtype` (the schema's output type).
/// Shared by `FinalizeAggregate` and `SpilledFinalizeAggregate`.
Column AggregateOutputColumn(plan::AggKind kind, DType dtype,
                             const std::vector<double>& acc,
                             const std::vector<int64_t>& counts,
                             Device device);

// ---- Breakers (whole-relation kernels) -------------------------------------

StatusOr<Chunk> ExecuteTvfScan(const plan::TvfScanNode& node, Chunk input,
                               const ExecContext& ctx);
StatusOr<Chunk> ExecuteSort(const plan::SortNode& node, const Chunk& input,
                            const ExecContext& ctx);
StatusOr<Chunk> ExecuteLimit(const plan::LimitNode& node, const Chunk& input);
/// Keeps the first row of each distinct whole-row key (a `KeyTable` over
/// the columns' order-preserving codes), in input order.
StatusOr<Chunk> ExecuteDistinct(const Chunk& input);

/// Index-accelerated top-k similarity (see `plan::IndexTopKNode`): probes
/// the run snapshot's vector index for candidate rows
/// (`ExecContext::vector_search` cells; 0 = all), re-ranks them exactly
/// with the plan's own sort keys (`SortRows`, the comparator of ORDER BY,
/// so full-probe results are bit-identical to the Sort+Limit plan the
/// node replaced), and projects the winners. Falls back to that exact
/// computation when the snapshot no longer holds a valid index.
StatusOr<Chunk> ExecuteIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& input, const ExecContext& ctx);

// ---- DDL / DML kernels (root breakers) -------------------------------------
//
// Each computes its write delta against the run's immutable snapshot
// (`ctx.catalog`), installs it through `ctx.writer->ApplyDmlWrite` (or
// RegisterTable for CREATE TABLE), and returns the single-row
// `rows_affected` chunk the plan's schema declares. A lost write-write
// race surfaces as a retryable ExecutionError; a null `ctx.writer` as a
// clean "read-only execution context" error. Index entries over the
// written table travel with the swap: INSERT extends them incrementally
// (IvfIndex::WithAppended), DELETE re-tags them (shared index storage, the
// deleted-row bitmap filters probes), UPDATE re-tags only when the write
// provably preserved physical row identity of the indexed column.

StatusOr<Chunk> ExecuteCreateTable(const plan::CreateTableNode& node,
                                   const ExecContext& ctx);
/// `source` is the evaluated SELECT child for INSERT ... SELECT; pass an
/// empty chunk for the VALUES form (rows evaluated from `node.rows`).
StatusOr<Chunk> ExecuteInsert(const plan::InsertNode& node,
                              const Chunk& source, const ExecContext& ctx);
/// `input` is the full-table scan of children[0] (old rows).
StatusOr<Chunk> ExecuteUpdate(const plan::UpdateNode& node,
                              const Chunk& input, const ExecContext& ctx);
StatusOr<Chunk> ExecuteDelete(const plan::DeleteNode& node,
                              const Chunk& input, const ExecContext& ctx);

}  // namespace exec
}  // namespace tdp

#endif  // TDP_EXEC_OPERATOR_KERNELS_H_
