#ifndef TDP_EXEC_OPERATOR_KERNELS_H_
#define TDP_EXEC_OPERATOR_KERNELS_H_

#include <string>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/bound_expr.h"
#include "src/exec/key_table.h"
#include "src/exec/operators.h"
#include "src/plan/logical_plan.h"

namespace tdp {
namespace exec {

/// Expression-evaluation options for one run: the device and the `?`
/// bindings.
inline EvalOptions EvalOpts(const ExecContext& ctx) {
  EvalOptions opts;
  opts.device = ctx.device;
  opts.params = ctx.params;
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
/// Filter/Project/TVF): slices `morsel` into `batch_rows`-row batches,
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
  /// estimated input). When the payload spilled, a 0-row prototype of it:
  /// the schema, encodings and dictionaries the probe's output takes.
  Chunk build;
  /// Build-side join codes (`ComputeJoinKeyCodes`) -> build rows,
  /// ascending. Rows whose key holds a NaN are left out: they never match.
  JoinIndex index;
  /// Set when the build's payload went to disk because it exceeded the
  /// run's memory budget: the `WritePages` file holding the build rows in
  /// build-row order, from which each probe gathers its matched rows
  /// (`GatherPages`). The index stays resident either way.
  std::string spill_file;
};

/// Builds the hash table over the join's build child output (see
/// `JoinNode::build_left`), spilling the payload when it exceeds the run's
/// budget. Pure-residual joins (no equi keys) leave `index` empty, never
/// spill, and probe as a per-morsel cartesian product.
StatusOr<JoinHashTable> BuildJoinHashTable(const plan::JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx);

/// Probes `probe` (a morsel of the join's probe-child stream) against the
/// build table: emits matches in probe-row-major order, applies the
/// residual predicate, and assembles the joined chunk in schema order
/// (left child's columns first, whichever side was the build) — the same
/// row order whether `probe` is one morsel or the whole relation, and
/// whether the build side is resident or spilled.
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
/// at the breaker). A column that is, in every part, the same as an
/// earlier key or argument (`MIN(x), MAX(x)`) is concatenated once and
/// shared.
AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts);

/// Checks the aggregate arguments, then groups, accumulates (fixed
/// 4096-row blocks, block-order combine) and materializes the aggregate
/// output columns. Over the run's budget it computes the same result a
/// 4096-row page at a time from the resident inputs, never materializing
/// a whole-relation code, argument or group array. Groups come out in key
/// order, each represented by its first row. Keys whose order codes span
/// no more values than there are rows group by their slot in that dense
/// range; other keys, and every key in the paged kernel, through a
/// `KeyTable` whose distinct keys are then ranked. The two ways give the
/// same bits.
StatusOr<Chunk> FinalizeAggregate(const plan::AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx);

/// The aggregate over one whole input relation: the soft
/// (differentiable) COUNT(*) group-by when a soft run groups by
/// probability-encoded keys, else `EvaluateAggInputs` +
/// `FinalizeAggregate`. The soft operator's autograd graph spans the
/// relation, so it is only reached with the whole relation (a soft run is
/// one morsel).
StatusOr<Chunk> ExecuteAggregate(const plan::AggregateNode& node,
                                 const Chunk& input, const ExecContext& ctx);

// ---- Breakers (whole-relation kernels) -------------------------------------

StatusOr<Chunk> ExecuteTvfScan(const plan::TvfScanNode& node, Chunk input,
                               const ExecContext& ctx);
StatusOr<Chunk> ExecuteSort(const plan::SortNode& node, const Chunk& input,
                            const ExecContext& ctx);
StatusOr<Chunk> ExecuteLimit(const plan::LimitNode& node, const Chunk& input);
/// Keeps the first row of each distinct whole-row key (a `KeyTable` over
/// the columns' order-preserving codes), in input order.
StatusOr<Chunk> ExecuteDistinct(const Chunk& input);

/// Index-accelerated top-k similarity (see `plan::IndexTopKNode`): takes
/// the rows that pass the predicate as candidates, narrowed by one probe
/// of the run snapshot's vector index at a partial budget
/// (`ExecContext::vector_search` cells) — or, for a post-filter plan,
/// probes first and filters the probed rows — then projects the
/// candidates and keeps the first k under the plan's own sort keys
/// (`SortRows`, the comparator of ORDER BY, so full-budget results are
/// bit-identical to the Sort+Limit plan the node replaced). Without a
/// valid index in the snapshot it ranks every surviving row.
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
