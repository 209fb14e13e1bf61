#include "src/exec/operators.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/exec/bound_expr.h"
#include "src/exec/key_table.h"
#include "src/exec/operator_kernels.h"
#include "src/exec/primitive_cache.h"
#include "src/exec/soft_ops.h"
#include "src/exec/spill_kernels.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

using plan::AggDef;
using plan::AggKind;
using plan::AggregateNode;
using plan::FilterNode;
using plan::JoinNode;
using plan::LimitNode;
using plan::ProjectNode;
using plan::ScanNode;
using plan::SortNode;
using plan::TvfScanNode;

// The argument checks of FinalizeAggregate, made before either kernel
// reads a row: a string column can only be COUNTed, and every argument
// must be a scalar column.
Status CheckAggArguments(const AggregateNode& node, const AggInputs& inputs) {
  for (size_t d = 0; d < node.aggregates.size(); ++d) {
    const AggDef& def = node.aggregates[d];
    if (!def.arg) continue;
    const Column& arg_col = inputs.arg_columns[d];
    if (arg_col.encoding() == Encoding::kDictionary &&
        def.kind != AggKind::kCount) {
      return Status::TypeError("cannot " +
                               std::string(plan::AggKindName(def.kind)) +
                               " a string column");
    }
    if (arg_col.DecodeValues().dim() != 1) {
      return Status::TypeError("aggregate argument must be a scalar column");
    }
  }
  return Status::OK();
}

}  // namespace

// ---- Scan -------------------------------------------------------------------

StatusOr<Chunk> ExecuteScan(const ScanNode& node, const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                       ctx.catalog->GetTable(node.table_name));
  // The catalog may hold a newer registration of this table (training
  // loops re-register inputs); validate it still matches the bound schema.
  // Downstream expressions read columns by position, so both the count and
  // the per-position names must still agree — a reordered/renamed
  // re-registration has to fail loudly, never silently read wrong data.
  Chunk chunk;
  if (node.projected_columns.empty()) {
    if (static_cast<size_t>(table->num_columns()) != node.schema.size()) {
      return Status::ExecutionError(
          "table " + node.table_name +
          " changed shape since compilation; re-compile the query");
    }
    for (size_t i = 0; i < node.schema.size(); ++i) {
      if (!EqualsIgnoreCase(table->column_names()[i], node.schema[i].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + table->column_names()[i] +
            "' (compiled against '" + node.schema[i].name +
            "'); re-compile the query");
      }
    }
    chunk = Chunk::FromTable(*table);
  } else {
    for (size_t k = 0; k < node.projected_columns.size(); ++k) {
      const int64_t i = node.projected_columns[k];
      if (i >= table->num_columns()) {
        return Status::ExecutionError(
            "table " + node.table_name +
            " changed shape since compilation; re-compile the query");
      }
      const std::string& name =
          table->column_names()[static_cast<size_t>(i)];
      if (!EqualsIgnoreCase(name, node.schema[k].name)) {
        return Status::ExecutionError(
            "table " + node.table_name + " column " + std::to_string(i) +
            " is now '" + name + "' (compiled against '" +
            node.schema[k].name + "'); re-compile the query");
      }
      chunk.names.push_back(name);
      chunk.columns.push_back(table->column(i));
    }
  }
  // Move data to the execution device if the table lives elsewhere. The
  // transfer copies every column, so repeated prepared-statement runs keep
  // the moved columns in the per-plan cache, keyed by table identity —
  // DML installs a fresh Table object, which misses and re-transfers.
  // Sharing the cached copy across runs aliases no more than the
  // same-device path below, which hands out the table's own columns.
  bool needs_move = false;
  for (const Column& c : chunk.columns) {
    if (c.data().device() != ctx.device) {
      needs_move = true;
      break;
    }
  }
  if (!needs_move) return chunk;
  if (ctx.primitive_cache != nullptr) {
    std::shared_ptr<const Table> key = table;
    if (auto cached = ctx.primitive_cache->LookupScan(&node, key, ctx.device)) {
      chunk.columns = *cached;
      return chunk;
    }
    for (Column& c : chunk.columns) {
      if (c.data().device() != ctx.device) c = c.To(ctx.device);
    }
    ctx.primitive_cache->StoreScan(
        &node, std::move(key), ctx.device,
        std::make_shared<const std::vector<Column>>(chunk.columns));
    return chunk;
  }
  for (Column& c : chunk.columns) {
    if (c.data().device() != ctx.device) c = c.To(ctx.device);
  }
  return chunk;
}

StatusOr<Chunk> ExecuteTvfScan(const TvfScanNode& node, Chunk input,
                               const ExecContext& ctx) {
  for (Column& c : input.columns) {
    if (c.data().device() != ctx.device) c = c.To(ctx.device);
  }
  TDP_ASSIGN_OR_RETURN(Chunk out, node.fn->fn(input, node.args, ctx.device));
  if (out.names.size() != node.fn->output_schema.size()) {
    return Status::ExecutionError(
        "TVF " + node.fn->name + " returned " +
        std::to_string(out.names.size()) + " columns, declared " +
        std::to_string(node.fn->output_schema.size()));
  }
  return out;
}

// ---- Filter / Project -------------------------------------------------------

StatusOr<Chunk> ExecuteFilter(const FilterNode& node, const Chunk& input,
                              const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(
      Tensor mask,
      EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  return input.Select(NonZero(mask));
}

StatusOr<Chunk> ExecuteProject(const ProjectNode& node, const Chunk& input,
                               const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], input, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// ---- ModelEval (streaming micro-batch model evaluation) ---------------------

StatusOr<Chunk> ExecuteModelEval(const plan::ModelEvalNode& node,
                                 const Chunk& morsel, const ExecContext& ctx) {
  TDP_CHECK(node.wrapped != nullptr);
  const auto run_wrapped = [&](const Chunk& batch) -> StatusOr<Chunk> {
    switch (node.wrapped->kind) {
      case plan::NodeKind::kFilter:
        return ExecuteFilter(static_cast<const FilterNode&>(*node.wrapped),
                             batch, ctx);
      case plan::NodeKind::kProject:
        return ExecuteProject(static_cast<const ProjectNode&>(*node.wrapped),
                              batch, ctx);
      case plan::NodeKind::kTvfScan:
        return ExecuteTvfScan(static_cast<const TvfScanNode&>(*node.wrapped),
                              batch, ctx);
      default:
        return Status::Internal("ModelEval wraps unsupported operator: " +
                                node.wrapped->Describe());
    }
  };
  const int64_t batch_rows = std::max<int64_t>(node.batch_rows, 1);
  const int64_t rows = morsel.num_rows();
  // Zero or one batch: a single direct call, exactly what the breaker path
  // would have done with this input (empty inputs included — TVF bodies
  // already handle 0-row chunks on the materialized path). Soft runs always
  // take it: one forward keeps the autograd graph, and with it every
  // gradient bit, independent of the batch size.
  if (ctx.soft_mode || rows <= batch_rows) return run_wrapped(morsel);
  std::vector<Chunk> outputs;
  outputs.reserve(static_cast<size_t>((rows + batch_rows - 1) / batch_rows));
  for (int64_t start = 0; start < rows; start += batch_rows) {
    TDP_RETURN_NOT_OK(CheckCancel(ctx));
    const int64_t count = std::min(batch_rows, rows - start);
    TDP_ASSIGN_OR_RETURN(Chunk out,
                         run_wrapped(morsel.SliceRows(start, count)));
    outputs.push_back(std::move(out));
  }
  // Slice-order reassembly: row-locality of batchable bodies makes this
  // concatenation bit-identical to one whole-morsel evaluation.
  return Chunk::Concat(outputs);
}

// ---- Aggregate --------------------------------------------------------------

StatusOr<AggInputs> EvaluateAggInputs(const AggregateNode& node,
                                      const Chunk& input,
                                      const ExecContext& ctx) {
  AggInputs out;
  out.rows = input.num_rows();
  out.key_columns.reserve(node.group_exprs.size());
  for (const auto& expr : node.group_exprs) {
    TDP_ASSIGN_OR_RETURN(
        Column key,
        EvaluateExprToColumn(*expr, input, EvalOpts(ctx)));
    out.key_columns.push_back(std::move(key));
  }
  out.arg_columns.reserve(node.aggregates.size());
  for (const AggDef& def : node.aggregates) {
    if (def.arg) {
      TDP_ASSIGN_OR_RETURN(
          Column arg,
          EvaluateExprToColumn(*def.arg, input, EvalOpts(ctx)));
      out.arg_columns.push_back(std::move(arg));
    } else {
      out.arg_columns.emplace_back();
    }
  }
  return out;
}

AggInputs MergeAggInputs(const std::vector<const AggInputs*>& parts) {
  TDP_CHECK(!parts.empty());
  if (parts.size() == 1) return *parts[0];
  AggInputs out;
  std::vector<Column> column_parts(parts.size());
  const size_t num_keys = parts[0]->key_columns.size();
  out.key_columns.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    for (size_t p = 0; p < parts.size(); ++p) {
      column_parts[p] = parts[p]->key_columns[k];
    }
    out.key_columns.push_back(Column::Concat(column_parts));
  }
  const size_t num_args = parts[0]->arg_columns.size();
  out.arg_columns.reserve(num_args);
  for (size_t a = 0; a < num_args; ++a) {
    if (!parts[0]->arg_columns[a].defined()) {
      out.arg_columns.emplace_back();
      continue;
    }
    for (size_t p = 0; p < parts.size(); ++p) {
      column_parts[p] = parts[p]->arg_columns[a];
    }
    out.arg_columns.push_back(Column::Concat(column_parts));
  }
  for (const AggInputs* p : parts) out.rows += p->rows;
  return out;
}

StatusOr<Chunk> FinalizeAggregate(const AggregateNode& node,
                                  const AggInputs& inputs,
                                  const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(CheckAggArguments(node, inputs));
  const int64_t rows = inputs.rows;

  // Scratch this kernel materializes beyond the (caller-owned) evaluated
  // inputs: key codes, argument doubles, distinct codes, and the per-row
  // group array. Over budget -> the paged two-pass path, bit-identical.
  const int64_t scratch =
      rows * 8 *
      static_cast<int64_t>(inputs.key_columns.size() +
                           node.aggregates.size() + 2);
  if (ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
      ctx.memory->ShouldSpill(scratch)) {
    return SpilledFinalizeAggregate(node, inputs, ctx);
  }
  const ScopedReservation reservation(ctx.memory, scratch);

  // Group ids. The key table numbers distinct keys in first-occurrence
  // order, so each group's first row (its representative) falls out of
  // the insert pass; ranking the distinct keys then renumbers the groups
  // in code order, which is value order. Without GROUP BY every row
  // belongs to the single group 0.
  std::vector<int64_t> row_group(static_cast<size_t>(rows), 0);
  std::vector<int64_t> rank, first_rows;
  int64_t num_groups = 1;
  if (!node.group_exprs.empty()) {
    std::vector<std::vector<int64_t>> key_codes;
    key_codes.reserve(inputs.key_columns.size());
    for (const Column& key : inputs.key_columns) {
      TDP_ASSIGN_OR_RETURN(std::vector<int64_t> codes,
                           OrderPreservingCodes(key));
      key_codes.push_back(std::move(codes));
    }
    const KeyColumns cols = ColumnsOf(key_codes);
    KeyTable groups(static_cast<int64_t>(cols.size()));
    for (int64_t r = 0; r < rows; ++r) {
      bool inserted = false;
      row_group[static_cast<size_t>(r)] = groups.Insert(cols, r, &inserted);
      if (inserted) first_rows.push_back(r);
    }
    rank = groups.SortedRanks();
    num_groups = groups.size();
    ParallelFor(0, rows, GrainForCost(2), [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        int64_t& g = row_group[static_cast<size_t>(r)];
        g = rank[static_cast<size_t>(g)];
      }
    });
  }

  Chunk out = GroupKeyColumns(node, inputs, rank, first_rows, ctx.device);

  // Aggregates. Rows fold in fixed blocks whose partials combine in block
  // order (see `AggFoldsBlocks`), so the floating-point reduction tree
  // depends only on the row count — results are identical for every
  // TDP_NUM_THREADS and every morsel size (the streaming executor merges
  // per-morsel inputs in morsel order before this accumulation).
  const int64_t num_blocks = (rows + kAggBlock - 1) / kAggBlock;
  for (size_t def_index = 0; def_index < node.aggregates.size(); ++def_index) {
    const AggDef& def = node.aggregates[def_index];
    std::vector<double> arg_values;
    std::vector<int64_t> arg_codes;  // for DISTINCT
    if (def.arg) {
      const Column& arg_col = inputs.arg_columns[def_index];
      arg_values =
          arg_col.DecodeValues().To(DType::kFloat64).ToVector<double>();
      if (def.distinct) {
        TDP_ASSIGN_OR_RETURN(arg_codes, OrderPreservingCodes(arg_col));
      }
    }
    // COUNT(DISTINCT): a row counts when its (group, value) pair is new.
    KeyTable distinct_seen(2);
    const KeyColumns distinct_cols = {row_group.data(), arg_codes.data()};

    AggAccumulators total(num_groups);
    if (AggFoldsBlocks(def, rows, num_groups)) {
      AggAccumulators blocks(num_blocks * num_groups);
      ParallelFor(0, num_blocks, GrainForCost(kAggBlock),
                  [&](int64_t block_begin, int64_t block_end) {
                    for (int64_t blk = block_begin; blk < block_end; ++blk) {
                      const int64_t lo = blk * kAggBlock;
                      AccumulateAggRows(
                          def, lo, std::min(rows, lo + kAggBlock),
                          row_group.data(), arg_values.data(), distinct_cols,
                          distinct_seen, blocks,
                          static_cast<size_t>(blk * num_groups));
                    }
                  });
      for (int64_t blk = 0; blk < num_blocks; ++blk) {
        FoldAggBlock(def.kind, num_groups, blocks,
                     static_cast<size_t>(blk * num_groups), total);
      }
    } else {
      AccumulateAggRows(def, 0, rows, row_group.data(), arg_values.data(),
                        distinct_cols, distinct_seen, total, 0);
    }

    out.names.push_back(def.name);
    out.columns.push_back(AggregateOutputColumn(
        def.kind, node.schema[node.group_exprs.size() + def_index].dtype,
        total.acc, total.counts, ctx.device));
  }
  return out;
}

Chunk GroupKeyColumns(const AggregateNode& node, const AggInputs& inputs,
                      const std::vector<int64_t>& rank,
                      const std::vector<int64_t>& first_rows, Device device) {
  Chunk out;
  if (node.group_exprs.empty()) return out;
  std::vector<int64_t> representative(rank.size());
  for (size_t id = 0; id < rank.size(); ++id) {
    representative[static_cast<size_t>(rank[id])] = first_rows[id];
  }
  const Tensor rep = Tensor::FromVector(representative, {}, device);
  for (size_t k = 0; k < inputs.key_columns.size(); ++k) {
    Column key_col = inputs.key_columns[k];
    if (key_col.encoding() == Encoding::kProbability) {
      key_col = Column::Plain(key_col.DecodeValues());
    }
    out.names.push_back(node.group_names[k]);
    out.columns.push_back(key_col.Select(rep));
  }
  return out;
}

Column AggregateOutputColumn(AggKind kind, DType dtype,
                             const std::vector<double>& acc,
                             const std::vector<int64_t>& counts,
                             Device device) {
  const int64_t num_groups = static_cast<int64_t>(acc.size());
  Tensor result = Tensor::Empty({num_groups}, dtype, device);
  TDP_DISPATCH_ALL(dtype, {
    scalar_t* out = result.data<scalar_t>();
    for (int64_t g = 0; g < num_groups; ++g) {
      const size_t ug = static_cast<size_t>(g);
      double v = 0;
      switch (kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          v = static_cast<double>(counts[ug]);
          break;
        case AggKind::kSum:
        case AggKind::kMin:
        case AggKind::kMax:
          v = acc[ug];
          break;
        case AggKind::kAvg:
          v = counts[ug] > 0 ? acc[ug] / static_cast<double>(counts[ug]) : 0;
          break;
      }
      out[g] = static_cast<scalar_t>(v);
    }
  });
  return Column::Plain(std::move(result));
}

StatusOr<Chunk> ExecuteAggregate(const AggregateNode& node,
                                 const Chunk& input, const ExecContext& ctx) {
  // Soft path: trainable mode + PE keys + COUNT(*) aggregates only.
  if (ctx.soft_mode && !node.group_exprs.empty()) {
    bool all_count_star = true;
    for (const AggDef& def : node.aggregates) {
      if (def.kind != AggKind::kCountStar) all_count_star = false;
    }
    // Probe the first key's encoding to decide; PE keys require soft.
    bool keys_are_pe = true;
    std::vector<Column> probe;
    for (const auto& expr : node.group_exprs) {
      TDP_ASSIGN_OR_RETURN(
          Column key,
          EvaluateExprToColumn(*expr, input, EvalOpts(ctx)));
      if (key.encoding() != Encoding::kProbability) keys_are_pe = false;
      probe.push_back(std::move(key));
    }
    if (keys_are_pe) {
      if (!all_count_star) {
        return Status::Unimplemented(
            "trainable aggregation over PE keys supports COUNT(*) only");
      }
      TDP_ASSIGN_OR_RETURN(SoftGroupByResult soft, SoftGroupByCount(probe));
      Chunk out;
      for (size_t g = 0; g < node.group_names.size(); ++g) {
        out.names.push_back(node.group_names[g]);
        out.columns.push_back(Column::Plain(soft.key_values[g]));
      }
      for (const AggDef& def : node.aggregates) {
        out.names.push_back(def.name);
        out.columns.push_back(Column::Plain(soft.counts));
      }
      return out;
    }
    // Fall through to exact with already-evaluated keys discarded.
  }

  TDP_ASSIGN_OR_RETURN(AggInputs inputs, EvaluateAggInputs(node, input, ctx));
  return FinalizeAggregate(node, inputs, ctx);
}

// ---- Join -------------------------------------------------------------------

StatusOr<JoinHashTable> BuildJoinHashTable(const JoinNode& node,
                                           Chunk build_input,
                                           const ExecContext& ctx) {
  const auto& build_key_cols =
      node.build_left ? node.left_keys : node.right_keys;
  // Over-budget equi-join builds go grace: the payload is partitioned to
  // disk and only the key -> row maps stay resident. Pure-residual joins
  // (no keys) always build in memory — their probe is a cartesian product
  // over the materialized build side.
  if (ctx.memory != nullptr && !ctx.soft_mode && !build_key_cols.empty() &&
      build_input.num_rows() > 0) {
    const int64_t footprint =
        ChunkFootprintBytes(build_input) + build_input.num_rows() * 48;
    if (ctx.memory->ShouldSpill(footprint)) {
      JoinHashTable ht;
      TDP_ASSIGN_OR_RETURN(ht.spilled,
                           BuildSpilledJoin(node, build_input, ctx));
      return ht;
    }
  }
  JoinHashTable ht;
  ht.build = std::move(build_input);
  if (!build_key_cols.empty()) {
    TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                         ComputeJoinKeyCodes(ht.build, build_key_cols));
    const KeyColumns cols = ColumnsOf(codes.columns);
    ht.index = JoinIndex(static_cast<int64_t>(cols.size()));
    for (int64_t r = 0; r < ht.build.num_rows(); ++r) {
      if (!codes.never_match[static_cast<size_t>(r)]) ht.index.Add(cols, r, r);
    }
    ht.index.Finish();
  }
  return ht;
}

StatusOr<Chunk> ProbeJoin(const JoinNode& node, const JoinHashTable& ht,
                          const Chunk& probe, const ExecContext& ctx) {
  if (ht.spilled != nullptr) {
    return ProbeSpilledJoin(node, *ht.spilled, probe, ctx);
  }
  const int64_t probe_rows = probe.num_rows();
  const int64_t build_rows = ht.build.num_rows();
  const auto& probe_key_cols =
      node.build_left ? node.right_keys : node.left_keys;

  // Matched row pairs, in probe-row-major order; matches of one probe row
  // come out in ascending build-row order (the index keeps them sorted).
  std::vector<int64_t> probe_idx;
  std::vector<int64_t> build_idx;
  if (!probe_key_cols.empty()) {
    TDP_ASSIGN_OR_RETURN(JoinKeyCodes codes,
                         ComputeJoinKeyCodes(probe, probe_key_cols));
    const KeyColumns cols = ColumnsOf(codes.columns);
    probe_idx.reserve(static_cast<size_t>(probe_rows));
    build_idx.reserve(static_cast<size_t>(probe_rows));
    for (int64_t r = 0; r < probe_rows; ++r) {
      if (codes.never_match[static_cast<size_t>(r)]) continue;
      for (int64_t b : ht.index.Matches(cols, r)) {
        probe_idx.push_back(r);
        build_idx.push_back(b);
      }
    }
  } else {
    // Pure residual join: cartesian pairs filtered below.
    probe_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    build_idx.reserve(static_cast<size_t>(probe_rows * build_rows));
    for (int64_t l = 0; l < probe_rows; ++l) {
      for (int64_t r = 0; r < build_rows; ++r) {
        probe_idx.push_back(l);
        build_idx.push_back(r);
      }
    }
  }

  // Assemble in schema order (left columns first) regardless of which
  // side was the build: the build-side flip is invisible downstream.
  const Chunk& left_chunk = node.build_left ? ht.build : probe;
  const Chunk& right_chunk = node.build_left ? probe : ht.build;
  const Tensor psel = Tensor::FromVector(probe_idx, {}, ctx.device);
  const Tensor bsel = Tensor::FromVector(build_idx, {}, ctx.device);
  const Tensor& lsel = node.build_left ? bsel : psel;
  const Tensor& rsel = node.build_left ? psel : bsel;
  Chunk joined;
  for (size_t i = 0; i < left_chunk.columns.size(); ++i) {
    joined.names.push_back(node.schema[i].name);
    joined.columns.push_back(left_chunk.columns[i].Select(lsel));
  }
  for (size_t i = 0; i < right_chunk.columns.size(); ++i) {
    joined.names.push_back(node.schema[left_chunk.columns.size() + i].name);
    joined.columns.push_back(right_chunk.columns[i].Select(rsel));
  }

  if (node.residual) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.residual, joined, EvalOpts(ctx)));
    joined = joined.Select(NonZero(mask));
  }
  return joined;
}

// ---- Sort / Limit / Distinct ------------------------------------------------

StatusOr<Chunk> ExecuteSort(const SortNode& node, const Chunk& input,
                            const ExecContext& ctx) {
  const int64_t rows = input.num_rows();
  // The keys are evaluated once, over the whole relation, and collapsed
  // to order codes; both the in-memory and the external sort rank rows by
  // them through `SortRows`.
  SortKeys keys;
  for (const plan::SortItem& item : node.items) {
    TDP_ASSIGN_OR_RETURN(
        Column key_col, EvaluateExprToColumn(*item.expr, input, EvalOpts(ctx)));
    TDP_ASSIGN_OR_RETURN(SortKey key, MakeSortKey(key_col, item.descending));
    keys.push_back(std::move(key));
  }
  // In-memory sort scratch: the key codes + permutation (+ the output
  // copy of the relation, since `input` stays live until Select returns).
  // Over budget -> external merge sort, bit-identical permutation.
  if (ctx.memory != nullptr && !ctx.soft_mode && rows > 0 &&
      !node.items.empty()) {
    const int64_t scratch =
        ChunkFootprintBytes(input) +
        rows * 8 * static_cast<int64_t>(node.items.size() + 2);
    if (ctx.memory->ShouldSpill(scratch)) {
      return ExternalSortChunk(node, keys, input, ctx);
    }
  }
  const ScopedReservation reservation(
      ctx.memory,
      rows * 8 * static_cast<int64_t>(node.items.size() + 2));
  const std::vector<int64_t> perm =
      SortRows(keys, 0, rows, node.fused_limit);
  return input.Select(Tensor::FromVector(perm, {}, ctx.device));
}

StatusOr<Chunk> ExecuteLimit(const LimitNode& node, const Chunk& input) {
  const int64_t rows = input.num_rows();
  const int64_t start = std::min(node.offset, rows);
  const int64_t count = node.limit < 0
                            ? rows - start
                            : std::min(node.limit, rows - start);
  Tensor idx = Tensor::Empty({count}, DType::kInt64,
                             input.columns.empty()
                                 ? Device::kCpu
                                 : input.columns[0].data().device());
  int64_t* p = idx.data<int64_t>();
  for (int64_t i = 0; i < count; ++i) p[i] = start + i;
  return input.Select(idx);
}

StatusOr<Chunk> ExecuteDistinct(const Chunk& input) {
  const int64_t rows = input.num_rows();
  std::vector<std::vector<int64_t>> codes;
  for (const Column& c : input.columns) {
    TDP_ASSIGN_OR_RETURN(std::vector<int64_t> col_codes,
                         OrderPreservingCodes(c));
    codes.push_back(std::move(col_codes));
  }
  const KeyColumns cols = ColumnsOf(codes);
  KeyTable seen(static_cast<int64_t>(cols.size()));
  std::vector<int64_t> keep;
  for (int64_t r = 0; r < rows; ++r) {
    bool inserted = false;
    seen.Insert(cols, r, &inserted);
    if (inserted) keep.push_back(r);
  }
  const Device device =
      input.columns.empty() ? Device::kCpu : input.columns[0].data().device();
  return input.Select(Tensor::FromVector(keep, {}, device));
}

// ---- IndexTopK --------------------------------------------------------------

namespace {

// Evaluates the node's absorbed projection over `rows` (already reduced to
// the winning top-k rows) into the output chunk. Every expression here is
// row-local (the rewrite rejects UDF-bearing projections), so evaluating
// over the k winners yields the same bytes as evaluating over the full
// relation and then selecting — the property the exactness guarantee
// rests on.
StatusOr<Chunk> ProjectIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& rows, const ExecContext& ctx) {
  Chunk out;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TDP_ASSIGN_OR_RETURN(
        Column c,
        EvaluateExprToColumn(*node.exprs[i], rows, EvalOpts(ctx)));
    out.names.push_back(node.schema[i].name);
    out.columns.push_back(std::move(c));
  }
  return out;
}

// The first `node.k` of `n` rows ranked by the node's sort keys — the
// similarity DESC first, then the absorbed `extra_keys` tie-breaks —
// through `SortRows`, the comparator ExecuteSort uses, so ranking a
// candidate subset reproduces the exact plan's order (ties included) bit
// for bit. `key_column(ordinal)` yields `exprs[ordinal]` over those rows.
StatusOr<std::vector<int64_t>> TopKRows(
    const plan::IndexTopKNode& node, int64_t n,
    const std::function<StatusOr<Column>(int64_t)>& key_column) {
  std::vector<std::pair<int64_t, bool>> items;  // (ordinal, descending)
  items.emplace_back(node.sim_ordinal, true);
  for (const auto& extra : node.extra_keys) {
    items.emplace_back(extra.ordinal, extra.descending);
  }
  SortKeys keys;
  for (const auto& [ordinal, descending] : items) {
    TDP_ASSIGN_OR_RETURN(Column column, key_column(ordinal));
    TDP_ASSIGN_OR_RETURN(SortKey key, MakeSortKey(column, descending));
    keys.push_back(std::move(key));
  }
  return SortRows(keys, 0, n, node.k);
}

// The k = 0 / zero-survivor result: the projection evaluated over the
// UNfiltered input, then a zero-row Select — projecting first keeps
// mixed literal/column chunks consistent where per-subset projection of
// constants over an empty chunk would diverge.
StatusOr<Chunk> EmptyIndexTopK(const plan::IndexTopKNode& node,
                               const Chunk& input, const ExecContext& ctx) {
  TDP_ASSIGN_OR_RETURN(Chunk projected, ProjectIndexTopK(node, input, ctx));
  return projected.Select(Tensor::Empty({0}, DType::kInt64, ctx.device));
}

// The exact plan shape IndexTopK replaced — Filter (when a predicate was
// absorbed), Project, stable multi-key top-k sort — used for the brute
// strategy and whenever the index cannot serve this run (re-registered
// table, row-count drift, or a degenerate zero-row candidate set).
StatusOr<Chunk> IndexTopKExact(const plan::IndexTopKNode& node,
                               const Chunk& input, const ExecContext& ctx) {
  const Chunk* base = &input;
  Chunk filtered;
  if (node.predicate != nullptr) {
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
    if (mask.numel() != input.num_rows()) {
      return Status::ExecutionError("predicate mask length mismatch");
    }
    const Tensor survivors = NonZero(mask);
    if (survivors.numel() == 0) return EmptyIndexTopK(node, input, ctx);
    filtered = input.Select(survivors);
    base = &filtered;
  }
  TDP_ASSIGN_OR_RETURN(Chunk projected, ProjectIndexTopK(node, *base, ctx));
  TDP_ASSIGN_OR_RETURN(
      std::vector<int64_t> top,
      TopKRows(node, projected.num_rows(),
               [&projected](int64_t ordinal) -> StatusOr<Column> {
                 return projected.columns[static_cast<size_t>(ordinal)];
               }));
  return projected.Select(Tensor::FromVector(top, {}, ctx.device));
}

}  // namespace

StatusOr<Chunk> ExecuteIndexTopK(const plan::IndexTopKNode& node,
                                 const Chunk& input, const ExecContext& ctx) {
  // Re-resolve the index from THIS run's catalog snapshot: plans are
  // immutable and shared, so index validity — like table resolution — is
  // per-run state. A vanished/stale index (the table was re-registered
  // after compilation) degrades to the exact Sort+Limit computation
  // rather than failing; the next compile drops the IndexTopK node
  // entirely (the catalog version moved).
  // LIMIT 0 emits nothing: take the exact path straight away (its
  // zero-row Select keeps mixed literal/column chunks consistent) rather
  // than probing an index whose candidates would be discarded.
  if (node.k <= 0) return IndexTopKExact(node, input, ctx);

  // The index covers the table's PHYSICAL rows (deleted rows included);
  // its validity conditions are (a) identity — FindVectorIndex already
  // checked the entry tags the registration this snapshot serves — and
  // (b) coverage: one index id per physical row, and the scanned input is
  // the table's full live view (row i of `input` is live position i).
  const std::shared_ptr<const VectorIndexEntry> entry =
      ctx.catalog->FindVectorIndex(node.table_name, node.column_name);
  if (entry == nullptr ||
      entry->index->num_rows() != entry->table->num_physical_rows() ||
      entry->table->num_rows() != input.num_rows()) {
    return IndexTopKExact(node, input, ctx);
  }
  const Table& table = *entry->table;

  // Filtered-search strategy: the per-run override beats the compiled
  // cost-rule choice; for an unfiltered node only a forced kBrute changes
  // anything (pre- and post-filter coincide with the plain probe when
  // there is no predicate). Brute bypasses the index entirely.
  const VectorSearchStrategy strategy =
      ctx.vector_search.strategy != VectorSearchStrategy::kAuto
          ? ctx.vector_search.strategy
          : (node.predicate != nullptr ? node.strategy
                                       : VectorSearchStrategy::kPostFilter);
  if (strategy == VectorSearchStrategy::kBrute) {
    return IndexTopKExact(node, input, ctx);
  }

  const auto& sim = static_cast<const exec::BoundVectorSim&>(
      *node.exprs[static_cast<size_t>(node.sim_ordinal)]);
  TDP_ASSIGN_OR_RETURN(EvalResult query,
                       EvaluateExpr(*sim.query, input, EvalOpts(ctx)));
  if (!query.is_scalar || !query.scalar.is_tensor()) {
    return Status::TypeError(
        "IndexTopK query must be a constant tensor (bind the vector with "
        "ScalarValue::FromTensor)");
  }

  // Negative budgets were rejected at run entry (ValidateRunOptions);
  // here 0 means "probe every cell".
  const int64_t num_lists = entry->index->num_lists();
  // Cosine ranking only trusts the dot-ordered cell probe on unit-norm
  // rows (see IvfIndex::rows_unit_norm); otherwise probe every cell so
  // partial-probe recall can never silently collapse — results stay
  // exact, only the scan-fraction saving is lost.
  const bool trust_partial_probe =
      sim.sim_kind == exec::BoundVectorSim::SimKind::kDot ||
      entry->index->rows_unit_norm();
  const int64_t probes =
      (ctx.vector_search.num_probes == 0 || !trust_partial_probe)
          ? num_lists
          : std::min(ctx.vector_search.num_probes, num_lists);

  // Candidate generation, by strategy. Candidates are LIVE row ids in
  // ascending order; for a filtered node every candidate already
  // satisfies the predicate by the time ranking starts.
  std::vector<int64_t> candidates;
  if (node.predicate == nullptr) {
    // The probe budget is a floor: cells are probed past it until k
    // candidate rows exist, so a LIMIT k never shrinks below min(k, n)
    // just because the best cell is small — recall absorbs the
    // approximation, row count never does. Probed ids are PHYSICAL; the
    // deleted ones are dropped and the survivors mapped to live positions
    // (MapPhysicalToLive preserves ascending order). A delete-heavy cell
    // can leave fewer than k live candidates even though the probe floor
    // was met, so the budget doubles until k live rows exist or every
    // cell was visited — deletes, like small cells, cost scan fraction,
    // never result rows.
    for (int64_t budget = probes;;) {
      TDP_ASSIGN_OR_RETURN(
          std::vector<int64_t> physical,
          entry->index->ProbeCandidates(query.scalar.tensor_value(), budget,
                                        /*min_candidates=*/node.k));
      candidates = table.MapPhysicalToLive(physical);
      if (static_cast<int64_t>(candidates.size()) >= node.k ||
          budget >= num_lists) {
        break;
      }
      budget = std::min(budget * 2, num_lists);
    }
    if (candidates.empty()) {
      return IndexTopKExact(node, input, ctx);
    }
  } else if (strategy == VectorSearchStrategy::kPreFilter) {
    // Pre-filter: evaluate the predicate over the live view once, push
    // the surviving rows into the probe as a physical-id selection
    // bitmap. Only selected rows are collected (so every candidate is a
    // survivor — no re-check, no widening loop), fully-pruned cells
    // don't consume probe budget, and the min_candidates floor counts
    // SURVIVORS — the filtered row-count guarantee in one pass. Deleted
    // rows are never selected (the live mask can't reach them), keeping
    // the bitmap consistent with the physical-id index.
    TDP_ASSIGN_OR_RETURN(
        Tensor mask,
        EvaluatePredicate(*node.predicate, input, EvalOpts(ctx)));
    if (mask.numel() != input.num_rows()) {
      return Status::ExecutionError("predicate mask length mismatch");
    }
    const std::vector<int64_t> live_survivors =
        NonZero(mask).ToVector<int64_t>();
    if (live_survivors.empty()) return EmptyIndexTopK(node, input, ctx);
    const std::vector<int64_t> physical_survivors =
        table.MapLiveToPhysical(live_survivors);
    std::vector<uint8_t> selection(
        static_cast<size_t>(table.num_physical_rows()), 0);
    for (int64_t p : physical_survivors) {
      selection[static_cast<size_t>(p)] = 1;
    }
    TDP_ASSIGN_OR_RETURN(
        std::vector<int64_t> physical,
        entry->index->ProbeCandidates(query.scalar.tensor_value(), probes,
                                      /*min_candidates=*/node.k,
                                      &selection));
    candidates = table.MapPhysicalToLive(physical);
  } else {
    // Post-filter: probe first, apply the predicate to the candidates,
    // and widen the budget while fewer than k rows survive — doubling
    // up to `max_widening_rounds` times, then jumping straight to a full
    // probe. The last round always probes every cell, so the result can
    // never hold fewer than min(k, true survivors) rows no matter how
    // adversarially the survivors cluster — the widening pace bounds
    // wasted re-probing, not the row-count guarantee.
    int64_t rounds = 0;
    for (int64_t budget = probes;;) {
      TDP_ASSIGN_OR_RETURN(
          std::vector<int64_t> physical,
          entry->index->ProbeCandidates(query.scalar.tensor_value(), budget,
                                        /*min_candidates=*/node.k));
      const std::vector<int64_t> live = table.MapPhysicalToLive(physical);
      std::vector<int64_t> survivors;
      if (!live.empty()) {
        const bool probe_all_rows =
            static_cast<int64_t>(live.size()) == input.num_rows();
        const Tensor live_ids = Tensor::FromVector(live, {}, ctx.device);
        const Chunk probe_rows =
            probe_all_rows ? input : input.Select(live_ids);
        TDP_ASSIGN_OR_RETURN(
            Tensor mask,
            EvaluatePredicate(*node.predicate, probe_rows, EvalOpts(ctx)));
        if (mask.numel() != probe_rows.num_rows()) {
          return Status::ExecutionError("predicate mask length mismatch");
        }
        for (int64_t i : NonZero(mask).ToVector<int64_t>()) {
          survivors.push_back(live[static_cast<size_t>(i)]);
        }
      }
      if (static_cast<int64_t>(survivors.size()) >= node.k ||
          budget >= num_lists) {
        candidates = std::move(survivors);
        break;
      }
      ++rounds;
      budget = rounds > ctx.vector_search.max_widening_rounds
                   ? num_lists
                   : std::min(budget * 2, num_lists);
    }
    if (candidates.empty()) return EmptyIndexTopK(node, input, ctx);
  }

  // Candidates arrive in ascending row order; ranking them with the
  // plan's own sort keys (sim DESC, then tie-breaks, then row order)
  // reproduces the exact plan's ranking over the candidate subset — with
  // full probes the subset IS the (surviving) relation, making the result
  // bit-identical to the exact plan, tie-breaks included. In the all-rows
  // case the gather is skipped (candidate ids are exactly [0, n)
  // ascending, so `input` IS the candidate chunk): the default probe
  // budget must not pay a full-table copy the brute plan never pays. Key
  // expressions are row-local, so skipping the identity gather cannot
  // change a byte.
  const bool all_rows =
      static_cast<int64_t>(candidates.size()) == input.num_rows();
  const Chunk cand_rows =
      all_rows ? input
               : input.Select(Tensor::FromVector(candidates, {}, ctx.device));
  TDP_ASSIGN_OR_RETURN(
      std::vector<int64_t> top,
      TopKRows(node, cand_rows.num_rows(),
               [&](int64_t ordinal) -> StatusOr<Column> {
                 return EvaluateExprToColumn(
                     *node.exprs[static_cast<size_t>(ordinal)], cand_rows,
                     EvalOpts(ctx));
               }));
  for (int64_t& row : top) row = candidates[static_cast<size_t>(row)];
  return ProjectIndexTopK(
      node, input.Select(Tensor::FromVector(top, {}, ctx.device)), ctx);
}

// ---- DDL / DML kernels ------------------------------------------------------

namespace {

Chunk RowsAffectedChunk(int64_t n) {
  Chunk out;
  out.names.push_back("rows_affected");
  out.columns.push_back(
      Column::Plain(Tensor::FromVector(std::vector<int64_t>{n}, {})));
  return out;
}

Status RequireWriter(const ExecContext& ctx, const char* what) {
  if (ctx.writer == nullptr) {
    return Status::InvalidArgument(
        std::string(what) +
        " needs a writable session; this execution context is read-only");
  }
  return Status::OK();
}

// Builds the append/assign batch for one target column from evaluated
// VALUES scalars, matching `tmpl` (the table's tail column — the
// encoding/dtype/row-shape contract WithAppended enforces).
StatusOr<Column> ColumnFromScalars(const Column& tmpl,
                                   const std::string& col_name,
                                   const std::vector<ScalarValue>& values) {
  const int64_t n = static_cast<int64_t>(values.size());
  for (const ScalarValue& v : values) {
    if (v.is_null()) {
      return Status::InvalidArgument("column " + col_name +
                                     ": NULL values are not supported");
    }
  }
  switch (tmpl.encoding()) {
    case Encoding::kDictionary: {
      std::vector<std::string> strs;
      strs.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_string()) {
          return Status::TypeError("column " + col_name +
                                   " takes string values");
        }
        strs.push_back(v.string_value());
      }
      return Column::FromStrings(strs, tmpl.data().device());
    }
    case Encoding::kProbability:
      return Status::InvalidArgument(
          "column " + col_name +
          ": INSERT into probability-encoded columns is not supported");
    case Encoding::kPlain:
      break;
  }
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (tmpl.data().dim() >= 2) {
    // Tensor column: each value is a whole row tensor (bound through a
    // `?` parameter with ScalarValue::FromTensor).
    std::vector<int64_t> row_shape = tmpl.data().shape();
    row_shape[0] = 1;
    int64_t row_numel = 1;
    for (size_t d = 1; d < row_shape.size(); ++d) row_numel *= row_shape[d];
    std::vector<Tensor> rows;
    rows.reserve(values.size());
    for (const ScalarValue& v : values) {
      if (!v.is_tensor() || v.tensor_value().numel() != row_numel) {
        return Status::TypeError(
            "column " + col_name + " takes " + std::to_string(row_numel) +
            "-element tensor rows (bind with ScalarValue::FromTensor)");
      }
      rows.push_back(Reshape(
          v.tensor_value().Detach().To(dtype).To(device), row_shape));
    }
    return Column::Plain(Cat(rows, 0));
  }
  Tensor data;
  switch (dtype) {
    case DType::kInt64: {
      std::vector<int64_t> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_int()) {
          return Status::TypeError("column " + col_name +
                                   " takes integer values");
        }
        out.push_back(v.int_value());
      }
      data = Tensor::FromVector(out, {}, device);
      break;
    }
    case DType::kBool: {
      data = Tensor::Empty({n}, DType::kBool, device);
      bool* p = data.data<bool>();
      for (int64_t i = 0; i < n; ++i) {
        if (!values[static_cast<size_t>(i)].is_bool()) {
          return Status::TypeError("column " + col_name +
                                   " takes boolean values");
        }
        p[i] = values[static_cast<size_t>(i)].bool_value();
      }
      break;
    }
    case DType::kFloat32:
    case DType::kFloat64: {
      std::vector<double> out;
      out.reserve(values.size());
      for (const ScalarValue& v : values) {
        if (!v.is_numeric()) {
          return Status::TypeError("column " + col_name +
                                   " takes numeric values");
        }
        out.push_back(v.AsDouble());
      }
      data = Tensor::FromVector(out, {}, device).To(dtype);
      break;
    }
    default:
      return Status::TypeError("column " + col_name +
                               ": unsupported column dtype for INSERT");
  }
  return Column::Plain(std::move(data));
}

// Coerces an evaluated column (INSERT ... SELECT source / UPDATE
// assignment result) to `tmpl`'s encoding, dtype, and device. Numeric
// widening (int column into a float column) is the only conversion; a
// genuine encoding mismatch fails with the column named.
StatusOr<Column> CoerceToColumn(const Column& tmpl,
                                const std::string& col_name,
                                const Column& incoming) {
  if (incoming.encoding() != tmpl.encoding()) {
    return Status::TypeError(
        "column " + col_name + " is " +
        std::string(EncodingName(tmpl.encoding())) + "-encoded; got " +
        std::string(EncodingName(incoming.encoding())) + " values");
  }
  if (tmpl.encoding() != Encoding::kPlain) return incoming;
  const DType dtype = tmpl.data().dtype();
  const Device device = tmpl.data().device();
  if (incoming.data().dim() != tmpl.data().dim()) {
    return Status::TypeError("column " + col_name + " rank mismatch");
  }
  if (incoming.data().dtype() == dtype &&
      incoming.data().device() == device) {
    return incoming;
  }
  const bool numeric_ok =
      IsFloatingPoint(dtype) || incoming.data().dtype() == dtype;
  if (!numeric_ok) {
    return Status::TypeError("column " + col_name + " type mismatch");
  }
  return Column::Plain(incoming.data().Detach().To(dtype).To(device));
}

/// Re-tags `entry` onto `table` (sharing the index storage).
std::shared_ptr<const VectorIndexEntry> RetagIndexEntry(
    const VectorIndexEntry& entry, std::shared_ptr<const Table> table) {
  return std::shared_ptr<const VectorIndexEntry>(new VectorIndexEntry{
      entry.table_name, entry.column_name, entry.index, std::move(table)});
}

/// The matching live positions (and selected rows) of a DML WHERE clause
/// over the full-table scan `input`; null predicate selects every row.
struct DmlSelection {
  std::vector<int64_t> positions;
  Chunk rows;
};

StatusOr<DmlSelection> SelectDmlRows(const exec::BoundExpr* predicate,
                                     const Chunk& input,
                                     const ExecContext& ctx) {
  DmlSelection sel;
  if (predicate == nullptr) {
    sel.positions.resize(static_cast<size_t>(input.num_rows()));
    for (int64_t i = 0; i < input.num_rows(); ++i) {
      sel.positions[static_cast<size_t>(i)] = i;
    }
    sel.rows = input;
    return sel;
  }
  TDP_ASSIGN_OR_RETURN(
      Tensor mask, EvaluatePredicate(*predicate, input, EvalOpts(ctx)));
  if (mask.numel() != input.num_rows()) {
    return Status::ExecutionError("predicate mask length mismatch");
  }
  const Tensor selected = NonZero(mask);
  sel.positions = selected.ToVector<int64_t>();
  sel.rows = input.Select(selected);
  return sel;
}

}  // namespace

StatusOr<Chunk> ExecuteCreateTable(const plan::CreateTableNode& node,
                                   const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "CREATE TABLE"));
  std::vector<std::string> names;
  std::vector<Column> columns;
  names.reserve(node.table_schema.size());
  columns.reserve(node.table_schema.size());
  for (size_t i = 0; i < node.table_schema.size(); ++i) {
    const plan::ColumnMeta& meta = node.table_schema[i];
    names.push_back(meta.name);
    const int64_t width = node.tensor_widths[i];
    if (width > 0) {
      columns.push_back(
          Column::Plain(Tensor::Empty({0, width}, DType::kFloat32)));
    } else if (meta.encoding == Encoding::kDictionary) {
      columns.push_back(Column::FromStrings({}));
    } else {
      columns.push_back(Column::Plain(Tensor::Empty({0}, meta.dtype)));
    }
  }
  TDP_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::Create(node.table_name, std::move(names), std::move(columns)));
  // replace=false: CREATE TABLE of an existing name is an error, atomically
  // decided under the catalog mutex (two racing CREATEs cannot both win).
  TDP_RETURN_NOT_OK(ctx.writer->RegisterTable(node.table_name,
                                              std::move(table),
                                              /*replace=*/false));
  return RowsAffectedChunk(0);
}

StatusOr<Chunk> ExecuteInsert(const plan::InsertNode& node,
                              const Chunk& source, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "INSERT"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  const size_t num_cols = static_cast<size_t>(target->num_columns());
  if (node.column_map.size() != num_cols) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed shape since compilation; re-compile the statement");
  }

  // Build the append batch in TABLE column order (column_map[i] is the
  // target column of value position i; the binder guarantees the map is a
  // permutation).
  std::vector<Column> batch(num_cols);
  int64_t added = 0;
  if (node.children.empty()) {
    added = static_cast<int64_t>(node.rows.size());
    // VALUES rows: evaluate every expression to a constant (no input
    // relation exists), then build one column per value position.
    const Chunk no_input;
    std::vector<std::vector<ScalarValue>> by_position(num_cols);
    for (const auto& row : node.rows) {
      if (row.size() != num_cols) {
        return Status::Internal("INSERT row arity mismatch");
      }
      for (size_t i = 0; i < row.size(); ++i) {
        TDP_ASSIGN_OR_RETURN(
            EvalResult v,
            EvaluateExpr(*row[i], no_input, EvalOpts(ctx)));
        if (!v.is_scalar) {
          return Status::TypeError(
              "INSERT VALUES entries must be constant expressions");
        }
        by_position[i].push_back(std::move(v.scalar));
      }
    }
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          ColumnFromScalars(target->TailColumn(t),
                            target->column_names()[static_cast<size_t>(t)],
                            by_position[i]));
    }
  } else {
    // INSERT ... SELECT: the evaluated child's columns are the value
    // positions.
    if (source.columns.size() != num_cols) {
      return Status::Internal("INSERT SELECT arity mismatch");
    }
    added = source.num_rows();
    if (added == 0) return RowsAffectedChunk(0);
    for (size_t i = 0; i < num_cols; ++i) {
      const int64_t t = node.column_map[i];
      TDP_ASSIGN_OR_RETURN(
          batch[static_cast<size_t>(t)],
          CoerceToColumn(target->TailColumn(t),
                         target->column_names()[static_cast<size_t>(t)],
                         source.columns[i]));
    }
  }

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithAppended(batch));

  // Vector indexes extend incrementally: the new physical rows are
  // assigned to their nearest existing centroids — no rebuild, recall
  // degrades gracefully until the next explicit CREATE VECTOR INDEX. An
  // entry that cannot extend (unexpected shape/dtype) is dropped; the
  // exact fallback keeps queries correct.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    const auto col = target->ColumnIndex(entry->column_name);
    if (!col.ok()) continue;
    auto extended = entry->index->WithAppended(
        batch[static_cast<size_t>(col.value())].data());
    if (!extended.ok()) continue;
    entries.push_back(std::shared_ptr<const VectorIndexEntry>(
        new VectorIndexEntry{entry->table_name, entry->column_name,
                             std::make_shared<const index::IvfIndex>(
                                 std::move(extended).value()),
                             written}));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(added);
}

StatusOr<Chunk> ExecuteUpdate(const plan::UpdateNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "UPDATE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the UPDATE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  // Assignment expressions are evaluated over the OLD matching rows
  // (standard SQL: `SET a = b, b = a` swaps). Every expression here is
  // row-local, so evaluating over the selected subset equals evaluating
  // over the relation and gathering.
  std::vector<std::pair<int64_t, Column>> updates;
  updates.reserve(node.assignments.size());
  for (const auto& [col, expr] : node.assignments) {
    TDP_ASSIGN_OR_RETURN(
        Column values,
        EvaluateExprToColumn(*expr, sel.rows, EvalOpts(ctx)));
    TDP_ASSIGN_OR_RETURN(
        values,
        CoerceToColumn(target->TailColumn(col),
                       target->column_names()[static_cast<size_t>(col)],
                       values));
    updates.emplace_back(col, std::move(values));
  }
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithUpdated(sel.positions, updates));

  // WithUpdated compacts to a single physical==live segment. An index
  // entry survives (re-tagged, storage shared) only when that compaction
  // provably preserved physical ids — no deletes in the base — and the
  // indexed column was not assigned; otherwise it is dropped and queries
  // take the exact fallback until the index is rebuilt.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  if (!target->has_deletes()) {
    for (const auto& entry :
         ctx.catalog->TableVectorIndexes(node.table_name)) {
      if (entry->index->num_rows() != target->num_physical_rows()) continue;
      const auto col = target->ColumnIndex(entry->column_name);
      if (!col.ok()) continue;
      const bool assigned =
          std::any_of(node.assignments.begin(), node.assignments.end(),
                      [&col](const auto& a) {
                        return a.first == col.value();
                      });
      if (assigned) continue;
      entries.push_back(RetagIndexEntry(*entry, written));
    }
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

StatusOr<Chunk> ExecuteDelete(const plan::DeleteNode& node,
                              const Chunk& input, const ExecContext& ctx) {
  TDP_RETURN_NOT_OK(RequireWriter(ctx, "DELETE"));
  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> target,
                       ctx.catalog->GetTable(node.table_name));
  if (input.num_rows() != target->num_rows()) {
    return Status::ExecutionError(
        "table " + node.table_name +
        " changed while the DELETE was running; retry the statement");
  }
  TDP_ASSIGN_OR_RETURN(DmlSelection sel,
                       SelectDmlRows(node.predicate.get(), input, ctx));
  // A no-match DELETE is a pure no-op: skip the install entirely, so it
  // bumps neither the catalog version nor any reader's snapshot.
  if (sel.positions.empty()) return RowsAffectedChunk(0);

  TDP_ASSIGN_OR_RETURN(std::shared_ptr<Table> written,
                       target->WithDeleted(sel.positions));

  // DELETE never moves a physical row — every index entry survives with
  // its storage shared; probing filters the newly-deleted ids.
  std::vector<std::shared_ptr<const VectorIndexEntry>> entries;
  for (const auto& entry :
       ctx.catalog->TableVectorIndexes(node.table_name)) {
    if (entry->index->num_rows() != target->num_physical_rows()) continue;
    entries.push_back(RetagIndexEntry(*entry, written));
  }

  TDP_RETURN_NOT_OK(ctx.writer->ApplyDmlWrite(
      node.table_name, target, std::move(written), std::move(entries)));
  return RowsAffectedChunk(static_cast<int64_t>(sel.positions.size()));
}

int64_t DefaultMorselRows() {
  static const int64_t cached = [] {
    constexpr int64_t kDefault = 64 * 1024;
    const char* env = std::getenv("TDP_MORSEL_ROWS");
    if (env == nullptr || *env == '\0') return kDefault;
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > (int64_t{1} << 40)) {
      TDP_LOG(Warning) << "ignoring invalid TDP_MORSEL_ROWS='" << env << "'";
      return kDefault;
    }
    return static_cast<int64_t>(v);
  }();
  return cached;
}

}  // namespace exec
}  // namespace tdp
